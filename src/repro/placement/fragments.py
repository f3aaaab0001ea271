"""Data placement: fragmenting the TPC-C database across replica groups.

The full-replication protocols keep a complete copy of the database at
every site, so every write-set is a full-group broadcast.  Partial
replication (Sutra & Shapiro, *Fault-Tolerant Partial Replication in
Large-Scale Database Systems*) splits the database into *fragments*,
each replicated by its own group: a transaction that touches a single
fragment pays only that group's total order.

Fragments are keyed on TPC-C warehouse ranges — the natural sharding
unit, since every update transaction is anchored at a home warehouse.
Ownership is derived from the schema's row formulas through
:func:`repro.tpcc.schema.warehouses_of_tuples`, the inverse of the
layout math (the router calls it), so the placement layer never
re-derives warehouse sizing.
"""

from __future__ import annotations

from typing import Tuple

from ..tpcc.schema import warehouses_for_clients

__all__ = [
    "PLACEMENT_POLICIES",
    "DEFAULT_PLACEMENT",
    "FragmentMap",
    "fragment_of_site",
    "sites_of_fragment",
]

#: Registered warehouse->fragment placement policies.
#:
#: ``range``        — contiguous warehouse blocks per fragment; aligns
#:                    with the contiguous client blocks sites serve, so
#:                    a client's home warehouse tends to live in its own
#:                    site's fragment.
#: ``round-robin``  — warehouse ``w`` goes to fragment ``w % fragments``;
#:                    deliberately locality-hostile, the control arm for
#:                    the scale-out experiment.
PLACEMENT_POLICIES: Tuple[str, ...] = ("range", "round-robin")
DEFAULT_PLACEMENT = "range"


def fragment_of_site(site: int, sites: int, fragments: int) -> int:
    """The fragment whose group site ``site`` belongs to.

    Sites are carved into contiguous blocks, one block per fragment,
    mirroring the contiguous-range carve used for warehouses under the
    ``range`` policy.  With ``fragments == 1`` every site maps to
    fragment 0 (full replication).
    """
    if not 0 <= site < sites:
        raise ValueError(f"site {site} out of range for {sites} sites")
    if not 1 <= fragments <= sites:
        raise ValueError(f"{fragments} fragments need at least that many sites")
    return ((site + 1) * fragments - 1) // sites


def sites_of_fragment(fragment: int, sites: int, fragments: int) -> Tuple[int, ...]:
    """The (contiguous, ascending) site indices replicating ``fragment``."""
    if not 0 <= fragment < fragments:
        raise ValueError(f"fragment {fragment} out of range")
    if not 1 <= fragments <= sites:
        raise ValueError(f"{fragments} fragments need at least that many sites")
    lo = fragment * sites // fragments
    hi = (fragment + 1) * sites // fragments
    return tuple(range(lo, hi))


class FragmentMap:
    """Immutable warehouse->fragment ownership map.

    Precomputes the owner of every warehouse at construction, so lookups
    on the certification hot path are a tuple index.
    """

    __slots__ = ("warehouses", "fragments", "policy", "_owner")

    def __init__(self, warehouses: int, fragments: int, policy: str = DEFAULT_PLACEMENT):
        if warehouses < 1:
            raise ValueError("need at least one warehouse")
        if not 1 <= fragments <= warehouses:
            raise ValueError(
                f"{fragments} fragments need at least {fragments} warehouses "
                f"(have {warehouses})"
            )
        if policy not in PLACEMENT_POLICIES:
            raise ValueError(
                f"unknown placement policy {policy!r}; "
                f"choose from {PLACEMENT_POLICIES}"
            )
        self.warehouses = warehouses
        self.fragments = fragments
        self.policy = policy
        if policy == "range":
            self._owner = tuple(
                ((w + 1) * fragments - 1) // warehouses for w in range(warehouses)
            )
        else:  # round-robin
            self._owner = tuple(w % fragments for w in range(warehouses))

    @classmethod
    def for_clients(
        cls, clients: int, fragments: int, policy: str = DEFAULT_PLACEMENT
    ) -> "FragmentMap":
        """Build the map for a scenario's client count, sizing warehouses
        through the same helper the workload generator uses."""
        return cls(warehouses_for_clients(clients), fragments, policy)

    # -- lookups ----------------------------------------------------------
    def fragment_of_warehouse(self, warehouse: int) -> int:
        if not 0 <= warehouse < self.warehouses:
            raise ValueError(
                f"warehouse {warehouse} out of range for {self.warehouses}"
            )
        return self._owner[warehouse]

    def warehouses_of_fragment(self, fragment: int) -> Tuple[int, ...]:
        if not 0 <= fragment < self.fragments:
            raise ValueError(f"fragment {fragment} out of range")
        return tuple(
            w for w, owner in enumerate(self._owner) if owner == fragment
        )

    # -- identity ---------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FragmentMap):
            return NotImplemented
        return (
            self.warehouses == other.warehouses
            and self.fragments == other.fragments
            and self.policy == other.policy
        )

    def __hash__(self) -> int:
        return hash((self.warehouses, self.fragments, self.policy))

    def __repr__(self) -> str:
        return (
            f"FragmentMap(warehouses={self.warehouses}, "
            f"fragments={self.fragments}, policy={self.policy!r})"
        )
