"""Transaction routing: which fragment groups must certify a transaction.

The router classifies a transaction from its read and write sets:
single-fragment transactions certify through their one group's total
order; cross-fragment transactions are atomically multicast to exactly
the groups they touch.  Classification is a pure function of the sets
plus the home fragment, so every site — origin or remote — computes the
same answer from the same marshalled request.

A route is *footprint, then owners*: the warehouses the sets pin
(:func:`repro.tpcc.schema.warehouses_of_tuples`) depend on nothing but
the sets, so a delivered request carries them on its shared
:attr:`~repro.dbsm.marshal.CommitRequest.derived` store; the owners —
this map's fragments of those warehouses — every site looks up itself.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, NamedTuple, Tuple

from ..tpcc.schema import warehouses_of_tuples
from .fragments import FragmentMap

if TYPE_CHECKING:
    from ..dbsm.marshal import CommitRequest

__all__ = ["RoutingDecision", "TransactionRouter"]


class RoutingDecision(NamedTuple):
    """Where a transaction must be certified.

    ``fragments`` is the sorted, de-duplicated tuple of touched
    fragments; ``home`` is the fragment of the transaction's home
    warehouse.  ``is_cross`` distinguishes the genuine-multicast path.
    """

    fragments: Tuple[int, ...]
    home: int

    @property
    def is_cross(self) -> bool:
        return len(self.fragments) > 1


class TransactionRouter:
    """Maps read/write sets to the set of fragment groups they touch."""

    __slots__ = ("fragment_map", "_all_fragments")

    def __init__(self, fragment_map: FragmentMap):
        self.fragment_map = fragment_map
        self._all_fragments = tuple(range(fragment_map.fragments))

    def route(
        self,
        read_set: Iterable[int],
        write_set: Iterable[int],
        home_fragment: int,
    ) -> RoutingDecision:
        """Classify a transaction.

        Whole-table locks (read-set escalation) touch every fragment —
        the table's rows are spread across all of them.  Unmappable ids
        (item catalog, fresh insert rows) constrain nothing: the item
        catalog is read-only and replicated everywhere, and a fresh row
        can never conflict.  A transaction whose sets pin no fragment at
        all (read-only against the catalog, or empty) stays home.
        """
        return self._owners(warehouses_of_tuples(read_set, write_set), home_fragment)

    def route_request(
        self, request: CommitRequest, home_fragment: int
    ) -> RoutingDecision:
        """:meth:`route` for a delivered request: the same decision from
        the same code, the footprint taken from (or left on) the
        instance every replica was handed."""
        derived = request.derived
        footprint = derived.get("placement")
        if footprint is None:
            footprint = derived["placement"] = warehouses_of_tuples(
                request.read_set, request.write_set
            )
        return self._owners(footprint, home_fragment)

    def _owners(self, footprint, home_fragment: int) -> RoutingDecision:
        if not 0 <= home_fragment < self.fragment_map.fragments:
            raise ValueError(f"home fragment {home_fragment} out of range")
        warehouses, table_lock = footprint
        # Looked up even under a table lock: one out of range raises.
        touched = set(map(self.fragment_map.fragment_of_warehouse, warehouses))
        if table_lock:
            return RoutingDecision(self._all_fragments, home_fragment)
        if not touched:
            touched.add(home_fragment)
        return RoutingDecision(tuple(sorted(touched)), home_fragment)
