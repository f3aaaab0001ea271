"""Pluggable replication protocols (name table + built-in implementations).

``"dbsm"`` — the paper's certification-based Database State Machine
(:mod:`repro.dbsm.replica` behind the table); ``"primary-copy"`` —
passive replication on the same group-communication substrate
(:mod:`repro.protocols.primary_copy`); ``"partial"`` — per-fragment
groups (:mod:`repro.protocols.partial`).  See :mod:`repro.protocols.base`
for how to add a protocol.

**Contract.** A :class:`ReplicationProtocol` instance is one site's
termination protocol plus client-request routing, crash/rejoin
handling (the state-transfer hook), a commit log, and protocol
counters — built from a :class:`ProtocolContext` by the builder
:data:`PROTOCOLS` maps the protocol's name to.

**Invariants.**

* *Table-complete* — every experiment resolves its protocol by name
  here; a protocol in the table runs the entire shared grid
  (performance, §5.3 fault matrix, recovery fault-loads) unchanged;
* *Common safety bar* — whatever the replication style, all operational
  sites commit exactly the same transaction sequence, crashed sites a
  prefix, rejoined sites a bit-identical copy;
* *Gate discipline* — between ``begin_rejoin()`` and snapshot install a
  site serves no update traffic (``live`` is False) and its commit log
  counts as non-operational.
"""

from typing import Dict, Tuple

from . import dbsm, partial, primary_copy
from .base import Builder, ProtocolContext, ProtocolGroup, ReplicationProtocol

__all__ = [
    "PROTOCOLS",
    "ProtocolContext",
    "ProtocolGroup",
    "ReplicationProtocol",
    "available_protocols",
    "build_protocol",
]

#: protocol name -> builder of one site's instance.
PROTOCOLS: Dict[str, Builder] = {
    "dbsm": dbsm.build,
    "partial": partial.build,
    "primary-copy": primary_copy.build,
}


def available_protocols() -> Tuple[str, ...]:
    """Sorted names of every protocol in :data:`PROTOCOLS`."""
    return tuple(sorted(PROTOCOLS))


def build_protocol(name: str, ctx: ProtocolContext) -> ReplicationProtocol:
    """Build and group-register the ``name`` protocol for one site."""
    try:
        builder = PROTOCOLS[name]
    except KeyError:
        raise ValueError(
            f"unknown replication protocol {name!r} "
            f"(available: {', '.join(available_protocols())})"
        ) from None
    instance = builder(ctx)
    ctx.group.register(ctx.site_id, instance)
    return instance
