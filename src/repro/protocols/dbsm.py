"""The DBSM certification protocol in the protocol table (``"dbsm"``).

The implementation is :class:`repro.dbsm.replica.Replica` — the paper's
distributed termination protocol (§3.3): read/write sets atomically
multicast, deterministic certification on total-order delivery, write
sets applied remotely.  This module only adapts it to the table's
builder signature.
"""

from __future__ import annotations

from ..dbsm.replica import Replica
from .base import ProtocolContext


def build(ctx: ProtocolContext) -> Replica:
    return Replica(ctx.site_id, ctx.server, ctx.gcs)
