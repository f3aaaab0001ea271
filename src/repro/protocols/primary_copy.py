"""Primary-copy passive replication (table name ``"primary-copy"``).

The classic alternative to the DBSM's update-everywhere certification:
**all update transactions are routed to, and executed on, a single
primary site** — the lowest-id member of the current view — while
read-only transactions are served locally at every site.  When an
update commits at the primary, its write-set is atomically broadcast on
the same group-communication substrate the DBSM uses; every site
applies the write-sets in total-order delivery sequence, so backups
converge on exactly the primary's commit sequence (the §5.3
1-copy-serializability check applies unchanged).

Failover: when the primary crashes, the view change promotes the
lowest-id survivor.  Client requests addressed to a primary that is
known dead — or to a successor that has not yet installed the view that
promotes it — are parked at the client's own site and re-routed once
the new primary is in place, like a client library reconnecting after
a broken connection.  Requests *in flight* at the crash instant are
lost and their clients block, exactly as clients of a crashed DBSM
site do.  Two mechanisms keep the regime change serial: forwarded
updates are held until the successor has installed the promoting view
(the virtual-synchrony flush makes delivery of every old-regime
write-set a precondition of that installation), and the promoted
primary itself holds new local updates until every delivered write-set
has *finished applying* — an old-regime apply acquiring locks after a
new update started executing would preempt it, and without
certification to abort the preempted transaction the commit orders
would diverge.

Contrasts with ``"dbsm"`` under identical workloads: no certification
and no read-set shipping (smaller messages, zero certification aborts —
update conflicts surface as write-lock conflicts at the primary
instead), but update processing does not scale out: the primary's CPU
bounds update throughput while reads still scale with sites.  Protocol
CPU and byte counters are kept per site so Figure 6/7-style resource
breakdowns work per protocol.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..core.kernel import Signal
from ..db.server import DatabaseServer
from ..db.transactions import Transaction, TransactionSpec
from ..dbsm.marshal import unmarshal_request_cached
from ..dbsm.replica import open_commit_request
from ..gcs.stack import GroupCommunication
from ..net.network import LAN_LINK_LATENCY
from .base import (
    OnDone,
    ProtocolContext,
    ProtocolGroup,
    ReplicationProtocol,
)

__all__ = ["PrimaryCopyReplica", "PARK_RETRY_INTERVAL"]

#: How often a site re-probes for a usable primary while requests are
#: parked (failover in progress).  Client-side reconnect cadence, not a
#: protocol timer — it only runs while the primary is unreachable.
PARK_RETRY_INTERVAL = 0.050


class PrimaryCopyReplica(ReplicationProtocol):
    """One site of the passively replicated database."""

    name = "primary-copy"

    def __init__(
        self,
        site_id: int,
        server: DatabaseServer,
        gcs: GroupCommunication,
        group: ProtocolGroup,
        link_latency: float = 0.0,
    ):
        super().__init__(site_id, server, gcs)
        self.group = group
        #: One-way client<->primary network latency charged per routed
        #: request and per reply (the JDBC hop a middleware router adds).
        self.link_latency = link_latency
        #: Lowest-id member of the currently installed view.
        self.primary_id = min(gcs.members)
        self._next_commit_seq = 0
        #: (spec, on_done, issued_at) requests held while no usable
        #: primary exists (failover in progress).
        self._parked: List[Tuple[TransactionSpec, OnDone, float]] = []
        self._retry_scheduled = False
        #: Write-set applies scheduled but not yet fully applied.  A
        #: newly promoted primary holds local updates until this drains:
        #: a pending old-regime apply acquiring locks *after* a new
        #: local update started would preempt it, and with no
        #: certification to abort the preempted transaction the commit
        #: orders would diverge.
        self._applies_in_flight = 0
        #: Updates accepted by this primary but held behind the drain.
        self._held: List[Tuple[TransactionSpec, OnDone, float]] = []
        self.stats = {
            "submitted": 0,
            "sequenced": 0,
            "backup_applies": 0,
            "forwarded": 0,
            "parked": 0,
            "failovers": 0,
            "ws_bytes_broadcast": 0,
        }
        gcs.on_view_change = self._on_view_change

    # ------------------------------------------------------------------
    # state transfer (recovery/rejoin)
    # ------------------------------------------------------------------
    def reset_protocol_state(self, was_crashed: bool) -> None:
        super().reset_protocol_state(was_crashed)
        self._held.clear()
        self._applies_in_flight = 0
        if was_crashed:
            # A restarted process has lost the requests parked inside
            # it; a partition survivor keeps them and re-routes once a
            # usable primary is visible again.
            self._parked.clear()

    def protocol_snapshot(self) -> Dict[str, object]:
        return {"next_commit_seq": self._next_commit_seq}

    def install_protocol_snapshot(self, snap: Dict[str, object]) -> None:
        self._next_commit_seq = int(snap["next_commit_seq"])
        if self._parked:
            self._schedule_park_retry()

    # ------------------------------------------------------------------
    # client routing
    # ------------------------------------------------------------------
    def is_primary(self) -> bool:
        return self.primary_id == self.site_id

    def client_submit(self, spec: TransactionSpec, on_done: OnDone) -> None:
        """Reads execute locally; updates are routed to the primary."""
        if not spec.write_set:  # read-only
            # Same as "dbsm": read-only transactions run on the local
            # server even at the crash instant (the crash seals the
            # protocol runtime, not the simulated server).
            self.server.submit(spec, on_done=on_done)
            return
        if self.crashed:
            return  # an update issued at a dead site vanishes; the
            # client blocks, as a dbsm client blocks in submit()
        self._route_update(spec, on_done, self.server.sim._now)

    def _route_update(
        self, spec: TransactionSpec, on_done: OnDone, issued_at: float
    ) -> None:
        """Send an update to the current primary.  ``issued_at`` is the
        instant the client issued the request and travels with it across
        parking/retries, so routing hops *and* failover downtime count
        toward the transaction's recorded latency."""
        if self.is_primary():
            self._execute_update(spec, on_done, issued_at)
            return
        self._forward(spec, on_done, issued_at)

    def _execute_update(
        self, spec: TransactionSpec, on_done: OnDone, issued_at: float
    ) -> None:
        """Run an accepted update on this (primary) site's server —
        unless old-regime write-set applies are still in flight, in
        which case the update is held until they drain (see
        ``_applies_in_flight``; only a freshly promoted primary ever
        holds anything)."""
        if self._applies_in_flight > 0:
            self._held.append((spec, on_done, issued_at))
            return
        self.server.submit(spec, on_done, submitted_at=issued_at)

    def _forward(
        self, spec: TransactionSpec, on_done: OnDone, issued_at: float
    ) -> None:
        primary = self.group.instance(self.primary_id)
        if primary.crashed or not primary.live or not primary.is_primary():
            # Dead primary, a successor that has not yet installed the
            # view promoting it (so it may not have applied every
            # write-set of the old regime), or a recovered predecessor
            # still mid state transfer: hold the request and retry.
            self._parked.append((spec, on_done, issued_at))
            self.stats["parked"] += 1
            self._schedule_park_retry()
            return
        self.stats["forwarded"] += 1
        sim = self.server.sim
        delay = self.link_latency

        def reply(tx: Transaction) -> None:
            sim.call(delay, on_done, tx)

        def routed_submit() -> None:
            # Arrive at the primary through its own gate (it may need to
            # hold the update behind in-flight applies), backdated to
            # the client's issue instant; the reply hop delays only the
            # client (end_time is the primary's commit).
            if primary.crashed:
                return  # in-flight request lost with the primary
            primary._execute_update(spec, reply, issued_at)

        sim.call(delay, routed_submit)

    def _schedule_park_retry(self) -> None:
        if self._retry_scheduled or self.crashed:
            return
        self._retry_scheduled = True
        self.server.sim.call(PARK_RETRY_INTERVAL, self._flush_parked)

    def _flush_parked(self) -> None:
        self._retry_scheduled = False
        if self.crashed or not self._parked:
            return
        primary = self.group.instance(self.primary_id)
        if primary.crashed or not primary.live or not primary.is_primary():
            self._schedule_park_retry()
            return
        parked, self._parked = self._parked, []
        for spec, on_done, issued_at in parked:
            # Re-route with the original issue time: if *this* site was
            # promoted the update now executes locally (no forwarding
            # hop), and either way the client's failover wait stays in
            # the recorded latency.
            self._route_update(spec, on_done, issued_at)

    # ------------------------------------------------------------------
    # TerminationProtocol (called from the primary's server processes)
    # ------------------------------------------------------------------
    def submit(self, tx: Transaction) -> Signal:
        """Atomically broadcast the committing transaction's write-set.

        Marshaling and the multicast run as a real protocol job charged
        to this site's CPU — the passive protocol's Figure 6(a) share.
        Passive replication ships no read sets."""
        outcome, payload = open_commit_request(self, tx, ())
        if payload:
            self.stats["submitted"] += 1
            self.stats["ws_bytes_broadcast"] += len(payload)
            self.multicast(payload)
        return outcome

    # ------------------------------------------------------------------
    # total-order delivery (runs inside the real receive job)
    # ------------------------------------------------------------------
    def _on_deliver(self, global_seq: int, origin: int, payload: bytes) -> None:
        if self.crashed:
            return
        request = unmarshal_request_cached(payload)
        # Total order *is* the commit order: every operational site
        # counts deliveries identically, no certification step.
        self._next_commit_seq += 1
        commit_seq = self._next_commit_seq
        self.stats["sequenced"] += 1
        self.log_commit(commit_seq, request.tx_id)
        if request.origin == self.site_id:
            self._resolve_local(request, True, commit_seq)
        else:
            self.stats["backup_applies"] += 1
            self._applies_in_flight += 1
            self._apply_remote(request, commit_seq)

    # ------------------------------------------------------------------
    # failover
    # ------------------------------------------------------------------
    def _on_view_change(self, view_id: int, members: Tuple[int, ...]) -> None:
        new_primary = min(members)
        if new_primary != self.primary_id:
            self.primary_id = new_primary
            self.stats["failovers"] += 1
        if self._parked:
            self._flush_parked()

    # ------------------------------------------------------------------
    def _on_applied(self, tx: Transaction, global_seq: int) -> None:
        super()._on_applied(tx, global_seq)
        if tx.remote:
            self._applies_in_flight -= 1
            if self._applies_in_flight == 0 and self._held:
                held, self._held = self._held, []
                for spec, on_done, issued_at in held:
                    self._execute_update(spec, on_done, issued_at)

    def protocol_stats(self) -> Dict[str, int]:
        return dict(self.stats)


def build(ctx: ProtocolContext) -> PrimaryCopyReplica:
    return PrimaryCopyReplica(
        ctx.site_id,
        ctx.server,
        ctx.gcs,
        ctx.group,
        link_latency=LAN_LINK_LATENCY,
    )
