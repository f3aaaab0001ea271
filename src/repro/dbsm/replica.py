"""The DBSM replica: database server + certification + group communication.

This is the distributed termination protocol of §3.3 end to end.  A
transaction entering the committing stage has its read/write identifiers
and value sizes marshaled and atomically multicast; upon total-order
delivery every replica certifies it identically.  The origin replica
resolves the waiting server process with the outcome; the others apply
the writes as a remote transaction (locks acquired before writing, local
holders preempted — they would fail certification anyway).

Certification runs inside the real receive job, so its CPU cost — the
merge traversal over read/write sets — lands on the simulated CPU where
it competes with transaction processing (Figure 6(a)'s protocol share).
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from ..core.csrt import SiteRuntime
from ..core.kernel import Signal
from ..core.safety import CommitLog
from ..db.server import DatabaseServer, WatermarkTracker
from ..db.transactions import Outcome, Transaction
from ..gcs.stack import GroupCommunication
from ..protocols.base import ReplicationProtocol
from .certification import Certifier
from .marshal import CommitRequest, marshal_request, unmarshal_request_cached

__all__ = ["Replica", "broadcast_commit_request"]

#: CPU fraction of the profiled commit cost charged when applying a
#: remote transaction: the apply path only installs already-computed
#: write values and runs the commit record — no parsing, planning or
#: execution.  Calibrated so 6-site CPU usage tracks the 6-CPU
#: centralized curve as in Figure 6(a).
REMOTE_APPLY_CPU_FACTOR = 0.4


def broadcast_commit_request(
    protocol: ReplicationProtocol,
    tx: Transaction,
    read_set: Tuple[int, ...],
) -> Tuple[Signal, int]:
    """The broadcast side of a termination protocol's ``submit``.

    Gathers the committing transaction's data into a
    :class:`CommitRequest`, registers the pending outcome under
    ``protocol._pending``, and atomically multicasts — marshaling runs
    as a real protocol job charged to the site's CPU.  Shared by every
    protocol that ships write-sets through the GCS; ``read_set`` is what
    differs (dbsm certifies reads, primary-copy ships none).

    Returns ``(outcome signal, payload bytes)``; zero bytes means the
    site is crashed (or not yet live after a rejoin) and the signal will
    never fire (clients of a dead site block).
    """
    outcome = Signal(protocol.server.sim, latch=True)
    if protocol.crashed or not protocol.live:
        return outcome, 0
    spec = tx.spec
    request = CommitRequest(
        origin=protocol.site_id,
        tx_id=tx.tx_id,
        start_seq=tx.start_seq,
        tx_class=spec.tx_class,
        read_set=read_set,
        write_set=spec.write_set,
        write_bytes=spec.write_bytes(),
        commit_cpu=spec.commit_cpu,
        commit_sectors=spec.commit_sectors,
    )
    protocol._pending[tx.tx_id] = (tx, outcome)
    payload = marshal_request(request)
    protocol.runtime.submit_real(
        protocol.gcs.multicast, tag="marshal", nbytes=len(payload), args=(payload,)
    )
    return outcome, len(payload)


class Replica(ReplicationProtocol):
    """One site of the replicated database (registry name ``"dbsm"``)."""

    name = "dbsm"

    def __init__(
        self,
        site_id: int,
        server: DatabaseServer,
        gcs: GroupCommunication,
        site_runtime: SiteRuntime,
        commit_log: Optional[CommitLog] = None,
    ):
        self.site_id = site_id
        self.server = server
        self.gcs = gcs
        self.runtime = site_runtime
        self.certifier = Certifier(charge=site_runtime.rt_charge)
        self.commit_log = commit_log or CommitLog(site=server.name)
        self.crashed = False
        self._watermark = WatermarkTracker()
        #: tx_id -> (transaction, outcome signal) awaiting certification.
        self._pending: Dict[int, Tuple[Transaction, Signal]] = {}
        self.stats = {
            "submitted": 0,
            "certified_local": 0,
            "certified_remote": 0,
            "remote_applies": 0,
        }
        server.termination = self
        server.on_applied = self._on_applied
        gcs.on_deliver = self._on_deliver
        gcs.snapshot_provider = self.state_snapshot
        gcs.snapshot_installer = self.install_snapshot

    # ------------------------------------------------------------------
    # state transfer (recovery/rejoin)
    # ------------------------------------------------------------------
    def reset_protocol_state(self, was_crashed: bool) -> None:
        self._pending.clear()

    def protocol_snapshot(self) -> Dict[str, object]:
        """Certification position: the commit counter and the trailing
        committed-write-set log the joiner certifies its replayed
        backlog (and later local transactions) against."""
        return {"certifier": self.certifier.snapshot_state()}

    def install_protocol_snapshot(self, snap: Dict[str, object]) -> None:
        self.certifier.restore_state(snap["certifier"])
        # Everything in the adopted commit log counts as applied: the
        # snapshot *is* the applied state.
        self._watermark = WatermarkTracker()
        self._watermark.watermark = self.certifier.next_commit_seq

    # ------------------------------------------------------------------
    # TerminationProtocol (called from server transaction processes)
    # ------------------------------------------------------------------
    def submit(self, tx: Transaction) -> Signal:
        """Gather the transaction's data and atomically multicast it.

        Marshaling and the multicast run as a real protocol job charged
        to this site's CPU."""
        outcome, nbytes = broadcast_commit_request(self, tx, tx.spec.read_set)
        if nbytes:
            self.stats["submitted"] += 1
        return outcome

    def applied_watermark(self) -> int:
        return self._watermark.watermark

    # ------------------------------------------------------------------
    # total-order delivery (runs inside the real receive job)
    # ------------------------------------------------------------------
    def _on_deliver(self, global_seq: int, origin: int, payload: bytes) -> None:
        if self.crashed:
            return
        request = unmarshal_request_cached(payload)
        committed, commit_seq = self.certifier.certify(request)
        if committed:
            self.log_commit(commit_seq, request.tx_id)
        if request.origin == self.site_id:
            self._resolve_local(request, committed, commit_seq)
        elif committed:
            self._apply_remote(request, commit_seq)

    def _resolve_local(
        self, request: CommitRequest, committed: bool, commit_seq: int
    ) -> None:
        entry = self._pending.pop(request.tx_id, None)
        if entry is None:
            return
        tx, outcome_signal = entry
        self.stats["certified_local"] += 1
        if committed:
            tx.global_seq = commit_seq
            value = Outcome.COMMIT
        else:
            value = Outcome.ABORT
        # Fire through the runtime so the wake-up lands after the CPU
        # time consumed so far by this delivery job (Figure 1(b)).
        self.runtime.rt_schedule(0.0, outcome_signal.fire, value)

    def _apply_remote(self, request: CommitRequest, commit_seq: int) -> None:
        self.stats["certified_remote"] += 1
        spec = request.remote_spec(REMOTE_APPLY_CPU_FACTOR)
        tx = Transaction(spec, self.server.name, remote=True)
        tx.global_seq = commit_seq
        tx.submit_time = self.runtime.rt_now()
        self.stats["remote_applies"] += 1
        self.runtime.rt_schedule(0.0, self.server.apply_remote, tx)

    # ------------------------------------------------------------------
    def _on_applied(self, tx: Transaction, global_seq: int) -> None:
        if global_seq > 0:
            self._watermark.mark(global_seq)

    def protocol_stats(self) -> Dict[str, int]:
        """Certifier counters merged with the replica's own."""
        return {**self.certifier.stats, **self.stats}
