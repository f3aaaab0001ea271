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

from typing import Dict, Tuple

from ..core.kernel import Signal
from ..db.server import DatabaseServer
from ..db.transactions import Transaction
from ..gcs.stack import GroupCommunication
from ..protocols.base import ReplicationProtocol
from .certification import Certifier
from .marshal import CommitRequest, marshal_request, unmarshal_request_cached

__all__ = ["Replica", "open_commit_request"]


def open_commit_request(
    protocol: ReplicationProtocol,
    tx: Transaction,
    read_set: Tuple[int, ...],
) -> Tuple[Signal, bytes]:
    """The first half of a termination protocol's ``submit``.

    Gathers the committing transaction's data into a
    :class:`CommitRequest`, registers the pending outcome under
    ``protocol._pending`` and marshals the request; the caller
    multicasts the payload (:meth:`ReplicationProtocol.multicast`) to
    whichever groups must order it.  Shared by every protocol that
    ships write-sets through the GCS; ``read_set`` is what differs
    (dbsm certifies reads, primary-copy ships none).

    Returns ``(outcome signal, payload)``; an empty payload means the
    site is crashed (or not yet live after a rejoin): nothing was
    registered and the signal will never fire (clients of a dead site
    block).
    """
    outcome = Signal(protocol.server.sim)
    if protocol.crashed or not protocol.live:
        return outcome, b""
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
    return outcome, marshal_request(request)


class Replica(ReplicationProtocol):
    """One site of the replicated database (table name ``"dbsm"``)."""

    name = "dbsm"

    def __init__(
        self,
        site_id: int,
        server: DatabaseServer,
        gcs: GroupCommunication,
    ):
        super().__init__(site_id, server, gcs)
        self.certifier = Certifier(charge=gcs.runtime.charge)
        self.stats = {
            "submitted": 0,
            "certified_local": 0,
            "certified_remote": 0,
            "remote_applies": 0,
        }

    # ------------------------------------------------------------------
    # state transfer (recovery/rejoin)
    # ------------------------------------------------------------------
    def protocol_snapshot(self) -> Dict[str, object]:
        """Certification position: the commit counter and the trailing
        committed-write-set log the joiner certifies its replayed
        backlog (and later local transactions) against."""
        return {"certifier": self.certifier.snapshot_state()}

    def install_protocol_snapshot(self, snap: Dict[str, object]) -> None:
        self.certifier.restore_state(snap["certifier"])

    # ------------------------------------------------------------------
    # TerminationProtocol (called from server transaction processes)
    # ------------------------------------------------------------------
    def submit(self, tx: Transaction) -> Signal:
        """Gather the transaction's data and atomically multicast it."""
        outcome, payload = open_commit_request(self, tx, tx.spec.read_set)
        if payload:
            self.stats["submitted"] += 1
            self.multicast(payload)
        return outcome

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
            if self._resolve_local(request, committed, commit_seq):
                self.stats["certified_local"] += 1
        elif committed:
            self.stats["certified_remote"] += 1
            self.stats["remote_applies"] += 1
            self._apply_remote(request, commit_seq)

    def protocol_stats(self) -> Dict[str, int]:
        """Certifier counters merged with the replica's own."""
        return {**self.certifier.stats, **self.stats}
