"""The simulated database server (paper §3.1).

A server is a scheduler over a collection of resources — CPUs, storage —
plus a concurrency-control policy.  Transactions are driven as generator
processes: each operation (fetch / process / write-back) is scheduled on
the corresponding resource, the profiled processing times having been
obtained from a real engine.  When a commit operation is reached the
transaction enters the distributed termination protocol; certification is
real code running under the centralized runtime, so the server only sees
an asynchronous outcome.

Remotely initiated (certified) transactions are applied through
:meth:`DatabaseServer.apply_remote`: locks are acquired before writing to
disk, preempting local transactions that hold them — those would abort in
certification anyway.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from ..core.cpu import CpuPool
from ..core.kernel import Entity, Signal, Simulator
from ..core.metrics import MetricsCollector, TxRecord
from .lock import GRANTED, PREEMPTED, WW_ABORTED, LockManager, LockRequest
from .storage import Storage
from .transactions import (
    OpKind,
    Outcome,
    Transaction,
    TransactionSpec,
    TxStatus,
)

__all__ = [
    "DatabaseServer",
    "TerminationProtocol",
    "LocalTermination",
    "WatermarkTracker",
]

# Enum members bound once, as module globals (see repro.db.transactions).
_FETCH, _PROCESS, _COMMIT = OpKind.FETCH, OpKind.PROCESS, Outcome.COMMIT
_EXECUTING, _COMMITTING = TxStatus.EXECUTING, TxStatus.COMMITTING
_APPLYING, _COMMITTED = TxStatus.APPLYING, TxStatus.COMMITTED
_ABORTED = TxStatus.ABORTED


class TerminationProtocol:
    """What the server needs from the distributed termination procedure.

    The replicated implementation (:class:`repro.dbsm.replica.Replica`)
    multicasts the transaction's data and certifies on delivery; the
    centralized stand-in below commits immediately.  Either way the
    server receives a signal fired with an :class:`Outcome`.
    """

    def submit(self, tx: Transaction) -> Signal:
        """Start termination for ``tx``; the signal fires with Outcome."""
        raise NotImplementedError

    def applied_watermark(self) -> int:
        """Highest global sequence number g such that every committed
        transaction with sequence <= g has been fully applied locally.
        New transactions snapshot this as their ``start_seq``."""
        raise NotImplementedError


class LocalTermination(TerminationProtocol):
    """Centralized termination: no replication, every update commits.

    Used for the 1/3/6-CPU single-site baselines of §5.1, where there is
    no certification and no group communication.
    """

    def __init__(self, sim: Simulator):
        self.sim = sim
        self._next_seq = 0
        self._watermark_tracker = WatermarkTracker()

    def submit(self, tx: Transaction) -> Signal:
        self._next_seq += 1
        tx.global_seq = self._next_seq
        return self.sim.fired_signal(_COMMIT)

    def applied_watermark(self) -> int:
        return self._watermark_tracker.watermark

    def on_applied(self, tx: Transaction, global_seq: int) -> None:
        """The server's ``on_applied`` hook of a centralized site."""
        self._watermark_tracker.mark(global_seq)


class WatermarkTracker:
    """Advances a contiguous high-watermark over out-of-order completions.

    Shared by every termination protocol: committed sequence numbers are
    marked as their transactions finish applying (possibly out of
    order), and ``watermark`` is the highest ``g`` such that everything
    up to ``g`` has been applied — the ``start_seq`` snapshot new
    transactions take."""

    def __init__(self) -> None:
        self.watermark = 0
        self._pending: set = set()

    def mark(self, seq: int) -> None:
        self._pending.add(seq)
        while self.watermark + 1 in self._pending:
            self._pending.discard(self.watermark + 1)
            self.watermark += 1


class DatabaseServer(Entity):
    """One database site: CPUs + storage + locks + transaction driver."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        cpus: CpuPool,
        storage: Storage,
        locks: Optional[LockManager] = None,
        termination: Optional[TerminationProtocol] = None,
        metrics: Optional[MetricsCollector] = None,
    ):
        super().__init__(sim, name)
        self.cpus = cpus
        self.storage = storage
        self.locks = locks or LockManager(sim, f"{name}.locks")
        self.termination = termination or LocalTermination(sim)
        self.metrics = metrics or MetricsCollector()
        self.stats = {
            "local_committed": 0,
            "local_aborted": 0,
            "remote_applied": 0,
        }
        #: Invoked with (tx, global_seq) whenever a certified transaction
        #: (local or remote) finishes applying — the replica uses this to
        #: advance the applied watermark and the commit log.
        self.on_applied: Optional[Callable[[Transaction, int], None]] = None
        if isinstance(self.termination, LocalTermination):
            self.on_applied = self.termination.on_applied

    # ------------------------------------------------------------------
    # local transactions (issued by clients attached to this site)
    # ------------------------------------------------------------------
    def submit(
        self,
        spec: TransactionSpec,
        on_done: Optional[Callable[[Transaction], None]] = None,
        submitted_at: Optional[float] = None,
    ) -> Transaction:
        """Start executing ``spec`` on behalf of a local client.

        ``on_done`` is called once, with the finished transaction, after
        commit or abort — the client model uses it to unblock.
        ``submitted_at`` backdates the transaction's recorded submission
        time — protocols that route requests over the network pass the
        instant the client issued the request, so transit time counts
        toward the measured latency."""
        tx = Transaction(spec, self.name)
        self.sim.process(
            self._run_local(tx, on_done, submitted_at), name=f"tx{tx.tx_id}"
        )
        return tx

    def _run_local(self, tx: Transaction, on_done, submitted_at=None):
        # Fields, not the properties ``Entity.now``, ``readonly`` and
        # ``Signal.fired``: each is a call, on every transaction.
        spec = tx.spec
        sim = self.sim
        tx.submit_time = sim._now if submitted_at is None else submitted_at
        tx.status = _EXECUTING
        tx.start_seq = self.termination.applied_watermark()

        preempted = False
        request: Optional[LockRequest] = None

        # -- atomic lock acquisition over the (pre-known) write set -----
        if spec.write_set:
            acquire_signal = Signal(sim)

            def on_lock_event(event: str) -> None:
                nonlocal preempted
                if not acquire_signal._fired:
                    acquire_signal.fire(event)
                elif event == PREEMPTED:
                    preempted = True

            request = self.locks.acquire(tx, on_lock_event)
            event = yield acquire_signal
            if event == WW_ABORTED:
                self._finish_abort(tx, request, "ww-conflict", on_done)
                return
            assert event == GRANTED

        # -- execute the operation sequence ------------------------------
        for op in spec.operations:
            if preempted:
                self._finish_abort(tx, request, "preempted", on_done)
                return
            if op.kind is _FETCH:
                yield self.storage.read(op.nbytes)
            elif op.kind is _PROCESS:
                yield self._cpu_job(op.cpu_time)
            else:  # WRITE: private version, applied at commit
                continue
        if preempted:
            self._finish_abort(tx, request, "preempted", on_done)
            return
        if spec.intrinsic_abort:
            # The application rolls back at the end of execution (e.g.
            # TPC-C's invalid-item neworders); no certification happens.
            self._finish_abort(tx, request, "intrinsic", on_done)
            return

        # -- distributed termination -------------------------------------
        if not spec.write_set:
            # Read-only transactions commit locally: commit costs CPU but
            # no I/O and no certification (§4.1, §5.1).
            yield self._cpu_job(spec.commit_cpu)
            tx.status = _COMMITTED
            tx.end_time = sim._now
            self._record(tx, "commit", on_done)
            return

        tx.status = _COMMITTING
        tx.certify_submit_time = sim._now
        outcome_signal = self.termination.submit(tx)
        outcome = yield outcome_signal
        tx.certify_end_time = sim._now

        if outcome is not _COMMIT:
            reason = "preempted" if preempted else "certification"
            self._finish_abort(tx, request, reason, on_done)
            return
        assert not preempted, (
            "a preempted transaction certified COMMIT — write sets must "
            "be covered by read sets for conflicting classes"
        )

        # -- apply: finish writing, then release locks (§3.1) -------------
        tx.status = _APPLYING
        if spec.commit_sectors > 0:
            yield self.storage.write_sectors(spec.commit_sectors)
        yield self._cpu_job(spec.commit_cpu)
        if request is not None:
            self.locks.release_commit(request)
        tx.status = _COMMITTED
        tx.end_time = sim._now
        self.stats["local_committed"] += 1
        if self.on_applied is not None:
            self.on_applied(tx, tx.global_seq)
        self._record(tx, "commit", on_done)

    # ------------------------------------------------------------------
    # remote transactions (already certified elsewhere in total order)
    # ------------------------------------------------------------------
    def apply_remote(self, tx: Transaction) -> Signal:
        """Apply a certified remote transaction; returns a completion
        signal.  Must be called in certification order."""
        done = Signal(self.sim)
        self.sim.process(self._run_remote(tx, done), name=f"remote{tx.tx_id}")
        return done

    def _run_remote(self, tx: Transaction, done: Signal):
        spec = tx.spec
        tx.status = _APPLYING
        if spec.write_set:
            granted = Signal(self.sim)
            request = self.locks.acquire_remote(tx, granted.fire)
            event = yield granted
            assert event == GRANTED
        else:
            request = None
        if spec.commit_sectors > 0:
            yield self.storage.write_sectors(spec.commit_sectors)
        yield self._cpu_job(spec.commit_cpu)
        if request is not None:
            self.locks.release_commit(request)
        tx.status = _COMMITTED
        tx.end_time = self.sim._now
        self.stats["remote_applied"] += 1
        if self.on_applied is not None:
            self.on_applied(tx, tx.global_seq)
        done.fire(None)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _cpu_job(self, duration: float) -> Signal:
        if duration <= 0:
            return self.sim.fired_signal()
        signal = Signal(self.sim)
        self.cpus.submit_sim(duration, signal.fire)
        return signal

    def _finish_abort(
        self,
        tx: Transaction,
        request: Optional[LockRequest],
        reason: str,
        on_done,
    ) -> None:
        if request is not None:
            self.locks.release_abort(request)
        tx.status = _ABORTED
        tx.abort_reason = reason
        tx.end_time = self.sim._now
        self.stats["local_aborted"] += 1
        self._record(tx, "abort", on_done)

    def _record(self, tx: Transaction, outcome: str, on_done) -> None:
        # From certification submission to outcome; 0.0 unless both happened.
        submitted, ended = tx.certify_submit_time, tx.certify_end_time
        certification = 0.0 if submitted < 0 or ended < 0 else ended - submitted
        self.metrics.record(
            TxRecord(
                tx_id=tx.tx_id,
                tx_class=tx.spec.tx_class,
                site=self.name,
                submit_time=tx.submit_time,
                end_time=tx.end_time,
                outcome=outcome,
                readonly=not tx.spec.write_set,
                certification_latency=certification,
                abort_reason=tx.abort_reason,
            )
        )
        if on_done is not None:
            on_done(tx)
