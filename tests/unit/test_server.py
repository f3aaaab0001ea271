"""Unit tests for the database server's transaction lifecycle."""

import pytest

from repro.core.cpu import CpuPool
from repro.core.kernel import Signal, Simulator
from repro.db.server import DatabaseServer, LocalTermination
from repro.db.storage import Storage
from repro.db.transactions import (
    Operation,
    OpKind,
    Outcome,
    Transaction,
    TransactionSpec,
    TxStatus,
)


def build_server(cpus=1):
    sim = Simulator()
    pool = CpuPool(sim, cpus)
    storage = Storage(sim)
    server = DatabaseServer(sim, "site0", pool, storage)
    return sim, server


def update_spec(writes=(10,), cpu=5e-3, sectors=2, intrinsic_abort=False):
    return TransactionSpec(
        tx_class="update",
        operations=(
            Operation(OpKind.FETCH, item=1, nbytes=100),
            Operation(OpKind.PROCESS, cpu_time=cpu),
        ),
        read_set=tuple(sorted(writes)),
        write_set=tuple(sorted(writes)),
        write_sizes={w: 100 for w in writes},
        commit_cpu=1e-3,
        commit_sectors=sectors,
        intrinsic_abort=intrinsic_abort,
    )


def readonly_spec(cpu=5e-3):
    return TransactionSpec(
        tx_class="ro",
        operations=(Operation(OpKind.PROCESS, cpu_time=cpu),),
        read_set=(),
        write_set=(),
        commit_cpu=1e-3,
        commit_sectors=0,
    )


class TestLocalCommit:
    def test_update_commits_through_local_termination(self):
        sim, server = build_server()
        done = []
        server.submit(update_spec(), on_done=done.append)
        sim.run()
        assert len(done) == 1
        tx = done[0]
        assert tx.status is TxStatus.COMMITTED
        assert tx.global_seq == 1
        assert server.stats["local_committed"] == 1

    def test_readonly_commit_no_disk(self):
        sim, server = build_server()
        done = []
        server.submit(readonly_spec(), on_done=done.append)
        sim.run()
        assert done[0].status is TxStatus.COMMITTED
        assert server.storage.stats.sectors_written == 0

    def test_update_writes_commit_sectors(self):
        sim, server = build_server()
        server.submit(update_spec(sectors=3))
        sim.run()
        assert server.storage.stats.sectors_written == 3

    def test_latency_includes_cpu_and_commit(self):
        sim, server = build_server()
        done = []
        server.submit(update_spec(cpu=5e-3), on_done=done.append)
        sim.run()
        assert done[0].latency >= 6e-3  # process + commit cpu

    def test_intrinsic_abort_rolls_back(self):
        sim, server = build_server()
        done = []
        server.submit(update_spec(intrinsic_abort=True), on_done=done.append)
        sim.run()
        tx = done[0]
        assert tx.status is TxStatus.ABORTED
        assert tx.abort_reason == "intrinsic"
        assert server.storage.stats.sectors_written == 0

    def test_metrics_recorded(self):
        sim, server = build_server()
        server.submit(update_spec())
        server.submit(readonly_spec())
        sim.run()
        assert len(server.metrics.records) == 2
        classes = {r.tx_class for r in server.metrics.records}
        assert classes == {"update", "ro"}

    def test_watermark_advances(self):
        sim, server = build_server()
        server.submit(update_spec(writes=(1,)))
        server.submit(update_spec(writes=(2,)))
        sim.run()
        assert server.termination.applied_watermark() == 2


class TestConflicts:
    def test_waiter_aborts_when_holder_commits(self):
        sim, server = build_server()
        done = []
        server.submit(update_spec(writes=(5,), cpu=10e-3), on_done=done.append)
        sim.schedule(
            1e-3, server.submit, update_spec(writes=(5,), cpu=1e-3), done.append
        )
        sim.run()
        outcomes = {tx.tx_id: tx.status for tx in done}
        statuses = sorted(s.value for s in outcomes.values())
        assert statuses == ["aborted", "committed"]
        aborted = [tx for tx in done if tx.status is TxStatus.ABORTED][0]
        assert aborted.abort_reason == "ww-conflict"

    def test_disjoint_writes_both_commit(self):
        sim, server = build_server(cpus=2)
        done = []
        server.submit(update_spec(writes=(1,)), on_done=done.append)
        server.submit(update_spec(writes=(2,)), on_done=done.append)
        sim.run()
        assert all(tx.status is TxStatus.COMMITTED for tx in done)


class TestRemoteApply:
    def test_remote_apply_commits_and_marks(self):
        sim, server = build_server()
        spec = update_spec(writes=(9,))
        tx = Transaction(spec, "site0", remote=True)
        tx.global_seq = 1
        applied = []
        server.on_applied = lambda t, seq: applied.append(seq)
        server.apply_remote(tx)
        sim.run()
        assert tx.status is TxStatus.COMMITTED
        assert applied == [1]
        assert server.stats["remote_applied"] == 1

    def test_remote_apply_preempts_local_executing(self):
        sim, server = build_server()
        done = []
        server.submit(update_spec(writes=(5,), cpu=50e-3), on_done=done.append)

        def arrive_remote():
            spec = update_spec(writes=(5,))
            tx = Transaction(spec, "site0", remote=True)
            tx.global_seq = 1
            server.apply_remote(tx)

        sim.schedule(5e-3, arrive_remote)
        sim.run()
        assert done[0].status is TxStatus.ABORTED
        assert done[0].abort_reason == "preempted"
        assert server.stats["remote_applied"] == 1


class TestCustomTermination:
    def test_certification_abort_path(self):
        class AbortAll(LocalTermination):
            def submit(self, tx):
                signal = Signal(self.sim)
                self.sim.schedule(0.0, signal.fire, Outcome.ABORT)
                return signal

        sim = Simulator()
        pool = CpuPool(sim, 1)
        storage = Storage(sim)
        server = DatabaseServer(
            sim, "s", pool, storage, termination=AbortAll(sim)
        )
        done = []
        server.submit(update_spec(), on_done=done.append)
        sim.run()
        assert done[0].status is TxStatus.ABORTED
        assert done[0].abort_reason == "certification"
        assert server.metrics.records[0].certification_latency >= 0.0


class TestRecord:
    def test_certification_latency_is_recorded(self):
        """The record carries the time from certification submission to
        outcome, and 0.0 for a transaction without an outcome."""
        sim, server = build_server()
        tx = Transaction(update_spec(), "site0")
        tx.submit_time = 1.0
        tx.end_time = 1.5
        server._record(tx, "abort", None)
        tx.certify_submit_time = 1.1
        server._record(tx, "abort", None)
        tx.certify_end_time = 1.3
        server._record(tx, "commit", None)
        assert [r.certification_latency for r in server.metrics.records] == [
            0.0,
            0.0,
            pytest.approx(0.2),
        ]
