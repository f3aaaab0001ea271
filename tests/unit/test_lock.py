"""Unit tests for the multi-version locking policy (paper §3.1)."""

import pytest

from repro.core.kernel import Simulator
from repro.db.lock import GRANTED, PREEMPTED, WW_ABORTED, LockManager
from repro.db.transactions import Operation, OpKind, Transaction, TransactionSpec, TxStatus


def make_tx(writes, remote=False, status=TxStatus.EXECUTING):
    spec = TransactionSpec(
        tx_class="t",
        operations=(Operation(OpKind.PROCESS, cpu_time=1e-3),),
        read_set=tuple(sorted(writes)),
        write_set=tuple(sorted(writes)),
    )
    tx = Transaction(spec, "site0", remote=remote)
    tx.status = status
    return tx


class Recorder:
    def __init__(self):
        self.events = []

    def __call__(self, event):
        self.events.append(event)


class TestAcquisition:
    def test_immediate_grant_when_free(self):
        sim = Simulator()
        locks = LockManager(sim)
        rec = Recorder()
        locks.acquire(make_tx([1, 2]), rec)
        sim.run()
        assert rec.events == [GRANTED]
        assert locks.stats["granted_immediate"] == 1

    def test_atomic_wait_until_all_free(self):
        sim = Simulator()
        locks = LockManager(sim)
        first, second = Recorder(), Recorder()
        r1 = locks.acquire(make_tx([1]), first)
        locks.acquire(make_tx([1, 2]), second)
        sim.run()
        assert second.events == []  # waiting on 1
        locks.release_abort(r1)
        sim.run()
        assert second.events == [GRANTED]
        assert locks.stats["granted_after_wait"] == 1

    def test_readonly_empty_write_set_grants(self):
        sim = Simulator()
        locks = LockManager(sim)
        rec = Recorder()
        locks.acquire(make_tx([]), rec)
        sim.run()
        assert rec.events == [GRANTED]

    def test_holder_of(self):
        sim = Simulator()
        locks = LockManager(sim)
        tx = make_tx([7])
        locks.acquire(tx, Recorder())
        assert locks.holder_of(7) is tx
        assert locks.holder_of(8) is None


class TestCommitRelease:
    def test_commit_aborts_conflicting_waiters(self):
        """First-updater-wins: the holder commits, waiters die (§3.1)."""
        sim = Simulator()
        locks = LockManager(sim)
        holder, waiter = Recorder(), Recorder()
        request = locks.acquire(make_tx([1]), holder)
        locks.acquire(make_tx([1]), waiter)
        sim.run()
        locks.release_commit(request)
        sim.run()
        assert waiter.events == [WW_ABORTED]
        assert locks.stats["ww_aborts"] == 1
        assert locks.held_count() == 0

    def test_commit_spares_unrelated_waiters(self):
        sim = Simulator()
        locks = LockManager(sim)
        h1, h2, waiter = Recorder(), Recorder(), Recorder()
        r1 = locks.acquire(make_tx([1]), h1)
        locks.acquire(make_tx([2]), h2)
        locks.acquire(make_tx([2]), waiter)  # waits on 2, not 1
        sim.run()
        locks.release_commit(r1)
        sim.run()
        assert waiter.events == []

    def test_abort_release_grants_next_waiter(self):
        sim = Simulator()
        locks = LockManager(sim)
        holder, w1, w2 = Recorder(), Recorder(), Recorder()
        request = locks.acquire(make_tx([1]), holder)
        locks.acquire(make_tx([1]), w1)
        locks.acquire(make_tx([1]), w2)
        sim.run()
        locks.release_abort(request)
        sim.run()
        assert w1.events == [GRANTED]
        assert w2.events == []  # still queued behind w1

    def test_release_of_waiting_request_removes_it(self):
        sim = Simulator()
        locks = LockManager(sim)
        holder, waiter = Recorder(), Recorder()
        locks.acquire(make_tx([1]), holder)
        waiting = locks.acquire(make_tx([1]), waiter)
        sim.run()
        locks.release_abort(waiting)  # client gave up while queued
        assert locks.waiting_count() == 0

    def test_partial_overlap_abort_cascade(self):
        sim = Simulator()
        locks = LockManager(sim)
        holder, waiter = Recorder(), Recorder()
        request = locks.acquire(make_tx([1, 2]), holder)
        locks.acquire(make_tx([2, 3]), waiter)
        sim.run()
        locks.release_commit(request)
        sim.run()
        assert waiter.events == [WW_ABORTED]
        # item 3 must not be left locked by the aborted waiter
        assert locks.holder_of(3) is None


class TestRemotePreemption:
    def test_remote_preempts_executing_local(self):
        sim = Simulator()
        locks = LockManager(sim)
        local, remote = Recorder(), Recorder()
        locks.acquire(make_tx([1]), local)
        sim.run()
        locks.acquire_remote(make_tx([1], remote=True), remote)
        sim.run()
        assert local.events == [GRANTED, PREEMPTED]
        assert remote.events == [GRANTED]
        assert locks.stats["preemptions"] == 1

    def test_remote_waits_for_applying_local(self):
        """Certified work is never preempted — it must finish writing."""
        sim = Simulator()
        locks = LockManager(sim)
        local, remote = Recorder(), Recorder()
        applying_tx = make_tx([1], status=TxStatus.EXECUTING)
        request = locks.acquire(applying_tx, local)
        sim.run()
        applying_tx.status = TxStatus.APPLYING
        locks.acquire_remote(make_tx([1], remote=True), remote)
        sim.run()
        assert remote.events == []
        locks.release_commit(request)
        sim.run()
        assert remote.events == [GRANTED]

    def test_remote_aborts_local_waiters_on_items(self):
        sim = Simulator()
        locks = LockManager(sim)
        holder, waiter, remote = Recorder(), Recorder(), Recorder()
        applying_tx = make_tx([1])
        locks.acquire(applying_tx, holder)
        locks.acquire(make_tx([1]), waiter)
        sim.run()
        applying_tx.status = TxStatus.APPLYING
        locks.acquire_remote(make_tx([1], remote=True), remote)
        sim.run()
        # the local waiter is doomed: the remote write will commit
        assert waiter.events == [WW_ABORTED]

    def test_remote_requests_queue_in_certification_order(self):
        sim = Simulator()
        locks = LockManager(sim)
        local, r1, r2 = Recorder(), Recorder(), Recorder()
        applying_tx = make_tx([1])
        request = locks.acquire(applying_tx, local)
        sim.run()
        applying_tx.status = TxStatus.APPLYING
        locks.acquire_remote(make_tx([1], remote=True), r1)
        locks.acquire_remote(make_tx([1], remote=True), r2)
        sim.run()
        locks.release_commit(request)
        sim.run()
        assert r1.events == [GRANTED]
        assert r2.events == []

    def test_remote_priority_over_local_waiters(self):
        sim = Simulator()
        locks = LockManager(sim)
        holder, local_w, remote = Recorder(), Recorder(), Recorder()
        applying_tx = make_tx([1])
        request = locks.acquire(applying_tx, holder)
        locks.acquire(make_tx([1, 2]), local_w)
        sim.run()
        applying_tx.status = TxStatus.APPLYING
        locks.acquire_remote(make_tx([1], remote=True), remote)
        sim.run()
        locks.release_commit(request)
        sim.run()
        assert remote.events == [GRANTED]

    def test_remote_remote_no_preemption(self):
        sim = Simulator()
        locks = LockManager(sim)
        r1, r2 = Recorder(), Recorder()
        tx1 = make_tx([1], remote=True)
        locks.acquire_remote(tx1, r1)
        sim.run()
        tx1.status = TxStatus.APPLYING
        locks.acquire_remote(make_tx([1], remote=True), r2)
        sim.run()
        assert r1.events == [GRANTED]
        assert r2.events == []

    def test_preemption_leftovers_wait_for_the_next_release(self):
        """Pins a known quirk (see the module docstring of db/lock.py):
        preempting a holder of {x, y} for a remote {x} frees y without a
        regrant pass, so a local waiter on {y} is granted only when the
        next release — of anything — runs one.  Granting it at once
        changes simulated results; that is a re-baselining PR's job."""
        sim = Simulator()
        locks = LockManager(sim)
        victim, waiter, bystander, remote = (Recorder() for _ in range(4))
        x, y, z = 1, 2, 3
        locks.acquire(make_tx([x, y]), victim)
        locks.acquire(make_tx([y]), waiter)
        unrelated = locks.acquire(make_tx([z]), bystander)
        sim.run()
        locks.acquire_remote(make_tx([x], remote=True), remote)
        sim.run()
        assert victim.events == [GRANTED, PREEMPTED]
        assert remote.events == [GRANTED]
        assert locks.holder_of(y) is None
        assert waiter.events == []  # y is free, the waiter still queued
        assert locks.waiting_count() == 1
        locks.release_abort(unrelated)
        sim.run()
        assert waiter.events == [GRANTED]
        assert locks.waiting_count() == 0
