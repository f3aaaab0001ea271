"""Unit tests for the centralized simulation runtime (Figure 1 semantics)."""

import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from helpers import RecordingSocket

from repro.core.clock import CpuCostModel
from repro.core.cpu import CpuPool, REAL_JOB
from repro.core.csrt import MEASURED, MODELED, SiteRuntime
from repro.core.faults import FaultInjector, FaultPlan, clock_drift
from repro.core.kernel import Simulator

#: What a timer callback (and a ``submit_real`` of default tag) costs
#: on entry.
ENTRY = CpuCostModel.cost(CpuCostModel.TIMER)


def make_runtime(mode=MODELED, interceptor=None, cpu_scale=1.0, on_send=None):
    """A runtime over one CPU and a :class:`RecordingSocket` that passes
    each datagram sent to ``on_send(dest, payload)``."""
    sim = Simulator()
    pool = CpuPool(sim, 1)
    runtime = SiteRuntime(
        sim,
        pool,
        RecordingSocket(on_send=on_send),
        mode=mode,
        interceptor=interceptor,
        cpu_scale=cpu_scale,
    )
    return sim, pool, runtime


def busy_for(seconds):
    """Spin the host CPU for ``seconds`` of wall time."""
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        pass


def real_busy_time(pool):
    return pool.cpus[0].busy_time[REAL_JOB]


def inside_the_runtime(sim, work):
    """Make every kernel ``call`` and ``schedule`` run ``work()`` first:
    code that real code reaches through ``send`` / ``schedule``.
    Returns the undo."""
    kernel = {"call": sim.call, "schedule": sim.schedule}

    def wrap(entry):
        def enter(delay, fn, *args):
            work()
            return entry(delay, fn, *args)

        return enter

    def undo():
        for name, entry in kernel.items():
            setattr(sim, name, entry)

    for name, entry in kernel.items():
        setattr(sim, name, wrap(entry))
    return undo


class TestRealJobExecution:
    def test_modeled_job_charges_entry_cost_plus_explicit(self):
        sim, pool, runtime = make_runtime()
        runtime.submit_real(lambda: runtime.charge(1e-3), tag=CpuCostModel.TIMER)
        sim.run()
        expected = 1e-3 + ENTRY
        assert pool.cpus[0].busy_time[REAL_JOB] == pytest.approx(expected)

    def test_measured_job_uses_wall_clock(self):
        sim, pool, runtime = make_runtime(mode=MEASURED)

        def spin():
            total = 0
            for i in range(20000):
                total += i
            return total

        runtime.submit_real(spin)
        sim.run()
        assert pool.cpus[0].busy_time[REAL_JOB] > 0

    def test_delta1_correction_on_scheduled_events(self):
        """δ′q = Δ1 + δq: events land after the CPU time consumed so far."""
        sim, _, runtime = make_runtime()
        fired = []

        def job():
            runtime.charge(2e-3)  # Δ1 = 2 ms (plus the 5 µs entry cost)
            runtime.schedule(5e-3, lambda: fired.append(sim.now))

        runtime.submit_real(job)
        sim.run()
        assert fired[0] >= 2e-3 + 5e-3 + ENTRY - 1e-12

    def test_now_includes_elapsed_job_time(self):
        sim, _, runtime = make_runtime()
        observed = []

        def job():
            runtime.charge(3e-3)
            observed.append(runtime.now())

        runtime.submit_real(job)
        sim.run()
        assert observed[0] >= 3e-3

    def test_now_outside_job_is_sim_now(self):
        sim, _, runtime = make_runtime()
        sim.schedule(1.0, lambda: None)
        sim.run()
        assert runtime.now() == sim.now

    def test_delayed_submission(self):
        sim, _, runtime = make_runtime()
        fired = []
        runtime.submit_real(lambda: fired.append(sim.now), delay=0.5)
        sim.run()
        assert fired and fired[0] >= 0.5

    def test_on_complete_called_after_duration(self):
        sim, _, runtime = make_runtime()
        completions = []
        runtime.submit_real(
            lambda: runtime.charge(1e-3),
            on_complete=lambda: completions.append(sim.now),
        )
        sim.run()
        assert completions[0] >= 1e-3

    def test_scheduled_callback_cancel(self):
        sim, _, runtime = make_runtime()
        fired = []
        handle = runtime.schedule(0.5, fired.append, 1)
        handle.cancel()
        sim.run()
        assert fired == []

    def test_callback_cancelled_while_its_fire_event_waits_does_not_run(self):
        """A protocol timer is a kernel event: a cancel that comes later
        — from another event, or from inside a running real job — finds
        it in the heap, and it must not run."""
        sim, pool, runtime = make_runtime()
        fired = []
        by_event = runtime.schedule(0.5, fired.append, "event")
        by_job = runtime.schedule(0.5, fired.append, "job")
        kept = runtime.schedule(0.5, fired.append, "kept")
        sim.schedule(0.3, by_event.cancel)
        runtime.submit_real(by_job.cancel, delay=0.4)
        sim.run()
        assert fired == ["kept"]
        # The cancelled timers never became jobs: the canceller and the
        # survivor are the only real code that ran.
        assert runtime.stats["real_jobs"] == 2
        assert pool.cpus[0].jobs_completed[REAL_JOB] == 2

    def test_cancelled_timer_is_not_an_executed_event(self):
        """A cancelled timer leaves the heap by the kernel's lazy
        deletion: it neither runs nor counts as an executed event."""
        sim, _, runtime = make_runtime()
        fired = []
        runtime.schedule(0.5, fired.append, "kept")
        runtime.schedule(0.5, fired.append, "cancelled").cancel()
        sim.run()
        assert fired == ["kept"]
        # The kept timer's event; its job runs inline on the idle CPU
        # and completes lazily, with no event of its own.
        assert sim.events_executed == 1
        assert sim.pending() == 0

    def test_args_reach_the_job_without_a_closure(self):
        sim, _, runtime = make_runtime()
        got = []
        runtime.submit_real(lambda a, b: got.append((a, b)), args=(1, "x"))
        sim.run()
        assert got == [(1, "x")]


def spin(iterations=20000):
    total = 0
    for i in range(iterations):
        total += i
    return total


class TestMeasuredModeThroughTheFastLane:
    """MEASURED jobs take the same inline lane and the same ``_run``."""

    def test_delta1_correction_on_send_and_schedule(self):
        sent, fired = [], []
        sim, pool, runtime = make_runtime(
            mode=MEASURED, on_send=lambda dest, payload: sent.append(sim.now)
        )

        def job():
            spin()  # Δ1 > 0, measured
            runtime.send("dest", b"x")
            runtime.schedule(1e-3, lambda: fired.append(sim.now))

        runtime.submit_real(job)  # idle CPU: runs inline, right here
        assert runtime.stats["real_jobs"] == 1
        assert sent == [] and fired == []  # both deferred by Δ1
        sim.run()
        assert 0.0 < sent[0] < fired[0]
        assert fired[0] >= 1e-3 + sent[0]
        # The CPU was busy for the whole measured duration, which
        # includes the work after the send.
        assert pool.cpus[0].busy_time[REAL_JOB] >= sent[0]

    def test_timer_is_paused_while_real_code_is_inside_the_runtime(self):
        """``send`` and ``schedule`` reach the kernel (``sim.call``
        and ``sim.schedule``) with the job's clock frozen: host time
        spent there is not billed."""
        sim, _, runtime = make_runtime(mode=MEASURED)
        readings = []

        def slow():
            readings.append(runtime.now())
            spin()
            readings.append(runtime.now())

        def job():
            spin()
            undo = inside_the_runtime(sim, slow)
            try:
                runtime.send("dest", b"x")
                runtime.schedule(1e-3, lambda: None)
            finally:
                undo()
            before = runtime.now()
            spin()
            assert runtime.now() > before  # resumed on return

        runtime.submit_real(job)
        sim.run()
        assert len(readings) == 4
        assert readings[0] == readings[1]  # paused inside send
        assert readings[2] == readings[3]  # paused inside schedule


class TestMeasuredJobClock:
    """A MEASURED job is charged the host time its code spends, scaled by
    ``cpu_scale``, with the runtime's own time left out."""

    def test_job_is_charged_the_wall_time_it_spends(self):
        sim, pool, runtime = make_runtime(mode=MEASURED)
        runtime.submit_real(busy_for, args=(0.02,))
        sim.run()
        assert 0.015 < real_busy_time(pool) < 0.2

    def test_time_inside_the_runtime_is_excluded(self):
        sim, pool, runtime = make_runtime(
            mode=MEASURED, on_send=lambda dest, payload: busy_for(0.01)
        )

        def job():
            undo = inside_the_runtime(sim, lambda: busy_for(0.01))
            try:
                runtime.send("dest", b"x")
                runtime.schedule(1e-3, lambda: None)
            finally:
                undo()

        runtime.submit_real(job)
        sim.run()
        assert 0.0 < real_busy_time(pool) < 0.01  # ≥ 0.02 s spent inside

    def test_time_is_scaled_by_cpu_scale(self):
        busy = []
        for scale in (1.0, 4.0):
            sim, pool, runtime = make_runtime(mode=MEASURED, cpu_scale=scale)
            runtime.submit_real(busy_for, args=(0.01,))
            sim.run()
            busy.append(real_busy_time(pool))
        assert busy[1] > busy[0] * 2

    def test_charge_is_ignored(self):
        sim, pool, runtime = make_runtime(mode=MEASURED)
        runtime.submit_real(lambda: runtime.charge(100.0))
        sim.run()
        assert real_busy_time(pool) < 1.0

    @pytest.mark.parametrize("scale", [0.0, -1.0])
    def test_nonpositive_cpu_scale_rejected_at_construction(self, scale):
        sim = Simulator()
        with pytest.raises(ValueError):
            SiteRuntime(
                sim, CpuPool(sim, 1), RecordingSocket(), mode=MODELED, cpu_scale=scale
            )


class TestModeledJobClock:
    """A MODELED job is charged its entry cost plus what its code
    declares with ``charge`` while it runs."""

    def test_job_returns_entry_cost_plus_charges(self):
        sim, pool, runtime = make_runtime()
        runtime.submit_real(lambda: (runtime.charge(0.5), runtime.charge(0.25)))
        sim.run()
        assert real_busy_time(pool) == pytest.approx(ENTRY + 0.75)

    def test_charge_made_inside_the_runtime_is_dropped(self):
        sim, pool, runtime = make_runtime()

        def job():
            runtime.charge(0.1)
            # simulation-side code must not bill the job
            undo = inside_the_runtime(sim, lambda: runtime.charge(99.0))
            try:
                runtime.schedule(1e-3, lambda: None)
            finally:
                undo()
            runtime.charge(0.1)

        runtime.submit_real(job, tag=CpuCostModel.NOOP)
        sim.run()
        # The job's own charges, and the entry cost of the timer's job.
        assert real_busy_time(pool) == pytest.approx(0.2 + ENTRY)

    def test_charge_outside_a_job_is_ignored(self):
        sim, pool, runtime = make_runtime()
        runtime.charge(5.0)
        runtime.submit_real(lambda: None)
        runtime.charge(5.0)
        sim.run()
        assert real_busy_time(pool) == ENTRY
        assert runtime.now() == sim.now

    def test_negative_charge_raises(self):
        sim, _, runtime = make_runtime()
        errors = []

        def job():
            with pytest.raises(ValueError):
                runtime.charge(-1.0)
            errors.append("raised")

        runtime.submit_real(job)
        sim.run()
        assert errors == ["raised"]

    def test_now_is_now_plus_the_charges_so_far(self):
        sim, _, runtime = make_runtime()
        observed = []

        def job():
            runtime.charge(0.3)
            observed.append(runtime.now())

        runtime.submit_real(job, tag=CpuCostModel.NOOP, delay=1.0)
        sim.run()
        assert observed == [1.0 + 0.3]


class TestCrashDuringALazilyCompletedJob:
    def test_skipped_jobs_and_busy_time(self):
        """The first job runs inline on the idle CPU and pushes no
        completion event.  The site crashes while it is 'running': later
        jobs are skipped at zero cost, and the accounting is that of the
        one job that ran — however often, and whenever, it is read."""
        sim, pool, runtime = make_runtime()
        cpu = pool.cpus[0]
        ran = []
        duration = 1e-3 + ENTRY

        def crash_and_submit():
            assert cpu.busy  # still inside the lazy job
            runtime.crash()
            runtime.submit_real(lambda: ran.append("queued"))

        runtime.submit_real(lambda: (ran.append("first"), runtime.charge(1e-3)))
        sim.schedule(0.5e-3, crash_and_submit)
        sim.schedule(5e-3, lambda: runtime.submit_real(lambda: ran.append("late")))
        readings = []
        for t in (0.9e-3, duration, 2e-3, 6e-3):
            sim.schedule(t - sim.now, lambda: readings.append(cpu.busy_seconds()[1]))
        sim.run()
        assert ran == ["first"]
        assert runtime.stats["jobs_skipped_crashed"] == 2
        assert runtime.stats["real_jobs"] == 1
        assert readings == [0.9e-3, duration, duration, duration]
        assert cpu.busy_time[REAL_JOB] == duration
        assert cpu.jobs_completed[REAL_JOB] == 3
        assert not cpu.busy


class TestNetworkBoundary:
    def test_send_charges_cost_and_delays_injection(self):
        sent = []
        sim, pool, runtime = make_runtime(
            on_send=lambda dest, payload: sent.append((sim.now, dest))
        )

        def job():
            runtime.charge(1e-3)
            runtime.send("dest", b"x" * 100)

        runtime.submit_real(job)
        sim.run()
        # The datagram leaves after Δ1 (entry + charge + send cost).
        send_cost = CpuCostModel.cost(CpuCostModel.SEND, 100)
        assert sent[0][0] == pytest.approx(1e-3 + send_cost + ENTRY)

    def test_runtime_takes_its_socket(self):
        """The socket's receiver is the runtime's ``deliver``, a send goes
        out through the socket, and the runtime's address is the
        socket's."""
        sim = Simulator()
        sock = RecordingSocket(address=("site3", 7))
        runtime = SiteRuntime(sim, CpuPool(sim, 1), sock)
        assert sock.receiver == runtime.deliver
        assert runtime.local_address() == ("site3", 7)
        runtime.submit_real(lambda: runtime.send("dest", b"x"))
        sim.run()
        assert sock.sent == [("dest", b"x")]

    def test_deliver_runs_receiver_as_real_job(self):
        sim, pool, runtime = make_runtime()
        got = []
        runtime.set_receiver(lambda src, payload: got.append((src, payload)))
        runtime.deliver("peer", b"data")
        sim.run()
        assert got == [("peer", b"data")]
        assert pool.cpus[0].busy_time[REAL_JOB] > 0

    def test_deliver_without_receiver_is_dropped(self):
        sim, _, runtime = make_runtime()
        runtime.deliver("peer", b"data")
        sim.run()
        assert runtime.stats["datagrams_in"] == 0


class TestInterception:
    def test_crash_stops_jobs_sends_and_deliveries(self):
        sim, pool, runtime = make_runtime(
            on_send=lambda dest, payload: pytest.fail("sent after crash")
        )
        got = []
        runtime.set_receiver(got.append)
        runtime.crash()
        runtime.submit_real(lambda: got.append("ran"))
        runtime.deliver("peer", b"x")
        sim.run()
        assert got == []
        assert runtime.stats["jobs_skipped_crashed"] == 1

    def test_recover_unseals_the_boundary(self):
        sent, got = [], []
        sim, _, runtime = make_runtime(
            on_send=lambda dest, payload: sent.append(payload)
        )
        runtime.set_receiver(lambda src, payload: got.append(payload))
        runtime.crash()
        runtime.recover()
        runtime.submit_real(lambda: runtime.send("dest", b"out"))
        runtime.deliver("peer", b"in")
        sim.run()
        assert (sent, got) == ([b"out"], [b"in"])
        assert runtime.stats["jobs_skipped_crashed"] == 0

    def test_interceptor_drop_incoming(self):
        drop_all = FaultInjector(FaultPlan(random_loss_rate=1.0))
        sim, _, runtime = make_runtime(interceptor=drop_all)
        got = []
        runtime.set_receiver(lambda src, payload: got.append(payload))
        runtime.deliver("peer", b"x")
        sim.run()
        assert got == []
        assert runtime.stats["drops_injected"] == 1

    def test_interceptor_transform_delay(self):
        doubler = FaultInjector(clock_drift(1.0))  # delay * (1 + 1.0)
        sim, _, runtime = make_runtime(interceptor=doubler)
        fired = []
        runtime.schedule(1.0, lambda: fired.append(sim.now))
        sim.run()
        assert fired[0] >= 2.0

    def test_interceptor_transform_elapsed(self):
        halver = FaultInjector(clock_drift(1.0))  # elapsed / (1 + 1.0)
        sim, pool, runtime = make_runtime(interceptor=halver)
        runtime.submit_real(lambda: runtime.charge(2e-3))
        sim.run()
        assert pool.cpus[0].busy_time[REAL_JOB] == pytest.approx(
            (2e-3 + ENTRY) / 2.0
        )

    def test_invalid_mode_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            SiteRuntime(sim, CpuPool(sim, 1), RecordingSocket(), mode="quantum")
