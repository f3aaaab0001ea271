"""Property test: the lazily-completing CPU is the eager CPU, observably.

:class:`repro.core.cpu.SimulatedCpu` pushes no completion event for a
real job nobody waits for; it reserves the event's sequence number and
settles when next looked at.  :class:`EagerCpu` below is the CPU of the
commit before that — every job gets its event — kept as the reference.
Hypothesis drives both with the same schedule of real and modeled jobs
on a coarse time grid (so arrivals land *exactly* on job ends, with
sequence numbers on both sides of the reserved one) and every
observable must agree: execution order and times, completions,
accounting, preemption, sampler series, placement in a pool, and the
kernel's sequence counter.
"""

from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cpu import REAL_JOB, SIM_JOB, CpuPool, SimulatedCpu
from repro.core.kernel import Entity, Simulator
from repro.core.metrics import ResourceSampler


class EagerCpu(Entity):
    """Reference CPU: one completion event per job, nothing deferred.

    A queued job is ``[kind, duration or execute, args, on_complete]``;
    a preempted modeled job goes back with its remaining duration."""

    def __init__(self, sim, name="cpu"):
        super().__init__(sim, name)
        self.real, self.modeled = deque(), deque()
        self.current, self.started, self.end_event = None, 0.0, None
        self.busy_time = {SIM_JOB: 0.0, REAL_JOB: 0.0}
        self.jobs_completed = {SIM_JOB: 0, REAL_JOB: 0}

    busy = property(lambda self: self.current is not None)
    current_kind = property(lambda self: self.current and self.current[0])
    # What ``CpuPool._choose`` reads of a CPU, as SimulatedCpu's fields
    # (the pool reads fields, not the accessors above); nothing is lazy.
    _lazy_seq = 0
    _current = current_kind
    _real_queue = property(lambda self: self.real)
    _sim_queue = property(lambda self: self.modeled)
    utilization = SimulatedCpu.utilization  # a pure function of busy_seconds()

    def queue_length(self):
        return len(self.real) + len(self.modeled)

    def busy_seconds(self):
        parts = dict(self.busy_time)
        if self.current is not None:
            parts[self.current[0]] += self.sim.now - self.started
        return parts[SIM_JOB], parts[REAL_JOB]

    def submit_sim(self, duration, on_complete=None):
        self.modeled.append([SIM_JOB, duration, (), on_complete])
        self.dispatch()

    def submit_real(self, execute, args=(), on_complete=None):
        self.real.append([REAL_JOB, execute, args, on_complete])
        victim = self.current
        if victim is not None and victim[0] == SIM_JOB:
            self.end_event.cancel()
            self.busy_time[SIM_JOB] += self.sim.now - self.started
            victim[1] = max(0.0, self.end_event.time - self.sim.now)
            self.modeled.appendleft(victim)
            self.current = None
        self.dispatch()

    def dispatch(self):
        if self.current is not None or not (self.real or self.modeled):
            return
        job = self.current = (self.real or self.modeled).popleft()
        kind, work, args, _ = job
        self.started = self.sim.now
        duration = work(*args) if kind == REAL_JOB else work
        self.end_event = self.sim.schedule(duration, self.complete, job)

    def complete(self, job):
        kind, _, _, on_complete = job
        self.busy_time[kind] += self.sim.now - self.started
        self.jobs_completed[kind] += 1
        self.current = None
        if on_complete is not None:
            on_complete()
        self.dispatch()


# ----------------------------------------------------------------------
# schedules
# ----------------------------------------------------------------------
GRID = 0.25  # exact in binary: sums of grid values tie exactly
instants = st.integers(0, 16).map(lambda k: k * GRID)
durations = st.sampled_from([0.0, GRID, GRID, 2 * GRID, 4 * GRID])
nested = st.none() | st.tuples(st.sampled_from([REAL_JOB, SIM_JOB]), durations)
#: (delay, duration) of a real job the running job schedules for later —
#: its event is numbered *below* the completion the job reserves next.
followup = st.none() | st.tuples(durations, durations)

actions = st.one_of(
    st.tuples(st.just("real"), instants, durations, st.booleans(), nested, followup),
    st.tuples(st.just("sim"), instants, durations),
    # An event that schedules an arrival — or, with no duration, a read —
    # ``delay`` later: numbered *above* the reservation of any job
    # already running by then.
    st.tuples(st.just("chain"), instants, durations, st.none() | durations),
    st.tuples(st.just("read"), instants),
    st.tuples(st.just("crash"), instants),
)


def drive(schedule, cpu_count, make_cpu):
    """Run ``schedule`` on a pool of ``make_cpu`` CPUs; return every
    observable as plain values."""
    sim = Simulator()
    pool = CpuPool(sim, cpu_count)
    pool.cpus = [make_cpu(sim, f"cpu{i}") for i in range(cpu_count)]
    sampler = ResourceSampler(sim, interval=2 * GRID, cpu_pools=[pool])
    log, crashed = [], []

    def note(*what):
        log.append((sim.now,) + what)

    def submit_sim(name, duration):
        pool.submit_sim(duration, lambda: note("done", name))

    def body(name, duration, inner, later):
        if crashed:
            note("skipped", name)
            return 0.0
        note("ran", name)
        if inner is not None:
            kind, inner_duration = inner
            if kind == REAL_JOB:
                submit_real(name + ".in", inner_duration, False)
            else:
                submit_sim(name + ".in", inner_duration)
        if later is not None:
            sim.call(later[0], submit_real, name + ".later", later[1], False)
        return duration

    def submit_real(name, duration, notify, inner=None, later=None):
        on_complete = (lambda: note("done", name)) if notify else None
        pool.submit_real(body, (name, duration, inner, later), on_complete)

    def read():
        note(
            "read",
            [
                (cpu.busy, cpu.current_kind, cpu.queue_length(), cpu.busy_seconds(),
                 dict(cpu.busy_time), dict(cpu.jobs_completed))
                for cpu in pool.cpus
            ],
            pool.utilization(sim.now),
        )

    for index, action in enumerate(schedule):
        kind, at, name = action[0], action[1], f"{action[0]}{index}"
        # The clock is still at 0: each delay is the absolute ``at``.
        if kind == "real":
            sim.schedule(at, submit_real, name, *action[2:])
        elif kind == "sim":
            sim.schedule(at, submit_sim, name, action[2])
        elif kind == "chain" and action[3] is None:
            sim.schedule(at, sim.call, action[2], read)
        elif kind == "chain":
            sim.schedule(at, sim.call, action[2], submit_real, name, action[3], False)
        elif kind == "read":
            sim.schedule(at, read)
        else:
            sim.schedule(at, crashed.append, True)
    sampler.start()
    sim.run(until=17 * GRID)
    read()  # between runs: no event is executing
    sim.run(until=40 * GRID)  # everything has finished long before
    read()
    return {
        "log": log,
        "now": sim.now,
        "seq": sim._seq,
        "samples": [list(sample) for sample in sampler.samples],
    }


@given(st.lists(actions, min_size=1, max_size=14), st.sampled_from([1, 3]))
@settings(max_examples=400, deadline=None)
def test_lazy_cpu_is_observably_the_eager_cpu(schedule, cpu_count):
    lazy = drive(schedule, cpu_count, SimulatedCpu)
    eager = drive(schedule, cpu_count, EagerCpu)
    assert lazy == eager


def test_draining_run_ends_at_the_last_job_end():
    """With no ``until`` a run ends when the queue drains — at the end
    of the last job, whether or not that job pushed an event."""
    finals = []
    for make_cpu in (SimulatedCpu, EagerCpu):
        sim = Simulator()
        cpu = make_cpu(sim, "cpu")
        sim.schedule(1.0, cpu.submit_real, lambda: 0.5)
        finals.append((sim.run(), dict(cpu.busy_time), dict(cpu.jobs_completed)))
    assert finals[0] == finals[1]
    assert finals[0][0] == 1.5


@pytest.mark.parametrize("make_cpu", [SimulatedCpu, EagerCpu])
def test_arrival_exactly_at_a_lazy_jobs_end_is_ordered_by_sequence_number(make_cpu):
    """A job runs from 0.5 to 1.0 and nobody waits for it; its completion
    takes sequence number 3 (pushed or merely reserved).  An arrival at
    exactly 1.0 numbered *below* 3 finds the CPU busy — the completion
    has not run yet — and is started by it; one numbered *above* finds
    the CPU idle and runs inside the submitting call.  Both run at 1.0:
    only the order within that instant tells the two apart."""

    def arrival_order(numbered_above):
        sim = Simulator()
        cpu = make_cpu(sim, "cpu")
        order = []

        def arrive():
            order.append("arrives")
            cpu.submit_real(lambda: order.append("runs") or 0.0)
            order.append("submitted")

        if not numbered_above:
            sim.schedule(1.0, arrive)  # seq 1
        sim.schedule(0.5, cpu.submit_real, lambda: 0.5)
        sim.run(until=0.75)
        if numbered_above:
            sim.schedule(1.0 - sim.now, arrive)  # seq 3 is taken: this is 4
        sim.run()
        return order

    assert arrival_order(numbered_above=False) == ["arrives", "submitted", "runs"]
    assert arrival_order(numbered_above=True) == ["arrives", "runs", "submitted"]
