"""Property tests: the event kernel's ordering guarantees."""

import hashlib
import heapq
import json
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.experiment import Scenario, ScenarioConfig
from repro.core.faults import FaultPlan, crash_recover, random_loss
from repro.core.kernel import Signal, Simulator


@given(st.lists(st.floats(min_value=0.0, max_value=1e6, allow_nan=False), max_size=50))
@settings(max_examples=200)
def test_events_execute_in_nondecreasing_time_order(delays):
    sim = Simulator()
    executed = []
    for delay in delays:
        sim.schedule(delay, lambda d=delay: executed.append(sim.now))
    sim.run()
    assert executed == sorted(executed)
    assert len(executed) == len(delays)


@given(
    st.lists(
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
        min_size=1,
        max_size=20,
    )
)
@settings(max_examples=100)
def test_process_sleep_durations_sum(durations):
    sim = Simulator()
    finished = []

    def proc():
        for d in durations:
            yield d
        finished.append(sim.now)

    sim.process(proc())
    sim.run()
    assert finished[0] <= sum(durations) * (1 + 1e-9) + 1e-9
    assert finished[0] >= sum(durations) * (1 - 1e-9) - 1e-9


@given(st.integers(min_value=0, max_value=49), st.integers(min_value=1, max_value=50))
@settings(max_examples=50)
def test_cancellation_removes_exactly_one(cancel_index, count):
    sim = Simulator()
    fired = []
    events = [sim.schedule(0.1 * i, fired.append, i) for i in range(count)]
    victim = events[cancel_index % count]
    victim.cancel()
    sim.run()
    expected = [i for i in range(count) if events[i] is not victim]
    assert fired == expected


# ----------------------------------------------------------------------
# the same-instant lane: (time, seq) order over two containers
# ----------------------------------------------------------------------
class HeapLane:
    """Stands in for the lane deque: everything goes to the heap."""

    def __init__(self, queue):
        self.queue = queue

    def append(self, entry):
        heapq.heappush(self.queue, entry)

    def __len__(self):
        return 0


class HeapOnlySimulator(Simulator):
    """Reference: one heap, popped in (time, seq) order, nothing else."""

    def __init__(self):
        super().__init__()
        self._lane = HeapLane(self._queue)

    def run(self, until=None):
        self._running, self._stopped, executed, queue = True, False, 0, self._queue
        limit = float("inf") if until is None else until
        while queue and not self._stopped:
            if queue[0][0] > limit:
                break
            time, seq, *rest = heapq.heappop(queue)
            fn, args = rest if len(rest) == 2 else (rest[0].fn, rest[0].args)
            if len(rest) == 1 and rest[0].cancelled:
                continue
            self._now, self._exec_seq = time, seq
            fn(*args)
            executed += 1
        self._running = False
        self.events_executed += executed
        if not self._stopped:
            self._exec_seq = self._seq
            if not queue and self._now < self._horizon <= limit:
                self._now = self._horizon
            if until is not None and self._now < until:
                self._now = until
        return self._now


class EagerHopSimulator(Simulator):
    """Reference: every zero-delay hop is an event, as before hops were
    elided — the code path ``elide_hop`` returning ``False`` leaves."""

    def elide_hop(self):
        return False


#: 0 and a delay that underflows to ``now``, plus a grid coarse enough
#: that independent chains land on the same instant.
delays = st.sampled_from([0.0, 0.0, 1e-300, 0.25, 0.5, 1.0])
small = st.integers(min_value=0, max_value=7)
actions = st.recursive(
    st.one_of(
        st.tuples(st.just("cancel"), small),
        st.tuples(st.just("fire"), small),
        st.tuples(st.just("stop"), small),
        st.tuples(st.just("reserve"), delays),
        st.tuples(st.just("materialise"), small),
    ),
    lambda children: st.tuples(
        st.sampled_from(["call", "schedule", "at"]),
        delays,
        st.lists(children, max_size=3),
    ),
    max_leaves=25,
)
#: A process sleeps, waits on a signal (one already fired resumes it on
#: a hop), waits on ``fired_signal``, fires a signal or stops the run.
process_steps = st.lists(
    st.one_of(
        delays,
        small,
        st.tuples(st.sampled_from(["hop", "hop", "fire", "stop"]), small),
    ),
    max_size=6,
)
run_bounds = st.sampled_from([None, 0.0, 0.25, 0.5, 1.0, 3.0])


def execute(sim_class, roots, processes, bounds):
    """Run the program on ``sim_class``; return everything observable."""
    sim = sim_class()
    signals = [Signal(sim) for _ in range(8)]
    handles, reserved, trace, observed = [], [], [], []

    def perform(action):
        kind, arg, *rest = action
        if kind == "cancel":
            if handles:
                handles[arg % len(handles)].cancel()
        elif kind == "fire":
            signals[arg].fire(arg)
        elif kind == "stop":
            sim.stop()
        elif kind == "reserve":  # what a lazily-completing CPU does
            sim._seq += 1
            reserved.append((sim.now + arg, sim._seq))
            sim._horizon = max(sim._horizon, sim.now + arg)
        elif kind == "materialise":  # ...and when work queues behind it
            if reserved:
                key = reserved.pop(arg % len(reserved))
                if key > (sim.now, sim._exec_seq):
                    heapq.heappush(sim._queue, (*key, fired, ((),)))
        elif kind == "call":
            sim.call(arg, fired, rest[0])
        elif kind == "schedule":
            handles.append(sim.schedule(arg, fired, rest[0]))
        else:  # an absolute time, as a delay from now
            at = sim.now + arg
            handles.append(sim.schedule(at - sim.now, fired, rest[0]))

    def fired(children):
        trace.append((sim.now, sim._exec_seq))
        for child in children:
            perform(child)

    def process(steps):
        for step in steps:
            trace.append((sim.now, sim._exec_seq))
            if isinstance(step, tuple) and step[0] == "hop":
                trace.append((yield sim.fired_signal(step[1] or None)))
            elif isinstance(step, tuple):
                perform(step)
            else:
                yield signals[step] if isinstance(step, int) else step
        trace.append((sim.now, sim._exec_seq))

    for steps in processes:
        sim.process(process(steps))
    for action in roots:
        perform(action)
    for bound in bounds:
        sim.run(until=bound)
        observed.append((sim.now, sim._seq, sim._exec_seq, sim.pending(), len(trace)))
    sim.run()
    return trace, observed, sim.now, sim.events_executed, sim.pending()


@given(
    st.lists(actions, max_size=6),
    st.lists(process_steps, max_size=4),
    st.lists(run_bounds, max_size=4),
)
@settings(max_examples=500, deadline=None)
def test_lane_and_heap_execute_in_heap_only_order(roots, processes, bounds):
    """Random programs of call / schedule (relative or absolute) /
    Signal.fire / process sleeps with zero, underflowing and tying
    delays, cancels, nested scheduling, runs stopped mid-instant or
    bounded by ``until``:
    the executed (time, seq) sequence, the clock, the sequence
    counters and pending() after every run equal the reference's.  And
    with every hop an event again, all of that but the event count."""
    real = execute(Simulator, roots, processes, bounds)
    assert real == execute(HeapOnlySimulator, roots, processes, bounds)
    *eager, eager_events, eager_pending = execute(
        EagerHopSimulator, roots, processes, bounds
    )
    assert [*eager, eager_pending] == [*real[:3], real[4]]
    assert real[3] <= eager_events


# ----------------------------------------------------------------------
# elided hops under whole scenarios
# ----------------------------------------------------------------------
#: Early enough that a 40-transaction cell sees the rejoin complete.
FAULTS = {
    "none": lambda sites: {},
    "loss": lambda sites: {i: random_loss(0.05, seed=5 + i) for i in range(sites)},
    "crash-recover": lambda sites: {sites - 1: crash_recover(5.0, 12.0)},
    "crash-sequencer": lambda sites: {0: FaultPlan(actions=((8.0, "crash"),))},
}


def run_cell(sim_class, config):
    with mock.patch("repro.core.experiment.Simulator", sim_class):
        scenario = Scenario(config)
    result = scenario.run()
    canonical = json.dumps(result.to_dict(), sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(canonical.encode()).hexdigest()
    return (
        (digest, scenario.sim._seq, result.site_stats, len(result.completed_rejoins())),
        scenario.sim.events_executed,
    )


@given(
    st.sampled_from([1, 3]),
    st.sampled_from(["dbsm", "primary-copy", "partial"]),
    st.sampled_from(sorted(FAULTS)),
    st.integers(min_value=0, max_value=10_000),
)
@example(3, "dbsm", "crash-recover", 7)
@example(3, "primary-copy", "loss", 11)
@example(1, "dbsm", "none", 42)
@settings(max_examples=12, deadline=None)
def test_scenarios_cannot_tell_elided_hops_from_events(sites, protocol, fault, seed):
    """Every simulated bit — the result digest, the sequence numbers
    drawn, the per-site protocol counters — is the same whether the
    zero-delay hops of cache hits, immediate grants, centralized commits
    and wake-ups are taken in place or run as events; only the number
    of events differs, and never upwards."""
    config = ScenarioConfig(
        sites=sites,
        protocol=protocol,
        clients=20,
        transactions=40,
        seed=seed,
        faults=FAULTS[fault](sites) if sites > 1 else {},
    )
    real, real_events = run_cell(Simulator, config)
    eager, eager_events = run_cell(EagerHopSimulator, config)
    assert real == eager
    assert real_events < eager_events
    assert real[3] == (fault == "crash-recover" and sites > 1)
