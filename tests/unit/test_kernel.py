"""Unit tests for the discrete-event simulation kernel."""

import pytest

from repro.core.kernel import MS, Entity, Signal, SimulationError, Simulator


class TestScheduling:
    def test_events_run_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(0.3, order.append, "c")
        sim.schedule(0.1, order.append, "a")
        sim.schedule(0.2, order.append, "b")
        sim.run()
        assert order == ["a", "b", "c"]

    def test_ties_break_by_schedule_order(self):
        sim = Simulator()
        order = []
        for tag in ("first", "second", "third"):
            sim.schedule(0.5, order.append, tag)
        sim.run()
        assert order == ["first", "second", "third"]

    def test_now_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.25, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [1.25]
        assert sim.now == 1.25

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-0.1, lambda: None)

    def test_negative_delay_rejected_after_the_clock_moved(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule(0.5 - sim.now, lambda: None)
        with pytest.raises(SimulationError):
            sim.call(0.5 - sim.now, lambda: None)

    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        event = sim.schedule(0.1, fired.append, 1)
        event.cancel()
        sim.run()
        assert fired == []
        assert sim.pending() == 0

    def test_cancel_heavy_load_keeps_heap_bounded(self):
        """Lazy deletion must not bloat the queue: a schedule/cancel loop
        (the retransmit-timer pattern) triggers compaction, so the heap
        stays proportional to the *live* events, not to history."""
        sim = Simulator()
        keeper = sim.schedule(1e9, lambda: None)
        for _ in range(10_000):
            sim.schedule(1.0, lambda: None).cancel()
        assert len(sim._queue) < 1_000
        assert sim.pending() == 1
        sim.run(until=2.0)
        assert not keeper.cancelled

    def test_compaction_preserves_order_and_live_events(self):
        sim = Simulator()
        fired = []
        for i in range(50):
            sim.schedule(0.1 * (i + 1), fired.append, i)
        # Cancel enough interleaved events to force several compactions.
        for _ in range(400):
            sim.schedule(5.0, fired.append, -1).cancel()
        sim.run()
        assert fired == list(range(50))

    def test_zero_delay_runs_after_queued_events_at_same_instant(self):
        sim = Simulator()
        order = []
        sim.schedule(0.0, order.append, "early")

        def schedule_more():
            sim.schedule(0.0, order.append, "late")

        sim.schedule(0.0, schedule_more)
        sim.run()
        assert order == ["early", "late"]


class TestRunControl:
    def test_run_until_stops_clock_at_bound(self):
        sim = Simulator()
        sim.schedule(5.0, lambda: None)
        sim.run(until=2.0)
        assert sim.now == 2.0
        assert sim.pending() == 1

    def test_run_until_advances_clock_when_queue_drains(self):
        sim = Simulator()
        sim.schedule(0.5, lambda: None)
        sim.run(until=3.0)
        assert sim.now == 3.0

    def test_stop_halts_after_current_event(self):
        sim = Simulator()
        order = []

        def stopper():
            order.append("stop")
            sim.stop()

        sim.schedule(0.1, stopper)
        sim.schedule(0.2, order.append, "never")
        sim.run()
        assert order == ["stop"]

    def test_not_reentrant(self):
        sim = Simulator()
        errors = []

        def recurse():
            try:
                sim.run()
            except SimulationError as exc:
                errors.append(exc)

        sim.schedule(0.0, recurse)
        sim.run()
        assert len(errors) == 1

    def test_events_executed_counter(self):
        sim = Simulator()
        for _ in range(3):
            sim.schedule(0.1, lambda: None)
        sim.run()
        assert sim.events_executed == 3


class TestSameInstantLane:
    """Zero-delay handle-free events wait in a FIFO beside the heap;
    nothing observable may tell the two apart."""

    def test_pending_counts_the_lane(self):
        sim = Simulator()
        sim.call(0.0, lambda: None)
        sim.call(1.0, lambda: None)
        sim.schedule(0.0, lambda: None).cancel()
        assert sim.pending() == 2

    def test_heap_entry_at_now_with_lower_seq_runs_first(self):
        sim = Simulator()
        order = []

        def root():
            sim.call(1e-300, order.append, "underflowed")  # now + 1e-300 == now
            sim.schedule(0.0, order.append, "handle")
            sim.call(0.0, order.append, "lane")

        sim.schedule(1.0, root)
        sim.run()
        assert order == ["underflowed", "handle", "lane"]
        assert sim.now == 1.0

    def test_stop_mid_instant_leaves_the_lane_for_the_next_run(self):
        sim = Simulator()
        order = []

        def root():
            sim.call(0.0, order.append, "a")
            sim.call(0.0, order.append, "b")
            sim.stop()

        sim.call(0.5, root)
        sim._horizon = 2.0  # elided work ends later (see repro.core.cpu)
        sim.run(until=3.0)
        assert order == [] and sim.pending() == 2
        assert sim.now == 0.5  # stopped: not drained, not advanced
        sim.run()
        assert order == ["a", "b"]
        assert sim.now == 2.0  # drained now: the horizon rule applies

    def test_bound_in_the_past_runs_nothing(self):
        sim = Simulator()
        order = []

        def root():
            sim.call(0.0, order.append, "late")
            sim.stop()

        sim.call(1.0, root)
        sim.run()
        assert sim.now == 1.0 and sim.pending() == 1
        sim.run(until=0.5)
        assert order == [] and sim.now == 1.0
        sim.run()
        assert order == ["late"]


class TestProcesses:
    def test_sleep_yields_advance_time(self):
        sim = Simulator()
        wakes = []

        def proc():
            yield 1.0
            wakes.append(sim.now)
            yield 0.5
            wakes.append(sim.now)

        sim.process(proc())
        sim.run()
        assert wakes == [1.0, 1.5]

    def test_wait_on_signal_receives_value(self):
        sim = Simulator()
        signal = Signal(sim)
        got = []

        def proc():
            value = yield signal
            got.append((sim.now, value))

        sim.process(proc())
        sim.schedule(2.0, signal.fire, "payload")
        sim.run()
        assert got == [(2.0, "payload")]

    def test_latched_signal_releases_late_waiter(self):
        sim = Simulator()
        signal = Signal(sim)
        signal.fire("early")
        got = []

        def proc():
            value = yield signal
            got.append(value)

        sim.process(proc())
        sim.run()
        assert got == ["early"]

    def test_suspended_process_resumes_on_the_next_run(self):
        """A bounded run leaves a sleeping process suspended; the next
        run wakes it at its own time."""
        sim = Simulator()
        wakes = []

        def proc():
            yield 100.0
            wakes.append(sim.now)

        sim.process(proc())
        sim.run(until=1.0)
        assert wakes == [] and sim.now == 1.0 and sim.pending() == 1
        sim.run()
        assert wakes == [100.0] and sim.pending() == 0

    def test_negative_sleep_raises(self):
        sim = Simulator()

        def proc():
            yield -1.0

        sim.process(proc())
        with pytest.raises(SimulationError, match="in the past"):
            sim.run()

    def test_unsupported_yield_raises(self):
        """A process yields a number or a signal; anything else raises."""
        sim = Simulator()

        def proc():
            yield "nonsense"

        sim.process(proc())
        with pytest.raises(SimulationError):
            sim.run()

    def test_yielding_a_process_raises(self):
        """There is no joining a process: yielding one raises."""
        sim = Simulator()

        def child():
            yield 1.0

        def proc():
            yield sim.process(child())

        sim.process(proc())
        with pytest.raises(SimulationError):
            sim.run()


class TestElidedHops:
    """``elide_hop``: a zero-delay hop that would run next anyway is
    taken in place — and only then."""

    @staticmethod
    def answers(sim):
        """``(seen, probe)``: calling ``probe`` inside an event appends
        ``(answer, (seq, exec_seq) before, (seq, exec_seq) after)``."""
        seen = []

        def probe():
            before = (sim._seq, sim._exec_seq)
            seen.append((sim.elide_hop(), before, (sim._seq, sim._exec_seq)))

        return seen, probe

    def test_false_outside_run(self):
        sim = Simulator()
        assert not sim.elide_hop()
        sim.schedule(1.0, lambda: None)
        sim.run()
        assert not sim.elide_hop()
        assert (sim._seq, sim._exec_seq) == (1, 1)

    def test_true_takes_the_hops_number_and_marks_it_executed(self):
        sim = Simulator()
        seen, probe = self.answers(sim)
        sim.schedule(1.0, probe)  # seq 1
        sim.schedule(2.0, lambda: None)  # seq 2: later, so not in the way
        sim.run()
        assert seen == [(True, (2, 1), (3, 3))]
        assert sim.events_executed == 2  # the hop is not an event

    def test_false_with_a_lane_entry_pending(self):
        sim = Simulator()
        seen, probe = self.answers(sim)

        def event():
            sim.call(0.0, lambda: None)
            probe()

        sim.schedule(1.0, event)
        sim.run()
        assert seen == [(False, (2, 1), (2, 1))]

    def test_false_with_a_heap_entry_at_now(self):
        sim = Simulator()
        seen, probe = self.answers(sim)
        sim.schedule(1.0, probe)
        sim.schedule(1.0, lambda: None)  # same instant, would run first
        sim.run()
        assert seen == [(False, (2, 1), (2, 1))]

    def test_false_after_stop(self):
        sim = Simulator()
        seen, probe = self.answers(sim)

        def stop_then_probe():
            sim.stop()
            probe()

        sim.schedule(1.0, stop_then_probe)
        sim.run()
        assert seen == [(False, (1, 1), (1, 1))]

    def test_fired_signal_is_already_fired_when_the_hop_is_elided(self):
        sim = Simulator()
        got = []

        def proc():
            got.append((yield sim.fired_signal()))
            got.append((yield sim.fired_signal("v")))
            got.append(sim._exec_seq)

        sim.process(proc())  # seq 1: the start is an event
        sim.run()
        # four hops (two fires, two wake-ups) taken inside the one event
        assert got == [None, "v", 5]
        assert sim.events_executed == 1

    def test_fired_signal_outside_an_event_fires_on_the_next_hop(self):
        sim = Simulator()
        done = sim.fired_signal("v")
        assert not done.fired
        got = []

        def proc():
            got.append((yield done))

        sim.process(proc())
        sim.run()
        assert got == ["v"] and done.fired

    def test_unsupported_yield_after_an_elided_hop_still_raises(self):
        sim = Simulator()

        def proc():
            yield sim.fired_signal()
            yield "nonsense"

        sim.process(proc())
        with pytest.raises(SimulationError):
            sim.run()


class TestEntity:
    def test_entity_schedules_through_simulator(self):
        sim = Simulator()
        entity = Entity(sim, "thing")
        fired = []
        entity.call(0.5, fired.append, entity.name)
        sim.run()
        assert fired == ["thing"]
        assert entity.now == 0.5

    def test_ms_constant(self):
        assert MS == pytest.approx(1e-3)
