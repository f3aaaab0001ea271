"""Unit tests for fault injection (paper §5.3)."""

import pytest

from repro.core.faults import (
    FaultInjector,
    FaultPlan,
    bursty_loss,
    clock_drift,
    crash_recover,
    partition_heal,
    random_loss,
    scheduling_latency,
)


class TestFaultPlan:
    def test_no_faults_by_default(self):
        assert not FaultPlan().has_faults()

    def test_constructors(self):
        assert clock_drift(0.1).clock_drift_rate == 0.1
        assert scheduling_latency(0.01).scheduling_latency_max == 0.01
        assert random_loss(0.05).random_loss_rate == 0.05
        plan = bursty_loss(0.05, burst=7.0)
        assert plan.bursty_loss_rate == 0.05
        assert plan.bursty_loss_burst == 7.0
        assert all(
            p.has_faults()
            for p in (clock_drift(0.1), scheduling_latency(0.01),
                      random_loss(0.05), bursty_loss(0.05),
                      FaultPlan(actions=((1.0, "crash"),)))
        )

    def test_both_loss_kinds_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan(random_loss_rate=0.1, bursty_loss_rate=0.1)

    #: A plan that would break a run mid-way (a drift of -1 divides by
    #: zero, below it schedules into the past) or silently run without
    #: faults (``has_faults()`` ignores negative rates) is refused at
    #: construction.
    @pytest.mark.parametrize("field, value", [
        ("clock_drift_rate", -1.0),
        ("random_loss_rate", -0.1),
        ("bursty_loss_rate", -0.1),
        ("scheduling_latency_max", -0.01),
    ])
    def test_plan_that_breaks_a_run_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            FaultPlan(**{field: value})

    @pytest.mark.parametrize("action", ["crash", "partition"])
    def test_negative_action_time_rejected(self, action):
        with pytest.raises(ValueError, match=action):
            FaultPlan(actions=((-1.0, action),))

    def test_values_at_the_bounds_accepted(self):
        plan = FaultPlan(
            clock_drift_rate=-0.5, actions=((0.0, "crash"), (0.0, "partition"))
        )
        assert plan.has_faults()


class TestClockDrift:
    def test_delays_scaled_up(self):
        injector = FaultInjector(clock_drift(0.10))
        assert injector.transform_delay(1.0) == pytest.approx(1.10)

    def test_elapsed_scaled_down(self):
        injector = FaultInjector(clock_drift(0.10))
        assert injector.transform_elapsed(1.10) == pytest.approx(1.0)

    def test_roundtrip_is_identity(self):
        injector = FaultInjector(clock_drift(0.25))
        value = injector.transform_elapsed(injector.transform_delay(0.7))
        assert value == pytest.approx(0.7)


class TestSchedulingLatency:
    def test_delay_added_within_bound(self):
        injector = FaultInjector(scheduling_latency(0.010))
        for _ in range(200):
            delay = injector.transform_delay(1.0)
            assert 1.0 <= delay <= 1.010

    def test_zero_delay_not_delayed(self):
        """Only events scheduled in the future are delayed (§5.3)."""
        injector = FaultInjector(scheduling_latency(0.010))
        assert injector.transform_delay(0.0) == 0.0


class TestLossInjection:
    def test_random_loss_drops_on_reception(self):
        injector = FaultInjector(random_loss(1.0))
        assert injector.drop_incoming("src", b"x")
        assert injector.stats["messages_dropped"] == 1

    def test_no_loss_never_drops(self):
        injector = FaultInjector(FaultPlan())
        assert not any(injector.drop_incoming("s", b"x") for _ in range(100))

    @pytest.mark.parametrize(
        "plan",
        [
            clock_drift(0.5),
            scheduling_latency(0.010),
            crash_recover(1.0, 2.0),
            partition_heal(1.0, 2.0),
        ],
        ids=["drift", "latency", "crash", "partition"],
    )
    def test_faulty_plan_without_loss_holds_no_loss_process(self, plan):
        injector = FaultInjector(plan)
        assert injector.loss is None
        assert not any(injector.drop_incoming("s", b"x") for _ in range(100))
        assert injector.stats["messages_dropped"] == 0

    @pytest.mark.parametrize("plan", [random_loss(0.1), bursty_loss(0.1)])
    def test_plan_with_loss_holds_a_loss_process(self, plan):
        assert FaultInjector(plan).loss is not None

    def test_bursty_loss_rate(self):
        injector = FaultInjector(bursty_loss(0.05))
        drops = sum(injector.drop_incoming("s", b"x") for _ in range(40000))
        assert 0.03 < drops / 40000 < 0.07

    def test_seeded_determinism(self):
        a = FaultInjector(random_loss(0.5, seed=3))
        b = FaultInjector(random_loss(0.5, seed=3))
        outcomes_a = [a.drop_incoming("s", b"") for _ in range(100)]
        outcomes_b = [b.drop_incoming("s", b"") for _ in range(100)]
        assert outcomes_a == outcomes_b
