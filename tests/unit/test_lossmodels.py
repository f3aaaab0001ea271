"""Unit tests for the loss processes used in fault injection."""

import random

import pytest

from repro.core.faults import FaultInjector, FaultPlan
from repro.net.lossmodels import BurstyLoss, RandomLoss


class TestNoLoss:
    def test_never_drops(self):
        """No loss is no loss process: nothing drops, nothing is drawn."""
        injector = FaultInjector(FaultPlan())
        assert injector.loss is None
        state = injector.rng.getstate()
        assert not any(injector.drop_incoming("s", b"x") for _ in range(1000))
        assert injector.stats["messages_dropped"] == 0
        assert injector.rng.getstate() == state


class TestRandomLoss:
    def test_rate_converges(self):
        loss = RandomLoss(0.05, rng=random.Random(1))
        drops = sum(loss.should_drop() for _ in range(20000))
        assert 0.04 < drops / 20000 < 0.06

    def test_zero_and_one(self):
        assert not RandomLoss(0.0).should_drop()
        assert RandomLoss(1.0).should_drop()

    def test_invalid_probability(self):
        with pytest.raises(ValueError):
            RandomLoss(1.5)

    def test_realized_rate_tracking(self):
        loss = RandomLoss(0.5, rng=random.Random(2))
        for _ in range(1000):
            loss.should_drop()
        assert 0.4 < loss.realized_rate() < 0.6


class TestBurstyLoss:
    def test_overall_rate_converges(self):
        loss = BurstyLoss.for_rate(0.05, mean_burst=5.0, rng=random.Random(3))
        drops = sum(loss.should_drop() for _ in range(60000))
        assert 0.035 < drops / 60000 < 0.065

    def test_losses_come_in_bursts(self):
        loss = BurstyLoss(mean_burst=5.0, mean_gap=95.0, rng=random.Random(4))
        outcomes = [loss.should_drop() for _ in range(50000)]
        # count the runs of consecutive drops
        runs = []
        current = 0
        for dropped in outcomes:
            if dropped:
                current += 1
            elif current:
                runs.append(current)
                current = 0
        assert runs, "no bursts observed"
        mean_run = sum(runs) / len(runs)
        # mean burst length near 5, definitely not ~1 as random loss gives
        assert 3.0 < mean_run < 7.0

    def test_for_rate_validates(self):
        with pytest.raises(ValueError):
            BurstyLoss.for_rate(0.0)
        with pytest.raises(ValueError):
            BurstyLoss.for_rate(1.0)

    def test_period_means_validated(self):
        with pytest.raises(ValueError):
            BurstyLoss(mean_burst=0.5)
