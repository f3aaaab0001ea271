"""Unit tests for the fixed CPU-time profile (§4.1)."""

import math
import random

import pytest

from repro.tpcc.profiles import (
    _MU,
    CLASSES,
    COMMIT_CPU,
    COMMIT_SECTORS,
    DEFAULT_CPU_MEANS,
    SIGMA,
)


class TestCpuProfile:
    def test_every_class_has_a_profile(self):
        assert set(_MU) == set(DEFAULT_CPU_MEANS) == set(CLASSES)
        assert set(COMMIT_SECTORS) == set(CLASSES)

    @pytest.mark.parametrize("cls", CLASSES)
    def test_mu_gives_the_calibrated_mean(self, cls):
        assert math.exp(_MU[cls] + SIGMA * SIGMA / 2.0) == pytest.approx(
            DEFAULT_CPU_MEANS[cls], rel=1e-12
        )

    def test_sample_mean_converges(self):
        rng = random.Random(1)
        mu = _MU["payment-long"]
        samples = [rng.lognormvariate(mu, SIGMA) for _ in range(20000)]
        assert sum(samples) / len(samples) == pytest.approx(8e-3, rel=0.05)

    def test_samples_positive(self):
        rng = random.Random(2)
        mu = _MU["orderstatus-short"]
        assert all(rng.lognormvariate(mu, SIGMA) > 0 for _ in range(100))

    def test_readonly_classes_have_no_commit_sectors(self):
        assert COMMIT_SECTORS["orderstatus-short"] == 0
        assert COMMIT_SECTORS["stocklevel"] == 0
        assert COMMIT_SECTORS["neworder"] > 0

    def test_commit_cpu_below_paper_bound(self):
        """§4.1: commit CPU is < 2 ms for every class."""
        assert COMMIT_CPU < 2e-3

    def test_delivery_is_cpu_bound(self):
        """§3.2: delivery transactions are CPU bound — by far the
        heaviest class."""
        others = [DEFAULT_CPU_MEANS[c] for c in CLASSES if c != "delivery"]
        assert DEFAULT_CPU_MEANS["delivery"] > 3 * max(others)
