"""Unit tests for CPU-time profiles."""

import random

import pytest

from repro.tpcc.profiles import (
    CLASSES,
    DEFAULT_CPU_MEANS,
    LogNormalProfile,
    ProfileSet,
    default_profiles,
)


class TestLogNormalProfile:
    def test_sample_mean_converges(self):
        profile = LogNormalProfile(mean=10e-3, sigma=0.25)
        rng = random.Random(1)
        samples = [profile.sample(rng) for _ in range(20000)]
        assert sum(samples) / len(samples) == pytest.approx(10e-3, rel=0.05)

    def test_samples_positive(self):
        profile = LogNormalProfile(mean=1e-3)
        rng = random.Random(2)
        assert all(profile.sample(rng) > 0 for _ in range(100))

    def test_invalid_mean(self):
        with pytest.raises(ValueError):
            LogNormalProfile(mean=0.0)


class TestProfileSet:
    def test_default_covers_all_classes(self):
        profiles = default_profiles()
        for cls in CLASSES:
            assert profiles.cpu[cls].mean() > 0

    def test_missing_class_rejected(self):
        with pytest.raises(ValueError):
            ProfileSet(cpu={"neworder": LogNormalProfile(1e-3)})

    def test_readonly_classes_have_no_commit_sectors(self):
        profiles = default_profiles()
        assert profiles.sectors("orderstatus-short") == 0
        assert profiles.sectors("stocklevel") == 0
        assert profiles.sectors("neworder") > 0

    def test_commit_cpu_below_paper_bound(self):
        """§4.1: commit CPU is < 2 ms for every class."""
        assert default_profiles().commit_cpu < 2e-3

    @pytest.mark.parametrize("cls", CLASSES)
    def test_default_mean_is_the_calibration_table(self, cls):
        assert default_profiles().cpu[cls].mean() == DEFAULT_CPU_MEANS[cls]

    def test_delivery_is_cpu_bound(self):
        """§3.2: delivery transactions are CPU bound — by far the
        heaviest class."""
        profiles = default_profiles()
        delivery = profiles.cpu["delivery"].mean()
        others = [
            profiles.cpu[c].mean() for c in CLASSES if c != "delivery"
        ]
        assert delivery > 3 * max(others)
