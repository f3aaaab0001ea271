"""Unit tests for the canonical scenario presets."""

import warnings
from math import inf, nan

import pytest

from repro.core.scenarios import (
    CLIENT_LEVELS,
    PAPER_TRANSACTIONS,
    SYSTEM_CONFIGS,
    fault_config,
    performance_config,
    prototype_gcs_config,
    safety_fault_plans,
    scale,
    scaled_transactions,
)


class TestGrid:
    def test_system_configs_match_paper(self):
        labels = [label for label, _, _ in SYSTEM_CONFIGS]
        assert labels == ["1 CPU", "3 CPU", "6 CPU", "3 Sites", "6 Sites"]
        # centralized ones are single-site; replicated are single-CPU
        for label, sites, cpus in SYSTEM_CONFIGS:
            if "Sites" in label:
                assert cpus == 1 and sites > 1
            else:
                assert sites == 1

    def test_client_levels_span_paper_range(self):
        assert CLIENT_LEVELS[0] == 100
        assert CLIENT_LEVELS[-1] == 2000

    def test_performance_config(self):
        config = performance_config(3, 1, 750, transactions=500)
        assert config.sites == 3
        assert config.clients == 750
        assert config.transactions == 500
        assert config.protocol == "dbsm"

    def test_grid_builders_thread_protocol(self):
        perf = performance_config(
            3, 1, 750, transactions=500, protocol="primary-copy"
        )
        assert perf.protocol == "primary-copy"
        fault = fault_config(
            "random", transactions=100, protocol="primary-copy"
        )
        assert fault.protocol == "primary-copy"


class TestScale:
    def test_scale_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "1.0")
        assert scale() == 1.0
        assert scaled_transactions() == PAPER_TRANSACTIONS
        monkeypatch.setenv("REPRO_SCALE", "0.1")
        assert scaled_transactions() == 1000

    def test_scale_bounds_and_garbage(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "99")
        assert scale() == 1.0
        monkeypatch.setenv("REPRO_SCALE", "not-a-number")
        assert scale() == 0.3

    def test_scaled_transactions_floor(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.01")
        assert scaled_transactions() >= 300

    def test_unparseable_scale_warns_once(self, monkeypatch):
        from repro.core import env as mod

        monkeypatch.setattr(mod, "_WARNED", set())
        monkeypatch.setenv("REPRO_SCALE", "O.5")  # the classic typo
        with pytest.warns(RuntimeWarning, match="not a number"):
            assert scale() == 0.3
        # … but exactly once per distinct value
        with warnings.catch_warnings(record=True) as captured:
            warnings.simplefilter("always")
            assert scale() == 0.3
        assert captured == []

    def test_nan_scale_warns_and_falls_back(self, monkeypatch):
        from repro.core import env as mod

        monkeypatch.setattr(mod, "_WARNED", set())
        monkeypatch.setenv("REPRO_SCALE", "nan")
        with pytest.warns(RuntimeWarning, match="not a number"):
            assert scale() == 0.3

    def test_out_of_range_scale_warns_and_clamps(self, monkeypatch):
        from repro.core import env as mod

        monkeypatch.setattr(mod, "_WARNED", set())
        monkeypatch.setenv("REPRO_SCALE", "2.5")
        with pytest.warns(RuntimeWarning, match="clamped to 1.0"):
            assert scale() == 1.0
        monkeypatch.setenv("REPRO_SCALE", "0.0001")
        with pytest.warns(RuntimeWarning, match="clamped to 0.01"):
            assert scale() == 0.01
        # in-range values never warn
        monkeypatch.setenv("REPRO_SCALE", "0.5")
        with warnings.catch_warnings(record=True) as captured:
            warnings.simplefilter("always")
            assert scale() == 0.5
        assert captured == []


class TestFaultConfigs:
    def test_fault_kinds(self):
        for kind, attr in (
            ("random", "random_loss_rate"),
            ("bursty", "bursty_loss_rate"),
        ):
            config = fault_config(kind, transactions=100)
            assert len(config.faults) == 3  # injected at every site
            for plan in config.faults.values():
                assert getattr(plan, attr) == pytest.approx(0.05)

    def test_none_kind_has_no_faults(self):
        assert fault_config("none", transactions=100).faults == {}

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            fault_config("meteor")

    def test_prototype_gcs_used_by_default(self):
        config = fault_config("random", transactions=100)
        proto = prototype_gcs_config()
        assert config.gcs.buffer_share == proto.buffer_share
        assert config.gcs.nack_timeout == proto.nack_timeout

    def test_gcs_override_respected(self):
        from repro.gcs.config import GcsConfig

        custom = GcsConfig(buffer_share=7)
        config = fault_config("random", transactions=100, gcs=custom)
        assert config.gcs.buffer_share == 7

    def test_safety_matrix_covers_all_fault_loads(self):
        """The paper's five fault types plus the recovery fault-loads
        (crash→recover and partition→heal, member and sequencer)."""
        plans = safety_fault_plans()
        assert set(plans) == {
            "clock-drift",
            "scheduling-latency",
            "random-loss",
            "bursty-loss",
            "crash-member",
            "crash-sequencer",
            "crash-recover-member",
            "crash-recover-sequencer",
            "partition-heal-member",
            "partition-heal-sequencer",
        }
        assert plans["crash-sequencer"][0].episodes("crash") == ((20.0, inf),)
        assert plans["clock-drift"][1].clock_drift_rate > 0
        ((crash, recover),) = plans["crash-recover-sequencer"][0].episodes("crash")
        assert recover > crash
        ((cut, heal),) = plans["partition-heal-member"][2].episodes("partition")
        assert heal > cut


class TestScenarioConfigValidation:
    @pytest.mark.parametrize(
        "bad",
        [
            {"sites": 0},
            {"clients": 0},
            {"transactions": 0},
            {"probe_interval": 0.0},
            {"probe_interval": nan},
            {"sample_interval": 0},
            {"sample_interval": -1.0},
            {"max_sim_time": 0.0},
            {"max_sim_time": nan},
            {"drain_time": -1},
            {"drain_time": nan},
        ],
        ids=str,
    )
    def test_invalid_configs_rejected(self, bad):
        from repro.core.experiment import ScenarioConfig

        with pytest.raises(ValueError):
            ScenarioConfig(**bad)

    def test_zero_drain_time_is_valid(self):
        from repro.core.experiment import ScenarioConfig

        assert ScenarioConfig(drain_time=0.0).drain_time == 0.0
