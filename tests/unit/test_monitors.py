"""Unit coverage for the runtime invariant-monitor subsystem: the
name table, violation serialization, config validation, artifact-store
persistence and the ``violations`` metrics (NaN-vs-zero semantics)."""

import json
import math

import pytest

from repro.analysis import metric_value
from repro.analysis.resultset import ResultSet
from repro.core.experiment import Scenario, ScenarioConfig, ScenarioResult
from repro.monitors import (
    ALL_MONITORS,
    MONITORS,
    InvariantViolation,
    Monitor,
    MonitorHub,
    applicable_monitors,
    available_monitors,
    build_hub,
    resolve_monitors,
)
from repro.runner.store import ArtifactStore

MONITOR_NAMES = ("one-copy-sr", "view-synchrony", "primary-component", "gcs-ordering")


def small_result(**overrides):
    config = ScenarioConfig(
        sites=3,
        cpus_per_site=1,
        clients=30,
        transactions=120,
        seed=11,
        **overrides,
    )
    return Scenario(config).run()


class TestRegistry:
    def test_all_builtin_monitors_registered(self):
        assert available_monitors() == MONITOR_NAMES

    @pytest.mark.parametrize("name", MONITOR_NAMES)
    def test_build_monitor(self, name):
        monitor = MONITORS[name]()
        assert isinstance(monitor, Monitor)
        assert monitor.name == name

    def test_table_keys_are_class_names_and_all_is_table_order(self):
        for name, cls in MONITORS.items():
            assert cls.name == name
        assert ALL_MONITORS not in MONITORS
        assert resolve_monitors(ALL_MONITORS) == tuple(MONITORS)

    def test_arming_builds_no_monitor(self, monkeypatch):
        """Arming decisions read the table's names; only the hub builds
        monitors."""

        class Unbuildable:
            def __init__(self):
                raise AssertionError("applicability built a monitor")

        monkeypatch.setitem(MONITORS, "test-unbuildable", Unbuildable)
        config = ScenarioConfig(
            sites=4,
            clients=120,
            protocol="partial",
            fragments=2,
            monitors=("test-unbuildable",),
        )
        assert applicable_monitors(config) == ("test-unbuildable",)

    def test_each_hub_builds_fresh_monitors(self):
        """The table holds classes: two runs never share monitor state."""
        config = ScenarioConfig(sites=3, clients=30, monitors=("all",))
        first, second = build_hub(config, None), build_hub(config, None)
        assert [m.name for m in first.monitors] == list(MONITORS)
        for a, b in zip(first.monitors, second.monitors):
            assert type(a) is type(b) and a is not b

    def test_unknown_name_raises_naming_the_options(self):
        with pytest.raises(
            ValueError, match="unknown invariant monitor 'bogus'.*one-copy-sr"
        ):
            resolve_monitors("bogus")

    def test_resolve_all_sentinel(self):
        assert resolve_monitors(("all",)) == MONITOR_NAMES

    def test_resolve_string_coerced(self):
        assert resolve_monitors("one-copy-sr") == ("one-copy-sr",)

    def test_resolve_dedups_preserving_order(self):
        assert resolve_monitors(
            ("gcs-ordering", "one-copy-sr", "gcs-ordering")
        ) == ("gcs-ordering", "one-copy-sr")

    def test_resolve_unknown_raises(self):
        with pytest.raises(ValueError, match="bogus"):
            resolve_monitors(("one-copy-sr", "bogus"))


class TestConfigValidation:
    def test_unknown_monitor_fails_at_construction(self):
        with pytest.raises(ValueError, match="bogus"):
            ScenarioConfig(sites=3, clients=10, monitors=("bogus",))

    def test_string_monitors_coerced_to_tuple(self):
        config = ScenarioConfig(sites=3, clients=10, monitors="all")
        assert config.monitors == ("all",)

    def test_monitors_serialized_as_list(self):
        config = ScenarioConfig(sites=3, clients=10, monitors=("all",))
        data = json.loads(json.dumps(config.to_dict()))
        assert data["monitors"] == ["all"]
        assert ScenarioConfig.from_dict(data).monitors == ("all",)


class TestViolationRoundTrip:
    def test_to_from_dict(self):
        violation = InvariantViolation(
            monitor="one-copy-sr",
            site="site1",
            sim_time=12.5,
            detail="commit sequences diverge at index 3",
            seq=4,
        )
        clone = InvariantViolation.from_dict(violation.to_dict())
        assert clone == violation

    def test_seq_is_required(self):
        data = {
            "monitor": "gcs-ordering",
            "site": "site0",
            "sim_time": 1.0,
            "detail": "x",
        }
        with pytest.raises(KeyError, match="seq"):
            InvariantViolation.from_dict(data)

    def test_unknown_key_is_refused(self):
        data = InvariantViolation("gcs-ordering", "site0", 1.0, "x", 3).to_dict()
        data["label"] = "c1"
        with pytest.raises(ValueError, match="label"):
            InvariantViolation.from_dict(data)

    def test_result_round_trips_violations(self):
        result = small_result(monitors=("all",))
        result.violations.append(
            InvariantViolation("one-copy-sr", "site2", 3.0, "synthetic", 7)
        )
        clone = ScenarioResult.from_dict(
            json.loads(json.dumps(result.to_dict()))
        )
        assert clone.violations == result.violations


class TestStorePersistence:
    def test_monitored_cell_round_trips(self, tmp_path):
        store = ArtifactStore(tmp_path)
        result = small_result(monitors=("all",))
        store.save("cell", result)
        loaded = store.load("cell", result.config)
        assert loaded is not None
        assert loaded.violations == result.violations
        assert loaded.config.monitors == ("all",)

    def test_artifact_missing_monitors_key_is_rerun(self, tmp_path):
        """No backfill of keys an old artifact lacks: its config no
        longer matches, so ``load`` answers None (no exception) and the
        runner re-runs the cell — the safe direction."""
        store = ArtifactStore(tmp_path)
        result = small_result()
        path = store.save("cell", result)
        data = json.loads(path.read_text())
        del data["result"]["config"]["monitors"]
        path.write_text(json.dumps(data))
        assert store.load("cell", result.config) is None

    def test_monitored_config_does_not_match_unmonitored_artifact(
        self, tmp_path
    ):
        store = ArtifactStore(tmp_path)
        result = small_result()
        store.save("cell", result)
        monitored = ScenarioConfig(
            **{**_plain_kwargs(result.config), "monitors": ("all",)}
        )
        assert store.load("cell", monitored) is None


def _plain_kwargs(config):
    return dict(
        sites=config.sites,
        cpus_per_site=config.cpus_per_site,
        clients=config.clients,
        transactions=config.transactions,
        seed=config.seed,
    )


class TestViolationsMetric:
    @pytest.fixture(scope="class")
    def monitored(self):
        return small_result(monitors=("all",))

    @pytest.fixture(scope="class")
    def unmonitored(self):
        return small_result()

    def test_zero_when_monitored_and_clean(self, monitored):
        assert metric_value(monitored, "violations") == 0.0
        assert metric_value(monitored, "violations[one-copy-sr]") == 0.0

    def test_nan_when_unmonitored(self, unmonitored):
        assert math.isnan(metric_value(unmonitored, "violations"))
        assert math.isnan(
            metric_value(unmonitored, "violations[one-copy-sr]")
        )

    def test_nan_for_disabled_monitor(self):
        result = small_result(monitors=("gcs-ordering",))
        assert metric_value(result, "violations") == 0.0
        assert metric_value(result, "violations[gcs-ordering]") == 0.0
        assert math.isnan(metric_value(result, "violations[one-copy-sr]"))

    def test_counts_per_monitor(self, monitored):
        monitored.violations.append(
            InvariantViolation("one-copy-sr", "site1", 1.0, "synthetic")
        )
        try:
            assert metric_value(monitored, "violations") == 1.0
            assert metric_value(monitored, "violations[one-copy-sr]") == 1.0
            assert metric_value(monitored, "violations[gcs-ordering]") == 0.0
        finally:
            monitored.violations.clear()

    def test_resultset_exposes_violations(self, monitored, unmonitored):
        rs = ResultSet.from_results(
            [("on", monitored, {}), ("off", unmonitored, {})]
        )
        assert rs.value("on", "violations") == 0.0
        assert math.isnan(rs.value("off", "violations"))
        table = rs.table(("violations",))
        assert table.rows == ("on", "off")


class TestHubDispatch:
    def test_disabled_hooks_have_no_subscribers(self):
        class CommitOnly(Monitor):
            name = "commit-only"

            def on_commit(self, site, commit_seq, tx_id):
                pass

        hub = MonitorHub([CommitOnly()], total_sites=3, clock=lambda: 0.0)
        assert hub.subscribers["on_commit"]
        assert not hub.subscribers["on_deliver"]
        assert not hub.subscribers["on_view_installed"]

    def test_finish_sorts_violations(self):
        class Noisy(Monitor):
            name = "noisy"

            def finalize(self):
                self.emit(1, "b", sim_time=5.0)
                self.emit(0, "a", sim_time=1.0)

        hub = MonitorHub([Noisy()], total_sites=2, clock=lambda: 0.0)
        merged = hub.finish()
        assert [v.sim_time for v in merged] == [1.0, 5.0]
        assert merged[0].site == "site0"
