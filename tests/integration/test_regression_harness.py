"""Integration: the §7 automated regression harness."""

import json

import pytest

from repro import CampaignSpec
from repro.core.experiment import ScenarioConfig
from repro.core.regression import Regression, RegressionSuite
from repro.core.safety import SafetyViolation

from test_seed_1007_pin import SPEC as F2_SPEC


def small_suite(**overrides):
    scenarios = {
        "replicated-light": ScenarioConfig(
            sites=3, cpus_per_site=1, clients=45, transactions=200, seed=5
        ),
        "centralized-light": ScenarioConfig(
            sites=1, cpus_per_site=1, clients=30, transactions=150, seed=6
        ),
    }
    return RegressionSuite(scenarios, **overrides)


class TestRecordCheckCycle:
    def test_clean_tree_reproduces_baseline(self, tmp_path):
        """Determinism: record then check on the same code = no findings."""
        path = tmp_path / "baselines.json"
        suite = small_suite()
        baselines = suite.record(path)
        assert set(baselines) == {"replicated-light", "centralized-light"}
        findings = suite.check(path)
        assert findings == []

    def test_baseline_file_is_readable_json(self, tmp_path):
        path = tmp_path / "baselines.json"
        small_suite().record(path)
        data = json.loads(path.read_text())
        entry = data["replicated-light"]
        assert entry["metrics"]["throughput_tpm"] > 0
        assert entry["completed"] >= 200

    def test_throughput_regression_detected(self, tmp_path):
        path = tmp_path / "baselines.json"
        suite = small_suite()
        suite.record(path)
        # simulate a performance regression: inflate the baseline so the
        # (unchanged) measured run looks slow
        data = json.loads(path.read_text())
        data["replicated-light"]["metrics"]["throughput_tpm"] *= 2.0
        path.write_text(json.dumps(data))
        findings = suite.check(path)
        assert any(
            f.metric == "throughput_tpm" and f.kind == "performance"
            for f in findings
        )

    def test_latency_regression_detected(self, tmp_path):
        path = tmp_path / "baselines.json"
        suite = small_suite()
        suite.record(path)
        data = json.loads(path.read_text())
        data["centralized-light"]["metrics"]["mean_latency"] /= 3.0
        path.write_text(json.dumps(data))
        findings = suite.check(path)
        assert any(f.metric == "mean_latency" for f in findings)

    def test_missing_scenario_is_reliability_finding(self, tmp_path):
        path = tmp_path / "baselines.json"
        suite = small_suite()
        suite.record(path)
        data = json.loads(path.read_text())
        del data["centralized-light"]
        path.write_text(json.dumps(data))
        findings = suite.check(path)
        assert any(
            f.scenario == "centralized-light" and f.kind == "reliability"
            for f in findings
        )

    def test_tolerances_are_configurable(self, tmp_path):
        path = tmp_path / "baselines.json"
        suite = small_suite(tolerances={"throughput_tpm": 0.9})
        suite.record(path)
        data = json.loads(path.read_text())
        data["replicated-light"]["metrics"]["throughput_tpm"] *= 1.5
        path.write_text(json.dumps(data))
        # 50% drop tolerated at 90% tolerance
        assert not any(
            f.metric == "throughput_tpm" for f in suite.check(path)
        )

    def test_parallel_suite_matches_sequential(self, tmp_path):
        """Recording with worker processes and checking sequentially (or
        vice versa) is clean: scenario metrics do not depend on which
        process ran them."""
        path = tmp_path / "baselines.json"
        small_suite(workers=2).record(path)
        assert small_suite(workers=1).check(path) == []
        assert small_suite(workers=2).check(path) == []

    def test_empty_suite_rejected(self):
        with pytest.raises(ValueError):
            RegressionSuite({})

    def test_regression_str(self):
        finding = Regression("s", "throughput_tpm", 100.0, 50.0, "performance")
        text = str(finding)
        assert "s.throughput_tpm" in text and "performance" in text


class TestVerdicts:
    """A scenario whose verdict is not ok is a reliability finding named
    after the verdict, and never becomes a baseline (finding F2's cell,
    pinned in test_seed_1007_pin.py, is ``diverged``)."""

    @pytest.fixture(scope="class")
    def f2_suite(self):
        ((_, config),) = CampaignSpec.from_dict(F2_SPEC).expand()
        return RegressionSuite({"f2": config})

    def test_record_refuses_a_bad_verdict(self, f2_suite, tmp_path):
        path = tmp_path / "baselines.json"
        with pytest.raises(SafetyViolation, match="diverged"):
            f2_suite.record(path)
        assert not path.exists()

    def test_check_names_the_verdict(self, f2_suite, tmp_path):
        path = tmp_path / "baselines.json"
        baseline = {"name": "f2", "metrics": {}, "completed": 0}
        path.write_text(json.dumps({"f2": baseline}))
        assert f2_suite.check(path) == [
            Regression("f2", "diverged", 1.0, 0.0, "reliability")
        ]
