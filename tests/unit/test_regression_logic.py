"""Unit tests for the regression-comparison logic (no scenario runs)."""

import json

import pytest

from repro.analysis.metrics import get_metric
from repro.core.regression import (
    _ABSOLUTE_FLOOR,
    DEFAULT_TOLERANCES,
    Regression,
    RegressionSuite,
)
from repro.core.experiment import ScenarioConfig


def suite(**kwargs):
    return RegressionSuite(
        {"s": ScenarioConfig(sites=1, clients=5, transactions=10)}, **kwargs
    )


def baseline(**metrics):
    values = {
        "records": 100.0,
        "throughput_tpm": 1000.0,
        "mean_latency_ms": 50.0,
        "abort_rate": 3.0,
        "cert_p99_ms": 10.0,
        "cpu_protocol": 0.01,
    }
    values.update(metrics)
    return values


class TestMetricNames:
    @pytest.mark.parametrize("name", sorted({*DEFAULT_TOLERANCES, *_ABSOLUTE_FLOOR}))
    def test_every_toleranced_and_floored_name_is_a_metric(self, name):
        assert get_metric(name).name == name


class TestCompare:
    def test_identical_is_clean(self):
        findings = suite()._compare("s", baseline(), baseline())
        assert findings == []

    def test_lower_throughput_is_regression(self):
        findings = suite()._compare(
            "s", baseline(), baseline(throughput_tpm=800.0)
        )
        assert [f.metric for f in findings] == ["throughput_tpm"]

    def test_higher_throughput_is_not(self):
        findings = suite()._compare(
            "s", baseline(), baseline(throughput_tpm=1500.0)
        )
        assert findings == []

    def test_higher_latency_is_regression(self):
        findings = suite()._compare(
            "s", baseline(), baseline(mean_latency_ms=80.0)
        )
        assert [f.metric for f in findings] == ["mean_latency_ms"]

    def test_lower_latency_is_not(self):
        findings = suite()._compare(
            "s", baseline(), baseline(mean_latency_ms=20.0)
        )
        assert findings == []

    def test_within_tolerance_is_clean(self):
        wiggle = baseline(
            throughput_tpm=1000.0 * (1 - DEFAULT_TOLERANCES["throughput_tpm"] / 2)
        )
        assert suite()._compare("s", baseline(), wiggle) == []

    def test_absolute_floor_suppresses_noise_near_zero(self):
        quiet = baseline(abort_rate=0.0, cert_p99_ms=0.0)
        noisy = baseline(abort_rate=0.3, cert_p99_ms=1.0)
        assert suite()._compare("s", quiet, noisy) == []

    def test_null_on_both_sides_is_clean(self):
        centralized = baseline(cert_p99_ms=None)
        assert suite()._compare("s", centralized, centralized) == []

    @pytest.mark.parametrize("side", ["baseline", "measured"])
    def test_null_on_one_side_is_a_reliability_finding(self, side):
        sides = {"baseline": baseline(), "measured": baseline()}
        sides[side]["cert_p99_ms"] = None
        findings = suite()._compare("s", sides["baseline"], sides["measured"])
        assert findings == [
            Regression(
                "s",
                "cert_p99_ms",
                sides["baseline"]["cert_p99_ms"],
                sides["measured"]["cert_p99_ms"],
                "reliability",
            )
        ]


class TestCheck:
    """``check`` over a doctored baseline file, with the replay stubbed
    to a fixed measurement."""

    def check(self, tmp_path, stored, measured=None, status="ok"):
        path = tmp_path / "baselines.json"
        path.write_text(json.dumps({"s": stored}))
        regression_suite = suite()
        regression_suite._run_all = lambda names: {
            name: (measured or baseline(), status) for name in names
        }
        return regression_suite.check(path)

    def test_recorded_baseline_is_clean(self, tmp_path):
        assert self.check(tmp_path, baseline()) == []

    def test_records_drop_below_90_percent_is_a_reliability_finding(self, tmp_path):
        findings = self.check(tmp_path, baseline(), baseline(records=89.0))
        assert findings == [Regression("s", "records", 100.0, 89.0, "reliability")]

    def test_records_at_90_percent_is_clean(self, tmp_path):
        assert self.check(tmp_path, baseline(), baseline(records=90.0)) == []

    def test_entry_missing_a_toleranced_metric_is_refused(self, tmp_path):
        partial = baseline()
        del partial["cert_p99_ms"]
        with pytest.raises(ValueError, match=r"baselines\.json.*'s'.*cert_p99_ms"):
            self.check(tmp_path, partial)

    def test_entry_missing_records_is_refused(self, tmp_path):
        partial = baseline()
        del partial["records"]
        with pytest.raises(ValueError, match=r"baselines\.json.*'s'.*records"):
            self.check(tmp_path, partial)

    def test_entry_with_an_unknown_key_is_refused(self, tmp_path):
        with pytest.raises(ValueError, match=r"baselines\.json.*'s'.*completed"):
            self.check(tmp_path, baseline(completed=100))

    def test_old_form_entry_is_refused(self, tmp_path):
        old = {
            "name": "s",
            "metrics": {"throughput_tpm": 1000.0, "mean_latency": 0.05},
            "completed": 100,
        }
        with pytest.raises(ValueError, match=r"baselines\.json.*'s'"):
            self.check(tmp_path, old)


def test_regression_repr():
    finding = Regression("s", "abort_rate", 3.0, 9.0, "performance")
    assert "abort_rate" in str(finding)
    assert "null" in str(Regression("s", "cert_p99_ms", None, 2.0, "reliability"))
