"""Integration: the centralized baseline (1 site, N CPUs, no replication)."""

import pytest

from repro.analysis.metrics import cert_latencies, metric_value
from repro.core.experiment import Scenario, ScenarioConfig


@pytest.fixture(scope="module")
def result():
    config = ScenarioConfig(
        sites=1, cpus_per_site=1, clients=60, transactions=400, seed=11
    )
    return Scenario(config).run()


class TestCentralizedRun:
    def test_transactions_complete(self, result):
        assert len(result.metrics.records) >= 400

    def test_throughput_positive(self, result):
        assert metric_value(result, "throughput_tpm") > 0

    def test_no_certification_latencies(self, result):
        """Centralized runs have no replication protocol at all."""
        assert cert_latencies(result) == []
        assert result.capture.total_packets == 0

    def test_no_commit_logs(self, result):
        assert result.commit_logs() == []
        assert result.check_safety() == {}

    def test_cpu_was_used(self, result):
        assert metric_value(result, "cpu_total") > 0.0
        assert metric_value(result, "cpu_protocol") == 0.0  # no protocol jobs exist

    def test_disk_was_used(self, result):
        assert metric_value(result, "disk") > 0.0

    def test_all_classes_observed(self, result):
        classes = {r.tx_class for r in result.metrics.records}
        assert {"neworder", "payment-long", "payment-short"} <= classes

    def test_readonly_classes_never_abort(self, result):
        assert metric_value(result, "abort_rate[orderstatus-short]") == 0.0
        assert metric_value(result, "abort_rate[stocklevel]") == 0.0


class TestMoreCpusMoreThroughputUnderLoad:
    def test_three_cpus_cut_latency(self):
        """With the same heavy load, 3 CPUs beat 1 CPU on latency."""
        lat = {}
        for cpus in (1, 3):
            config = ScenarioConfig(
                sites=1,
                cpus_per_site=cpus,
                clients=400,
                transactions=800,
                seed=13,
            )
            res = Scenario(config).run()
            lat[cpus] = metric_value(res, "mean_latency_ms")
        assert lat[3] < lat[1]
