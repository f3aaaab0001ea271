"""Integration: the replicated database (3 sites over the GCS)."""

import pytest

from repro.analysis.metrics import cert_latencies, metric_value
from repro.core.experiment import Scenario, ScenarioConfig


def class_latencies(result, tx_class):
    return [
        r.latency
        for r in result.metrics.records
        if r.committed and r.tx_class == tx_class
    ]


@pytest.fixture(scope="module")
def run():
    """One 3-site run: its Scenario, which holds the live sites, and
    its result."""
    config = ScenarioConfig(
        sites=3, cpus_per_site=1, clients=90, transactions=500, seed=21
    )
    scenario = Scenario(config)
    return scenario, scenario.run()


@pytest.fixture(scope="module")
def result(run):
    return run[1]


@pytest.fixture(scope="module")
def sites(run):
    return run[0].sites


class TestReplicatedRun:
    def test_transactions_complete(self, result):
        assert len(result.metrics.records) >= 500

    def test_safety_all_sites_same_sequence(self, result):
        counts = result.check_safety()
        assert len(counts) == 3
        assert len(set(counts.values())) == 1

    def test_every_site_served_clients(self, sites):
        for site in sites:
            assert site.server.stats["local_committed"] > 0

    def test_update_transactions_certified(self, result):
        certs = cert_latencies(result)
        assert len(certs) > 100
        assert all(c > 0 for c in certs)

    def test_remote_applies_happened(self, sites):
        for site in sites:
            assert site.server.stats["remote_applied"] > 0

    def test_network_carried_protocol_traffic(self, result):
        assert result.capture.total_packets > 0
        assert metric_value(result, "net_kbps") > 0

    def test_protocol_cpu_charged(self, result):
        assert metric_value(result, "cpu_protocol") > 0.0

    def test_view_stayed_stable(self, sites):
        for site in sites:
            assert site.gcs.view_id == 1

    def test_readonly_latency_unaffected_by_replication(self, result):
        """§5.1: read-only transactions commit locally, so their latency
        must not include any certification round-trip."""
        ro = class_latencies(result, "orderstatus-short")
        assert ro, "no read-only samples"
        # read-only latencies are pure local processing: typically a few
        # ms; they must not be inflated past the median certified path
        import statistics

        assert statistics.median(ro) < statistics.median(
            class_latencies(result, "payment-short")
        )

    def test_commit_watermark_advances_everywhere(self, sites):
        for site in sites:
            assert site.replica.applied_watermark() > 0


class TestEquivalentCentralized:
    def test_throughput_close_to_same_cpu_centralized(self):
        """§5.1: the replicated system's throughput is very close to the
        centralized system with the same number of CPUs."""
        results = {}
        for label, sites, cpus in (("central", 1, 3), ("replicated", 3, 1)):
            config = ScenarioConfig(
                sites=sites,
                cpus_per_site=cpus,
                clients=120,
                transactions=500,
                seed=23,
            )
            results[label] = metric_value(Scenario(config).run(), "throughput_tpm")
        assert results["replicated"] == pytest.approx(
            results["central"], rel=0.15
        )
