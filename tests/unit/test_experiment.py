"""Unit tests for scenario assembly (the Figure 2 architecture)."""

import pytest

from repro.analysis import metric_value
from repro.core.experiment import Scenario, ScenarioConfig
from repro.core.faults import FaultPlan, random_loss


class TestAssembly:
    def test_clients_split_evenly_with_remainder(self):
        scenario = Scenario(
            ScenarioConfig(sites=3, clients=10, transactions=10)
        )
        counts = [len(site.clients.clients) for site in scenario.sites]
        assert counts == [4, 3, 3]
        # client ids are globally unique
        ids = [
            c.client_id for site in scenario.sites for c in site.clients.clients
        ]
        assert sorted(ids) == list(range(10))

    def test_centralized_has_no_replication_machinery(self):
        scenario = Scenario(ScenarioConfig(sites=1, clients=5, transactions=5))
        site = scenario.sites[0]
        assert site.gcs is None
        assert site.replica is None
        assert site.runtime is None
        assert scenario.network.hosts == {}

    def test_replicated_sites_fully_wired(self):
        scenario = Scenario(ScenarioConfig(sites=3, clients=9, transactions=5))
        for site in scenario.sites:
            assert site.gcs is not None
            assert site.replica is not None
            assert site.runtime is not None
            assert site.server.termination is site.replica
        assert set(scenario.network.hosts) == {"site0", "site1", "site2"}

    def test_fault_plans_attach_injectors(self):
        config = ScenarioConfig(
            sites=3,
            clients=9,
            transactions=5,
            faults={1: random_loss(0.5)},
        )
        scenario = Scenario(config)
        assert scenario.sites[0].injector is None
        assert scenario.sites[1].injector is not None
        assert scenario.sites[1].injector.plan.random_loss_rate == 0.5

    def test_crash_scheduled(self):
        config = ScenarioConfig(
            sites=3,
            clients=9,
            transactions=10_000,  # unreachable: run ends at max_sim_time
            faults={2: FaultPlan(actions=((2.0, "crash"),))},
            max_sim_time=5.0,
        )
        result = Scenario(config).run()
        assert result.sites[2].replica.crashed
        assert result.sites[2].replica.commit_log.crashed
        assert not result.sites[0].replica.crashed

    def test_workloads_use_shared_warehouse_space(self):
        scenario = Scenario(ScenarioConfig(sites=2, clients=40, transactions=5))
        assert (
            scenario.sites[0].workload.layout.warehouses
            == scenario.sites[1].workload.layout.warehouses
            == 4
        )

    def test_run_stops_at_transaction_target(self):
        config = ScenarioConfig(
            sites=1, clients=20, transactions=100, seed=1, drain_time=2.0
        )
        result = Scenario(config).run()
        assert len(result.metrics.records) >= 100
        assert result.sim_time < config.max_sim_time

    def test_max_sim_time_caps_stuck_runs(self):
        config = ScenarioConfig(
            sites=1,
            clients=1,
            transactions=10_000,  # cannot complete in time
            max_sim_time=50.0,
        )
        result = Scenario(config).run()
        assert result.sim_time == pytest.approx(50.0)


class TestResultAccessors:
    def test_headline_metrics_exposed(self):
        result = Scenario(
            ScenarioConfig(sites=1, clients=10, transactions=50, seed=2)
        ).run()
        assert metric_value(result, "throughput_tpm") > 0
        assert metric_value(result, "mean_latency_ms") > 0
        assert 0 <= metric_value(result, "abort_rate") <= 100
        assert 0 <= metric_value(result, "cpu_total") <= 1
        assert metric_value(result, "cpu_protocol") == 0.0
        assert 0 <= metric_value(result, "disk") <= 1
        assert metric_value(result, "net_kbps") == 0.0
