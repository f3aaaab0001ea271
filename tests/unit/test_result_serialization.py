"""Serialization round-trip: results must cross process boundaries and
survive the artifact store with every log and derived metric intact."""

import dataclasses
import gc
import json
import math
import types

import pytest

from repro.analysis import available_metrics, metric_value
from repro.analysis.metrics import cert_latencies
from repro.campaigns import available_campaigns, get_campaign
from repro.core.experiment import Scenario, ScenarioConfig, ScenarioResult, Site
from repro.core.faults import FaultPlan, bursty_loss, crash_recover, random_loss
from repro.core.kernel import Simulator
from repro.core.metrics import (
    MetricsCollector,
    ResourceSample,
    SampleSeries,
    TxRecord,
)
from repro.core.safety import CommitLog
from repro.db.storage import SECTOR_CONCURRENCY, SECTOR_LATENCY
from repro.gcs.config import SEND_BURST, SEND_RATE, GcsConfig
from repro.net.network import LAN_BANDWIDTH_BPS, LAN_LINK_LATENCY


def small_result(sites=3, transactions=150, seed=9, **overrides):
    config = ScenarioConfig(
        sites=sites,
        cpus_per_site=1,
        clients=30,
        transactions=transactions,
        seed=seed,
        **overrides,
    )
    return Scenario(config).run()


def roundtrip(result):
    """to_dict -> JSON text -> from_dict, as the artifact store does."""
    return ScenarioResult.from_dict(json.loads(json.dumps(result.to_dict())))


def reaches(root, kinds):
    """Whether an instance of ``kinds`` is reachable from ``root``
    through instance data (classes, modules and functions not followed)."""
    seen, stack = set(), [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(
            obj, (type, types.ModuleType, types.FunctionType)
        ):
            continue
        if isinstance(obj, kinds):
            return True
        seen.add(id(obj))
        stack.extend(gc.get_referents(obj))
    return False


class TestPieceRoundTrips:
    def test_tx_record(self):
        record = TxRecord(
            tx_id=7,
            tx_class="neworder",
            site="site0",
            submit_time=1.25,
            end_time=1.75,
            outcome="abort",
            readonly=False,
            certification_latency=0.012,
            abort_reason="ww-conflict",
        )
        assert TxRecord._make(list(record)) == record

    def test_metrics_collector(self):
        collector = MetricsCollector()
        collector.record(1, "payment-short", "site1", 0.0, 0.5, "commit", False)
        clone = MetricsCollector.from_dict(collector.to_dict())
        assert clone.records == collector.records

    def test_metrics_collector_rejects_unknown_encoding(self):
        with pytest.raises(ValueError):
            MetricsCollector.from_dict({"fields": ["bogus"], "records": []})

    def test_sample_series(self):
        series = SampleSeries(
            [ResourceSample(5.0, 0.5, 0.1, 0.2, 4096)], interval=5.0
        )
        clone = SampleSeries.from_dict(series.to_dict())
        assert clone.samples == series.samples
        assert clone.interval == series.interval
        assert clone.mean_cpu() == series.mean_cpu()

    @pytest.mark.parametrize(
        "row",
        [
            [5.0, 0.5, 0.1, 0.2],
            [5.0, 0.5, 0.1, 0.2, 4096, 0],
            [5.0, 0.5, 0.1, "x", 4096],
            [5.0, 0.5, 0.1, 0.2, 4096.0],
        ],
        ids=["short", "long", "text-disk", "float-bytes"],
    )
    def test_sample_series_rejects_a_malformed_row(self, row):
        good = [5.0, 0.5, 0.1, 0.2, 4096]
        with pytest.raises((TypeError, ValueError)):
            SampleSeries.from_dict({"interval": 5.0, "samples": [good, row]})

    @pytest.mark.parametrize(
        "entry", [[1], [1, 2, 3], [1, "x"], [1.0, 2]], ids=str
    )
    def test_commit_log_rejects_a_malformed_entry(self, entry):
        data = {"site": "site0", "entries": [[1, 10], entry], "crashed": False}
        with pytest.raises((TypeError, ValueError)):
            CommitLog.from_dict(data)

    def test_commit_log(self):
        log = CommitLog(site="site2", crashed=True)
        log.append(1, 10)
        log.append(2, 11)
        clone = CommitLog.from_dict(log.to_dict())
        assert clone.sequence() == log.sequence()
        assert clone.site == log.site
        assert clone.crashed is True

    def test_fault_plan_and_gcs_config(self):
        plan = FaultPlan(bursty_loss_rate=0.05, bursty_loss_burst=4.0, seed=3)
        assert FaultPlan.from_dict(plan.to_dict()) == plan
        gcs = GcsConfig(buffer_share=17, nack_timeout=0.5)
        assert GcsConfig.from_dict(gcs.to_dict()) == gcs


class TestConfigRoundTrip:
    @pytest.mark.parametrize(
        "value",
        [
            ScenarioConfig(faults={1: crash_recover(20.0, 35.0)}),
            GcsConfig(),
            FaultPlan(actions=((20.0, "crash"), (35.0, "recover"))),
        ],
        ids=lambda value: type(value).__name__,
    )
    def test_encoding_is_the_dataclass_fields(self, value):
        """A stored config holds its fields, in order, and nothing else."""
        names = [f.name for f in dataclasses.fields(value)]
        assert list(value.to_dict()) == names

    @pytest.mark.parametrize("cls", [ScenarioConfig, GcsConfig, FaultPlan])
    def test_unknown_key_is_refused_by_name(self, cls):
        data = cls().to_dict()
        data["profiles"] = None
        with pytest.raises(ValueError, match="profiles"):
            cls.from_dict(data)

    def test_scenario_runs_with_the_fixed_calibration(self):
        """The §4.1 calibration is module constants, not settings: every
        site of a scenario is built with them."""
        scenario = Scenario(ScenarioConfig(sites=3, clients=30))
        network = scenario.network
        assert (network.default_bandwidth_bps, network.default_link_latency) == (
            LAN_BANDWIDTH_BPS,
            LAN_LINK_LATENCY,
        )
        assert len(scenario.sites) == 3
        for site in scenario.sites:
            storage = site.storage
            assert (storage.sector_latency, storage.concurrency) == (
                SECTOR_LATENCY,
                SECTOR_CONCURRENCY,
            )
            bucket = site.gcs.reliable.bucket
            assert (bucket.rate, bucket.burst) == (SEND_RATE, SEND_BURST)

    @pytest.mark.parametrize("name", available_campaigns())
    def test_every_builtin_cell_round_trips_exactly(self, name):
        """Artifacts are keyed on the config a result carries, which is
        sound only if every cell decodes back to itself."""
        for label, config in get_campaign(name).expand():
            clone = ScenarioConfig.from_dict(
                json.loads(json.dumps(config.to_dict()))
            )
            assert clone == config, label
            assert clone.to_dict() == config.to_dict(), label

    def test_default_config_exact(self):
        config = ScenarioConfig(sites=3, clients=75, transactions=400, seed=5)
        clone = ScenarioConfig.from_dict(
            json.loads(json.dumps(config.to_dict()))
        )
        assert clone == config
        assert clone.to_dict() == config.to_dict()

    def test_faulty_config_round_trips_plans(self):
        config = ScenarioConfig(
            sites=3,
            clients=60,
            transactions=300,
            faults={
                0: random_loss(0.05, seed=1),
                2: bursty_loss(0.05, burst=3.0, seed=2),
            },
            gcs=GcsConfig(buffer_share=56),
        )
        clone = ScenarioConfig.from_dict(
            json.loads(json.dumps(config.to_dict()))
        )
        assert clone == config

class TestResultRoundTrip:
    @pytest.fixture(scope="class")
    def pair(self):
        result = small_result()
        return result, roundtrip(result)

    def test_a_run_and_its_copy_are_one_form(self, pair):
        """A run returns a value: the result ``Scenario.run`` builds and
        its ``from_dict`` copy — which every ``run_campaign`` cell is, on
        every source — carry the same attributes, and neither holds the
        simulation graph; live sites stay on the ``Scenario``."""
        result, clone = pair
        public = lambda r: {
            name: type(value)
            for name, value in vars(r).items()
            if not name.startswith("_")
        }
        assert public(result) == public(clone)
        for value in pair:
            assert not hasattr(value, "sites")
            assert not reaches(value, (Scenario, Site, Simulator))

    def test_derived_metrics_exact(self, pair):
        result, clone = pair
        classes = sorted({r.tx_class for r in result.metrics.records})
        for name in [*available_metrics(), *(f"abort_rate[{c}]" for c in classes)]:
            a, b = metric_value(result, name), metric_value(clone, name)
            assert a == b or (math.isnan(a) and math.isnan(b)), name
        assert clone.sim_time == result.sim_time

    def test_records_exact(self, pair):
        result, clone = pair
        assert clone.metrics.records == result.metrics.records
        assert cert_latencies(clone) == cert_latencies(result)

    def test_commit_logs_and_safety(self, pair):
        result, clone = pair
        assert [log.to_dict() for log in clone.commit_logs()] == [
            log.to_dict() for log in result.commit_logs()
        ]
        assert clone.check_safety() == result.check_safety()

    def test_site_stats_preserved(self, pair):
        result, clone = pair
        assert clone.site_stats == result.site_stats
        assert clone.site_stats  # replicated run: certifier counters exist
        for stats in clone.site_stats.values():
            assert stats["certified"] == stats["committed"] + stats["aborted"]

    def test_live_and_loaded_samplers_share_one_shape(self, pair):
        result, clone = pair
        assert type(result.sampler) is SampleSeries
        assert result.sampler.samples
        assert result.sampler.to_dict() == clone.sampler.to_dict()

    def test_capture_totals_preserved(self, pair):
        result, clone = pair
        assert clone.capture.total_bytes == result.capture.total_bytes
        assert clone.capture.total_packets == result.capture.total_packets

    def test_double_round_trip_stable(self, pair):
        _, clone = pair
        assert roundtrip(clone).to_dict() == clone.to_dict()

    def test_crashed_site_round_trips(self):
        result = small_result(
            transactions=100,
            faults={2: FaultPlan(actions=((15.0, "crash"),))},
            max_sim_time=400.0,
        )
        clone = roundtrip(result)
        assert [log.crashed for log in clone.commit_logs()] == [
            log.crashed for log in result.commit_logs()
        ]
        assert clone.check_safety() == result.check_safety()

    def test_centralized_run_round_trips(self):
        result = small_result(sites=1, transactions=100)
        clone = roundtrip(result)
        assert clone.commit_logs() == []
        assert clone.check_safety() == {}
        assert metric_value(clone, "throughput_tpm") == metric_value(
            result, "throughput_tpm"
        )
        assert metric_value(clone, "net_kbps") == 0.0

    def test_recovery_events_round_trip(self):
        result = small_result(
            transactions=150,
            faults={2: crash_recover(15.0, 28.0)},
            max_sim_time=400.0,
        )
        clone = roundtrip(result)
        assert [e.to_dict() for e in clone.recovery_events] == [
            e.to_dict() for e in result.recovery_events
        ]
        assert clone.recovery_events, "rejoin produced no event"
        for metric in ("time_to_rejoin", "orphaned_commits"):
            assert metric_value(clone, metric) == metric_value(result, metric)

    @pytest.mark.parametrize("key", ["site_stats", "recovery", "violations"])
    def test_a_result_without_a_stored_key_is_refused(self, key):
        """Every key is written by the one format; none is defaulted."""
        data = small_result(transactions=100).to_dict()
        del data[key]
        with pytest.raises(KeyError):
            ScenarioResult.from_dict(data)

    def test_unknown_format_rejected(self):
        result = small_result(sites=1, transactions=100)
        data = result.to_dict()
        data["format"] = "repro.scenario_result/999"
        with pytest.raises(ValueError):
            ScenarioResult.from_dict(data)
