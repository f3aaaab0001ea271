"""Serialization round-trip: results must cross process boundaries and
survive the artifact store with every log and derived metric intact."""

import json
import math

import pytest

from repro.analysis import available_metrics, metric_value
from repro.analysis.metrics import cert_latencies
from repro.campaigns import available_campaigns, get_campaign
from repro.core.experiment import Scenario, ScenarioConfig, ScenarioResult
from repro.core.faults import FaultPlan, bursty_loss, crash_recover, random_loss
from repro.core.metrics import (
    MetricsCollector,
    ResourceSample,
    SampleSeries,
    TxRecord,
)
from repro.core.safety import CommitLog
from repro.gcs.config import GcsConfig


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
        collector.record(
            TxRecord(1, "payment-short", "site1", 0.0, 0.5, "commit", False)
        )
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
    #: The stored config encoding, key for key and in order: stored
    #: cells, result digests and resume all read it.  ``profiles`` is a
    #: null slot kept from when the CPU profile was a field.
    STORED_KEYS = (
        "sites", "cpus_per_site", "clients", "transactions", "seed",
        "protocol", "fragments", "placement", "monitors", "profiles", "gcs",
        "faults", "clock_mode", "storage_sector_latency",
        "storage_concurrency", "storage_cache_hit_ratio", "net_bandwidth_bps",
        "net_link_latency", "readset_escalation_threshold", "sample_interval",
        "max_sim_time", "drain_time", "probe_interval",
    )

    #: The stored GcsConfig encoding, key for key, in order and by value:
    #: every stored cell's config embeds it.
    GCS_STORED = {
        "buffer_share": 64,
        "nack_timeout": 0.080,
        "nack_batch": 32,
        "stability_interval": 0.120,
        "nack_processing_cost": 250e-6,
        "nack_per_message_cost": 60e-6,
        "retransmit_processing_cost": 150e-6,
        "send_rate": 4000.0,
        "send_burst": 64,
        "sequence_batch_interval": 0.002,
        "heartbeat_interval": 0.200,
        "suspect_after": 2.0,
        "view_retransmit": 0.100,
        "max_packet": 1400,
        "state_retry": 0.250,
    }

    def test_encoding_keys_are_fixed(self):
        data = ScenarioConfig().to_dict()
        assert tuple(data) == self.STORED_KEYS
        assert data["profiles"] is None

    def test_gcs_encoding_is_fixed(self):
        assert json.dumps(GcsConfig().to_dict()) == json.dumps(self.GCS_STORED)

    def test_stored_calibration_is_what_ran(self):
        """The calibration a stored config records is the one its
        scenario was built with, at every site."""
        scenario = Scenario(ScenarioConfig(sites=3, clients=30))
        data = scenario.config.to_dict()
        network = scenario.network
        assert (data["net_bandwidth_bps"], data["net_link_latency"]) == (
            network.default_bandwidth_bps,
            network.default_link_latency,
        )
        gcs = scenario.config.gcs.to_dict()
        assert len(scenario.sites) == 3
        for site in scenario.sites:
            storage = site.storage
            assert (
                data["storage_sector_latency"],
                data["storage_concurrency"],
                data["storage_cache_hit_ratio"],
            ) == (storage.sector_latency, storage.concurrency, storage.cache_hit_ratio)
            bucket = site.gcs.reliable.bucket
            assert (gcs["send_rate"], gcs["send_burst"]) == (bucket.rate, bucket.burst)

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

    def test_artifacts_without_recovery_key_still_load(self):
        """Artifacts written before the recovery subsystem lack the
        'recovery' key; from_dict must default it to empty."""
        result = small_result(transactions=100)
        data = result.to_dict()
        del data["recovery"]
        clone = ScenarioResult.from_dict(data)
        assert clone.recovery_events == []

    def test_unknown_format_rejected(self):
        result = small_result(sites=1, transactions=100)
        data = result.to_dict()
        data["format"] = "repro.scenario_result/999"
        with pytest.raises(ValueError):
            ScenarioResult.from_dict(data)
