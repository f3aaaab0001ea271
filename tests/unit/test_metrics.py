"""Unit tests for metrics: records, the record extractors,
distributions, sampling."""

import math
from types import SimpleNamespace

import pytest

from repro.analysis.metrics import cert_latencies, commit_latencies, metric_value
from repro.core.cpu import CpuPool
from repro.core.kernel import Simulator
from repro.core.metrics import (
    TX_RECORD_FIELDS,
    MetricsCollector,
    ResourceSampler,
    SampleSeries,
    TxRecord,
    ecdf,
    qq_points,
    quantiles,
)


def record(tx_id=1, tx_class="neworder", outcome="commit", submit=0.0, end=1.0,
           site="site0", readonly=False, cert=0.0):
    return TxRecord(
        tx_id=tx_id,
        tx_class=tx_class,
        site=site,
        submit_time=submit,
        end_time=end,
        outcome=outcome,
        readonly=readonly,
        certification_latency=cert,
    )


def log_of(*records):
    """A stand-in result whose transaction log holds ``records``: the
    record extractors read nothing else."""
    collector = MetricsCollector()
    for r in records:
        collector.record(*r)
    return SimpleNamespace(metrics=collector)


class TestRecordExtractors:
    def test_throughput_tpm(self):
        result = log_of(*(record(tx_id=i, end=60.0) for i in range(10)))
        assert metric_value(result, "throughput_tpm") == pytest.approx(10.0)

    def test_throughput_spans_first_submit_to_last_end(self):
        result = log_of(
            record(tx_id=1, submit=30.0, end=60.0),
            record(tx_id=2, submit=0.0, end=20.0),
            record(tx_id=3, submit=10.0, end=120.0),
        )
        assert metric_value(result, "throughput_tpm") == pytest.approx(1.5)

    def test_aborts_do_not_count_toward_throughput(self):
        result = log_of(
            record(tx_id=1, outcome="commit", end=60.0),
            record(tx_id=2, outcome="abort", end=60.0),
        )
        assert metric_value(result, "throughput_tpm") == pytest.approx(1.0)

    def test_abort_rate_per_class(self):
        result = log_of(
            record(tx_id=1, tx_class="payment-long", outcome="abort"),
            record(tx_id=2, tx_class="payment-long"),
            record(tx_id=3, tx_class="neworder"),
        )
        rate = lambda name: metric_value(result, name)
        assert rate("abort_rate[payment-long]") == pytest.approx(50.0)
        assert rate("abort_rate[neworder]") == 0.0
        assert rate("abort_rate") == pytest.approx(100.0 / 3.0)
        assert rate("abort_rate[All]") == rate("abort_rate")
        assert math.isnan(rate("abort_rate[delivery]"))

    def test_latencies_are_the_committed_ones(self):
        result = log_of(
            record(tx_id=1, submit=0.0, end=0.5),
            record(tx_id=2, submit=0.0, end=1.5, outcome="abort"),
        )
        assert commit_latencies(result) == [0.5]
        assert metric_value(result, "mean_latency_ms") == pytest.approx(500.0)
        assert metric_value(result, "p99_latency_ms") == pytest.approx(500.0)

    def test_certification_latencies_are_the_positive_ones(self):
        result = log_of(
            record(tx_id=1, cert=0.02),
            record(tx_id=2, readonly=True, cert=0.0),
        )
        assert cert_latencies(result) == [0.02]
        assert metric_value(result, "cert_latency_ms") == pytest.approx(20.0)
        assert metric_value(result, "cert_p50_ms") == pytest.approx(20.0)


COLUMN = TX_RECORD_FIELDS.index


class TestRecordFieldsAreTheStoredColumns:
    def test_fields_are_the_artifact_header(self):
        assert TxRecord._fields == TX_RECORD_FIELDS
        assert MetricsCollector().to_dict()["fields"] == list(TX_RECORD_FIELDS)

    def test_the_stored_columns_are_the_live_ones(self):
        collector = MetricsCollector()
        collector.record(*record(tx_id=1))
        collector.record(*record(tx_id=2, outcome="abort"))
        stored = collector.to_dict()["columns"]
        assert all(map(lambda a, b: a is b, stored, collector.columns()))
        assert stored[COLUMN("outcome")] == ["commit", "abort"]

    def test_keyword_construction_with_the_two_defaults(self):
        r = TxRecord(
            tx_id=1, tx_class="neworder", site="site0", submit_time=0.25,
            end_time=1.0, outcome="abort", readonly=False,
        )
        assert (r.certification_latency, r.abort_reason) == (0.0, "")
        assert list(r) == [1, "neworder", "site0", 0.25, 1.0, "abort", False, 0.0, ""]
        assert r.latency == 0.75 and not r.committed
        assert record(outcome="commit").committed

    def test_hashable_and_immutable(self):
        assert len({record(), record(), record(tx_id=2)}) == 2
        with pytest.raises(AttributeError):
            record().outcome = "abort"
        with pytest.raises(AttributeError):
            record().extra = 1

    @pytest.mark.parametrize(
        "damage",
        [
            lambda columns: columns.pop(),
            lambda columns: columns.append([0, 0, 0]),
            lambda columns: columns[COLUMN("end_time")].pop(),
            lambda columns: columns.__setitem__(COLUMN("tx_class"), "abc"),
            lambda columns: columns[COLUMN("submit_time")].__setitem__(1, "x"),
            lambda columns: columns[COLUMN("tx_id")].__setitem__(1, True),
            lambda columns: columns[COLUMN("readonly")].__setitem__(1, 1),
        ],
        ids=[
            "missing", "extra", "ragged", "text-not-a-list", "text-time",
            "bool-id", "int-flag",
        ],
    )
    def test_a_malformed_column_fails_at_decode(self, damage):
        collector = MetricsCollector()
        for i in range(3):
            collector.record(*record(tx_id=i))
        data = collector.to_dict()
        damage(data["columns"])
        with pytest.raises((TypeError, ValueError)):
            MetricsCollector.from_dict(data)

    def test_nothing_is_coerced(self):
        collector = MetricsCollector()
        collector.record(*record(submit=0, end=2))  # ints in float columns
        clone = MetricsCollector.from_dict(collector.to_dict())
        assert [type(v) for v in clone.records[0]] == [
            type(v) for v in collector.records[0]
        ]
        assert clone.to_dict() == collector.to_dict()


class TestDistributions:
    def test_ecdf_monotone(self):
        xs, ys = ecdf([3.0, 1.0, 2.0])
        assert xs == [1.0, 2.0, 3.0]
        assert ys == pytest.approx([1 / 3, 2 / 3, 1.0])

    def test_quantiles_bounds(self):
        values = [1.0, 2.0, 3.0, 4.0]
        q = quantiles(values, [0.0, 0.5, 1.0])
        assert q[0] == 1.0
        assert q[1] == pytest.approx(2.5)
        assert q[2] == 4.0

    def test_quantiles_invalid_prob(self):
        with pytest.raises(ValueError):
            quantiles([1.0], [1.5])

    def test_qq_points_identical_samples_on_diagonal(self):
        sample = [float(i) for i in range(100)]
        for qa, qb in qq_points(sample, sample, points=10):
            assert qa == pytest.approx(qb)

    def test_qq_points_shifted_sample_off_diagonal(self):
        a = [float(i) for i in range(100)]
        b = [float(i) + 5.0 for i in range(100)]
        for qa, qb in qq_points(a, b, points=10):
            assert qb - qa == pytest.approx(5.0)


class TestResourceSampler:
    def test_interval_cpu_usage(self):
        sim = Simulator()
        pool = CpuPool(sim, 1)
        sampler = ResourceSampler(sim, interval=1.0, cpu_pools=[pool])
        sampler.start()
        # busy exactly during [0, 0.5] of the first interval
        pool.submit_sim(0.5)
        sim.run(until=3.0)
        assert sampler.samples[0].cpu_total == pytest.approx(0.5)
        assert sampler.samples[1].cpu_total == pytest.approx(0.0)

    def test_steady_window_trims_edges(self):
        sim = Simulator()
        pool = CpuPool(sim, 1)
        sampler = ResourceSampler(sim, interval=1.0, cpu_pools=[pool])
        sampler.start()
        # busy only in the middle of the run
        sim.call(4.0, pool.submit_sim, 2.0)
        sim.run(until=10.0)
        total, real = sampler.series().mean_cpu()
        assert total > 0.2  # the busy middle dominates after trimming

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            ResourceSampler(Simulator(), interval=0.0)

    def test_no_samples_read_nan(self):
        series = SampleSeries([], interval=1.0)
        values = (*series.mean_cpu(), series.mean_disk(), series.net_kbytes_per_second())
        assert all(math.isnan(v) for v in values)
