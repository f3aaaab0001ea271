"""Unit tests for the unified results-analysis API (repro.analysis).

Covers the aggregation math (hand-computed CI fixture, group-by
determinism across cell orderings), NaN propagation for empty cells,
artifact loading with spec-hash provenance (mismatches must fail
loudly), pivot ordering, the comparison primitive, and registry
coverage: every registered metric name resolves on a real smoke
ScenarioResult.
"""

import json
import math

import pytest

from repro.analysis import (
    AnalysisError,
    MetricError,
    ResultSet,
    available_metric_families,
    available_metrics,
    get_metric,
    metric_value,
    render_csv,
    render_text,
    summarize,
    t_critical_95,
)
from repro.analysis.render import NO_DATA
from repro.campaigns import CampaignSpec
from repro.core.experiment import (
    RESULT_FORMAT,
    Scenario,
    ScenarioConfig,
    ScenarioResult,
)
from repro.core.metrics import TX_RECORD_FIELDS
from repro.runner import run_campaign


# ----------------------------------------------------------------------
# fixtures
# ----------------------------------------------------------------------
def make_result(
    latencies=(),
    outcomes=None,
    sites=1,
    clients=4,
    protocol="dbsm",
    seed=42,
) -> ScenarioResult:
    """A synthetic deserialized result: one committed record per latency
    (unless ``outcomes`` overrides), no resource samples."""
    outcomes = outcomes or ["commit"] * len(latencies)
    pairs = list(zip(latencies, outcomes))
    n = len(pairs)
    columns = [
        list(range(n)), ["payment-short"] * n, ["site0"] * n, [10.0] * n,
        [10.0 + lat for lat, _ in pairs], [outcome for _, outcome in pairs],
        [False] * n, [0.0] * n, [""] * n,
    ]
    payload = {
        "format": RESULT_FORMAT,
        "config": ScenarioConfig(
            sites=sites,
            clients=clients,
            transactions=max(1, n),
            protocol=protocol,
            seed=seed,
        ).to_dict(),
        "sim_time": 30.0,
        "metrics": {"fields": list(TX_RECORD_FIELDS), "columns": columns},
        "samples": {"interval": 1.0, "samples": []},
        "capture": {"total_bytes": 0, "total_packets": 0},
        "commit_logs": [],
        "site_stats": {},
        "recovery": [],
        "violations": [],
    }
    return ScenarioResult.from_dict(payload)


@pytest.fixture(scope="module")
def smoke_result() -> ScenarioResult:
    """One real replicated run, small enough for a unit module."""
    return Scenario(
        ScenarioConfig(sites=3, clients=9, transactions=40, seed=7)
    ).run()


# ----------------------------------------------------------------------
# aggregation math
# ----------------------------------------------------------------------
class TestSummarize:
    def test_ci_width_matches_hand_computation(self):
        # values 10, 12, 14: mean 12, sample std 2, n 3
        # CI95 halfwidth = t(0.975, df=2) * 2 / sqrt(3) = 4.303 * 1.1547
        stat = summarize([10.0, 12.0, 14.0])
        assert stat.mean == pytest.approx(12.0)
        assert stat.n == 3
        assert stat.minimum == 10.0 and stat.maximum == 14.0
        assert stat.ci95 == pytest.approx(4.303 * 2.0 / math.sqrt(3.0))

    def test_t_table_anchors(self):
        assert t_critical_95(1) == pytest.approx(12.706)
        assert t_critical_95(10) == pytest.approx(2.228)
        assert t_critical_95(1000) == pytest.approx(1.960)

    def test_single_value_has_nan_ci(self):
        stat = summarize([5.0])
        assert stat.mean == 5.0 and stat.n == 1
        assert math.isnan(stat.ci95)

    def test_nan_values_are_dropped_not_averaged(self):
        stat = summarize([4.0, math.nan, 6.0])
        assert stat.mean == pytest.approx(5.0)
        assert stat.n == 2

    def test_all_nan_stays_nan(self):
        stat = summarize([math.nan, math.nan])
        assert stat.n == 0
        assert math.isnan(stat.mean)
        assert math.isnan(stat.minimum)


# ----------------------------------------------------------------------
# metric registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_every_registered_metric_resolves_on_a_real_result(
        self, smoke_result
    ):
        for name in available_metrics():
            value = metric_value(smoke_result, name)
            assert isinstance(value, float), name
        # Parameterized families resolve with a real argument from
        # their own domain; this run is unmonitored, so the violations
        # family must be NaN (nothing was checked), never a fake zero.
        from repro.monitors import available_monitors

        family_args = {
            "abort_rate": (
                sorted({r.tx_class for r in smoke_result.metrics.records}),
                False,
            ),
            "violations": (available_monitors(), True),
        }
        assert set(family_args) == set(available_metric_families())
        for base, (args, expect_nan) in family_args.items():
            assert args, base
            for arg in args:
                value = metric_value(smoke_result, f"{base}[{arg}]")
                assert isinstance(value, float), f"{base}[{arg}]"
                assert math.isnan(value) == expect_nan, f"{base}[{arg}]"

    def test_unknown_metric_fails_loudly(self):
        with pytest.raises(ValueError, match="unknown metric"):
            get_metric("warp_factor")
        with pytest.raises(ValueError, match="unknown metric"):
            get_metric("warp_factor[9]")

    def test_unknown_metric_error_names_the_options(self):
        with pytest.raises(MetricError) as excinfo:
            get_metric("warp_factor")
        message = str(excinfo.value)
        for name in available_metrics():
            assert name in message
        for base in available_metric_families():
            assert f"{base}[...]" in message

    def test_metric_carries_unit_and_format(self):
        metric = get_metric("mean_latency_ms")
        assert metric.unit == "ms"
        assert metric.fmt.format(1.25) == "1.2"


#: Every metric derived from the transaction log, one family member included.
LOG_METRICS = (
    "throughput_tpm",
    "mean_latency_ms",
    "p50_latency_ms",
    "p95_latency_ms",
    "p99_latency_ms",
    "abort_rate",
    "abort_rate[payment-long]",
    "cert_latency_ms",
    "cert_p50_ms",
    "cert_p99_ms",
)


class TestNanPropagation:
    def test_empty_result_yields_nan_not_zero(self):
        empty = make_result()  # decoded from a stored zero-record log
        assert empty.metrics.columns() == [[]] * len(TX_RECORD_FIELDS)
        for name in (*LOG_METRICS, "cpu_total", "disk", "net_kbps", "time_to_rejoin"):
            assert math.isnan(metric_value(empty, name)), name
        assert metric_value(empty, "records") == 0.0

    def test_nan_renders_as_dash_and_empty_csv(self):
        rs = ResultSet.from_results([("empty", make_result(), {})])
        table = rs.table(("throughput_tpm",))
        assert NO_DATA in render_text(table)
        csv = render_csv(table)
        assert csv.splitlines()[1] == "empty,"

    def test_zero_span_throughput_guard(self):
        # all records share one timestamp: span 0 must not divide, and a
        # rate over no time is no data
        zero_span = make_result(latencies=(0.0, 0.0, 0.0))
        assert math.isnan(metric_value(zero_span, "throughput_tpm"))


# ----------------------------------------------------------------------
# grouping / pivoting
# ----------------------------------------------------------------------
def _grid_cells():
    cells = []
    for protocol, base in (("dbsm", 0.020), ("primary-copy", 0.030)):
        for clients, step in ((10, 0.0), (20, 0.010)):
            for seed in (1, 2):
                latency = base + step + 0.001 * seed
                cells.append(
                    (
                        f"{protocol} c{clients} s{seed}",
                        make_result(
                            latencies=[latency] * 4,
                            protocol=protocol,
                            clients=clients,
                            seed=seed,
                        ),
                        {"protocol": protocol, "clients": clients},
                    )
                )
    return cells


class TestGrouping:
    def test_group_by_aggregates_seed_replicates(self):
        rs = ResultSet.from_results(_grid_cells())
        series = rs.select(protocol="dbsm").group_by(
            "clients", metric="mean_latency_ms"
        )
        assert series.keys() == [10, 20]
        stat = series.get(10)
        assert stat.n == 2
        assert stat.mean == pytest.approx((21.0 + 22.0) / 2)
        assert not math.isnan(stat.ci95)

    def test_group_by_deterministic_across_cell_orderings(self):
        cells = _grid_cells()
        forward = ResultSet.from_results(cells)
        backward = ResultSet.from_results(list(reversed(cells)))
        a = forward.group_by("protocol", metric="mean_latency_ms")
        b = backward.group_by("protocol", metric="mean_latency_ms")
        assert dict(a.points) == dict(b.points)
        pa = forward.pivot("clients", "protocol", "mean_latency_ms")
        pb = backward.pivot("clients", "protocol", "mean_latency_ms")
        assert pa.cells == pb.cells

    def test_pivot_row_and_column_order_is_first_seen(self):
        rs = ResultSet.from_results(_grid_cells())
        table = rs.pivot("clients", "protocol", "mean_latency_ms")
        assert table.rows == (10, 20)
        assert table.cols == ("dbsm", "primary-copy")
        # reversed input flips the observed order (first-seen semantics)
        flipped = ResultSet.from_results(list(reversed(_grid_cells())))
        table2 = flipped.pivot("clients", "protocol", "mean_latency_ms")
        assert table2.rows == (20, 10)
        assert table2.cols == ("primary-copy", "dbsm")
        # ...but the values are identical
        assert table.value(10, "dbsm") == table2.value(10, "dbsm")

    def test_missing_combination_is_nan(self):
        cells = [c for c in _grid_cells() if not (
            c[2]["protocol"] == "primary-copy" and c[2]["clients"] == 20
        )]
        table = ResultSet.from_results(cells).pivot(
            "clients", "protocol", "mean_latency_ms"
        )
        assert math.isnan(table.value(20, "primary-copy"))
        assert not math.isnan(table.value(20, "dbsm"))

    def test_compare_pairs_on_varying_axes(self):
        rs = ResultSet.from_results(_grid_cells())
        comparison = rs.compare(
            {"protocol": "dbsm"},
            {"protocol": "primary-copy"},
            ("mean_latency_ms",),
        )
        assert len(comparison.rows) == 4  # 2 client levels x 2 seeds
        assert not comparison.unmatched
        for label, deltas in comparison.rows:
            delta = deltas["mean_latency_ms"]
            assert delta.absolute == pytest.approx(10.0)
            assert "clients=" in label and "seed=" in label

    def test_compare_across_systems_pairs_despite_correlated_axes(self):
        """Axes that only differ *between* the selections (sites for a
        centralized-vs-replicated comparison) must not become pair keys."""
        cells = []
        for system, sites, base in (("1 CPU", 1, 0.020), ("3 Sites", 3, 0.040)):
            for clients in (10, 20):
                cells.append(
                    (
                        f"{system} c{clients}",
                        make_result(
                            latencies=[base] * 4, sites=sites, clients=clients
                        ),
                        {"system": system, "clients": clients},
                    )
                )
        rs = ResultSet.from_results(cells)
        comparison = rs.compare(
            {"system": "1 CPU"}, {"system": "3 Sites"}, ("mean_latency_ms",)
        )
        assert len(comparison.rows) == 2  # one pair per client level
        assert not comparison.unmatched
        for _, deltas in comparison.rows:
            assert deltas["mean_latency_ms"].absolute == pytest.approx(20.0)

    def test_compare_empty_selection_fails_loudly(self):
        rs = ResultSet.from_results(_grid_cells())
        with pytest.raises(AnalysisError, match="empty"):
            rs.compare(
                {"protocol": "chain"}, {"protocol": "dbsm"}, ("abort_rate",)
            )


# ----------------------------------------------------------------------
# artifact loading & provenance
# ----------------------------------------------------------------------
def _tiny_spec() -> CampaignSpec:
    return CampaignSpec(
        name="analysis-tiny",
        description="two fault cells for artifact-loading tests",
        kind="fault",
        label="{fault}",
        template={"clients": 8, "transactions": 40, "seed": 3},
        axes=[("fault", ("none", "random"))],
    )


@pytest.fixture(scope="module")
def artifact_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("analysis-artifacts") / "store"
    spec = _tiny_spec()
    run_campaign(
        spec.expand(),
        artifact_dir=root,
        campaign=spec.name,
        manifest=spec.manifest(),
    )
    return root


class TestArtifactLoading:
    def test_cells_load_in_spec_order_with_axis_tags(self, artifact_dir):
        rs = ResultSet.from_artifacts(artifact_dir)
        assert rs.name == "analysis-tiny"
        assert rs.spec_hash == _tiny_spec().spec_hash()
        assert rs.labels() == ["none", "random"]
        assert rs.missing == []
        cell = rs.get("random")
        assert cell.source == "artifact"
        assert cell.axes["fault"] == "random"
        assert cell.axes["clients"] == 8
        assert cell.axes["protocol"] == "dbsm"
        assert metric_value(cell.result, "records") == 40.0

    def test_missing_cells_are_reported_not_invented(
        self, artifact_dir, tmp_path
    ):
        import shutil

        clone = tmp_path / "partial"
        shutil.copytree(artifact_dir, clone)
        store_paths = sorted(
            p for p in clone.glob("*.json") if p.name != "campaign.json"
        )
        store_paths[0].unlink()
        rs = ResultSet.from_artifacts(clone)
        assert len(rs.cells) == 1
        assert len(rs.missing) == 1

    def test_manifest_hash_mismatch_fails_loudly(self, artifact_dir, tmp_path):
        import shutil

        clone = tmp_path / "tampered-manifest"
        shutil.copytree(artifact_dir, clone)
        manifest = json.loads((clone / "campaign.json").read_text())
        manifest["spec_hash"] = "0" * 16
        (clone / "campaign.json").write_text(json.dumps(manifest))
        with pytest.raises(AnalysisError, match="spec hash"):
            ResultSet.from_artifacts(clone)

    def test_cell_hash_mismatch_fails_loudly(self, artifact_dir, tmp_path):
        import shutil

        clone = tmp_path / "tampered-cell"
        shutil.copytree(artifact_dir, clone)
        cell_path = next(
            p for p in clone.glob("*.json") if p.name != "campaign.json"
        )
        data = json.loads(cell_path.read_text())
        data["spec_hash"] = "f" * 16
        cell_path.write_text(json.dumps(data))
        with pytest.raises(AnalysisError, match="different campaign"):
            ResultSet.from_artifacts(clone)

    def test_unmanifested_directory_still_loads(self, artifact_dir, tmp_path):
        import shutil

        clone = tmp_path / "no-manifest"
        shutil.copytree(artifact_dir, clone)
        (clone / "campaign.json").unlink()
        # stray non-cell JSON (a redirected report, notes, ...) is skipped
        (clone / "report.json").write_text(json.dumps({"cells": []}))
        rs = ResultSet.from_artifacts(clone)
        assert sorted(rs.labels()) == ["none", "random"]
        # config-derived tags only, but still queryable
        assert rs.get("none").axes["clients"] == 8

    def test_empty_directory_fails_loudly(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        with pytest.raises(AnalysisError, match="no readable cell"):
            ResultSet.from_artifacts(empty)
