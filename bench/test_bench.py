"""Self-tests of the benchmark (collected by tier-1; ``--quick`` sizes).

They check the instrument, not the speed of anything: no assertion
here depends on a timing.
"""

from __future__ import annotations

import cProfile
import json
import shutil
import subprocess
import sys
from types import SimpleNamespace

import pytest

import compare
import layertrace
import run as bench

SEED = 42


@pytest.fixture(scope="module")
def api():
    return bench.load_api()


@pytest.fixture(scope="module")
def benchmark_json():
    return bench.load_benchmark_json()


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    """Redirect the benchmark's scratch and trace files to a tmp dir."""
    path = tmp_path_factory.mktemp("bench-out")
    original, bench.OUT_DIR = bench.OUT_DIR, path
    yield path
    bench.OUT_DIR = original


@pytest.fixture(scope="module")
def timed(out_dir):
    return bench.measure(bench.WORKLOADS, SEED, 1.0, trace=False, quick=True)


@pytest.fixture(scope="module")
def traced(out_dir):
    return bench.measure(bench.WORKLOADS, SEED, 1.0, trace=True, quick=True)


# ----------------------------------------------------------------------
# the contract with BENCHMARK.json
# ----------------------------------------------------------------------
def test_benchmark_json_declares_the_workloads(benchmark_json):
    assert tuple(w["name"] for w in benchmark_json["workloads"]) == bench.WORKLOADS
    assert benchmark_json["paths"] == ["bench"]
    names = [m["name"] for m in benchmark_json["end_to_end"]]
    names += [m["name"] for m in benchmark_json["per_layer"]]
    assert len(names) == len(set(names))
    assert "setup_s" in names


@pytest.mark.parametrize("kind", ["end_to_end", "per_layer"])
def test_every_declared_metric_on_every_workload(kind, timed, traced, benchmark_json):
    result = timed if kind == "end_to_end" else traced
    declared = {m["name"]: m["unit"] for m in benchmark_json[kind]}
    assert result["comparable"] is False
    assert result["problems"] == []
    for name in bench.WORKLOADS:
        workload = result["workloads"][name]
        assert workload["correct"], workload["failures"]
        assert workload["failed"] == 0 and workload["attempted"] >= 1
        assert workload["unavailable"] == []
        metrics = workload["metrics"]
        assert set(metrics) == set(declared)
        for metric, unit in declared.items():
            assert metrics[metric]["unit"] == unit
            assert isinstance(metrics[metric]["value"], (int, float)), metric
        line = json.loads(bench.contract_line(workload, list(declared)))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert set(line["metrics"]) == set(declared)
        if kind == "end_to_end":
            assert all(entry["value"] > 0 for entry in metrics.values())


def test_host_context_and_calibration(timed):
    assert {"nproc", "python", "platform", "loadavg_1min_start", "loadavg_1min_end"} <= set(
        timed["host"]
    )
    assert len(timed["calibration"]["per_round_s"]) == bench.QUICK_ROUNDS
    for workload in timed["workloads"].values():
        assert workload["rounds"] == bench.QUICK_ROUNDS
        assert all(len(rep["calibrations"]) >= 2 for rep in workload["repetitions"])


def test_result_digests_repeat_across_rounds_and_runs(timed, traced):
    for name in bench.WORKLOADS:
        digests = timed["workloads"][name]["result_digests"]
        assert len(digests) == timed["workloads"][name]["cells"]
        # two separate runs of the same inputs, several rounds each
        assert digests == traced["workloads"][name]["result_digests"]


def test_traced_pass_contrasts(traced, out_dir):
    central = traced["workloads"]["central"]["metrics"]
    for layer in layertrace.LAYERS:
        if layer.split(".")[0] in ("net", "gcs", "dbsm", "protocols"):
            assert central[f"{layer}.calls"]["value"] == 0, layer
    assert central["core.kernel.calls"]["value"] > 0
    for name in bench.WORKLOADS:
        metrics = traced["workloads"][name]["metrics"]
        assert (metrics["monitors.calls"]["value"] > 0) == (name == "faults-monitored")
        assert (metrics["runner.campaign_n"]["value"] > 0) == (name == "pipeline")
        assert metrics["core.kernel.events"]["value"] > 0
        trace = json.loads((out_dir / f"trace-{name}.json").read_text())
        assert {"name", "start", "end", "parent", "cell"} <= set(trace["spans"][0])


# ----------------------------------------------------------------------
# workload specs
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", bench.WORKLOADS)
def test_workload_spec_round_trips(name, api):
    data = bench.load_workload_dict(name, SEED, quick=False)
    spec = api.CampaignSpec.from_dict(data)
    again = api.CampaignSpec.from_dict(spec.to_dict())
    assert again.to_dict() == spec.to_dict()
    assert again.spec_hash() == spec.spec_hash()
    labels = [label for label, _ in spec.expand()]
    assert labels == [label for label, _ in again.expand()]
    assert len(labels) == len(set(labels)) > 0
    other = api.CampaignSpec.from_dict(bench.load_workload_dict(name, SEED + 1, False))
    assert other.spec_hash() != spec.spec_hash()  # inputs come from the seed


# ----------------------------------------------------------------------
# the fold
# ----------------------------------------------------------------------
def test_fold_buckets_sum_to_the_profiled_total(api):
    import pstats

    spec = api.CampaignSpec.from_dict(bench.load_workload_dict("lan-idle", SEED, True))
    scenario = api.Scenario(spec.expand()[-1][1])
    profile = cProfile.Profile()
    profile.enable()
    scenario.run()
    profile.disable()
    fold = layertrace.fold_profile(profile, api.package_dir)
    total = sum(entry[2] for entry in pstats.Stats(profile).stats.values())
    folded = sum(bucket["self_s"] for bucket in fold.values())
    assert abs(folded - total) <= 0.02 * total
    named = sum(
        bucket["self_s"]
        for layer, bucket in fold.items()
        if layer not in layertrace.CATCH_ALL_LAYERS
    )
    assert named >= 0.95 * total


def test_layer_of_has_a_catch_all_per_package(api):
    root = api.package_dir
    assert layertrace.layer_of(f"{root}/gcs/stability.py", root) == "gcs.stability"
    assert layertrace.layer_of(f"{root}/gcs/renamed.py", root) == "gcs.other"
    assert layertrace.layer_of(f"{root}/tpcc/anything.py", root) == "tpcc"
    assert layertrace.layer_of(f"{root}/newpackage/x.py", root) == "repro.other"
    assert layertrace.layer_of("/usr/lib/python3/heapq.py", root) is None


# ----------------------------------------------------------------------
# fail-soft behaviour
# ----------------------------------------------------------------------
def test_a_raising_cell_is_counted_and_does_not_abort(api, out_dir):
    run = bench.WorkloadRun(api, "lan-idle", SEED, quick=True)
    doomed = run.cells[0][1]

    class Exploding(api.Scenario):
        def run(self):
            if self.config is doomed:
                raise RuntimeError("forced failure")
            return super().run()

    run.api = SimpleNamespace(**{**vars(api), "Scenario": Exploding})
    run.reps.append(run.rep())
    assert run.attempted == len(run.cells) == 2
    assert [f["cell"] for f in run.failures] == [run.cells[0][0]]
    assert "forced failure" in run.failures[0]["reason"]
    assert set(run.reps[0].cell_walls) == {label for label, _ in run.cells}
    summary = run.summary(False, {})
    assert summary["failed"] == 1 and summary["failed_share"] == 0.5
    assert summary["correct"] is False


def test_a_missing_wrapped_symbol_is_reported_not_raised(api, out_dir, monkeypatch):
    from repro.dashboard import CampaignView

    monkeypatch.delattr(CampaignView, "refresh")
    run = bench.WorkloadRun(api, "central", SEED, quick=True)
    try:
        run.traced_pass()
        run.reps.append(run.rep())
    finally:
        run.cleanup()
    metrics = run.layer_metrics()
    assert metrics["dashboard.view_refresh_s"] is None
    assert metrics["dashboard.view_refresh_n"] is None
    assert "dashboard.view_refresh_s" in run.unavailable
    assert metrics["core.run_n"] == len(run.cells)
    declared = {"dashboard.view_refresh_s": {"unit": "s"}, "core.run_n": {"unit": "count"}}
    line = json.loads(bench.contract_line(run.summary(True, declared), list(declared)))
    assert line["metrics"]["dashboard.view_refresh_s"]["value"] == 0


def test_a_missing_counter_is_reported_not_raised():
    unavailable = []
    counters = layertrace.Counters(unavailable)
    site = SimpleNamespace(runtime=None, gcs=None, server=SimpleNamespace(), storage=None)
    scenario = SimpleNamespace(sites=[site], sim=SimpleNamespace())
    result = SimpleNamespace(
        sim_time=1.0,
        capture=SimpleNamespace(total_packets=3, total_bytes=9),
        metrics=SimpleNamespace(records=[]),
        violations=[],
    )
    counters.observe(scenario, result)
    assert counters.totals["core.kernel.events"] is None  # sim has no counter
    assert counters.totals["db.lock.preemptions"] is None  # server has no locks
    assert {"core.kernel.events", "db.lock.preemptions"} <= set(unavailable)
    assert counters.totals["gcs.delivered"] == 0  # layer absent: zero, not missing
    assert counters.totals["net.packets"] == 3


# ----------------------------------------------------------------------
# compare.py and the command line
# ----------------------------------------------------------------------
def without_spread(result):
    """A copy of ``result`` whose samples all sit on their median."""
    steady = json.loads(json.dumps(result))
    for workload in steady["workloads"].values():
        for entry in workload["metrics"].values():
            if "median" in entry:
                entry["q1"] = entry["q3"] = entry["median"]
    return steady


def test_compare_a_result_against_itself(timed, traced, benchmark_json, tmp_path, capsys):
    for result in (timed, traced):
        lines, acceptable = compare.compare(result, result, benchmark_json)
        assert acceptable
        assert not any("regressed" in line or "improved" in line for line in lines)
        assert "simulated results changed:" not in lines
    # two quick rounds can spread wider than a bound ("unresolved");
    # with the samples' own spread taken out every row must be unchanged
    steady = without_spread(timed)
    rows = [line for line in compare.compare(steady, steady, benchmark_json)[0] if "unchanged" in line]
    assert len(rows) == len(bench.WORKLOADS) * len(benchmark_json["end_to_end"])
    path = tmp_path / "result.json"
    path.write_text(json.dumps(timed))
    assert compare.main([str(path), str(path)]) == 0
    assert "unchanged" in capsys.readouterr().out


def test_compare_flags_regressions_and_changed_results(timed, traced, benchmark_json):
    timed = without_spread(timed)
    slower = json.loads(json.dumps(timed))
    entry = slower["workloads"]["central"]["metrics"]["cells_per_sec"]
    for key in ("value", "q1", "median", "q3"):
        entry[key] *= 0.5
    label = next(iter(slower["workloads"]["central"]["result_digests"]))
    slower["workloads"]["central"]["result_digests"][label] = "0" * 64
    slower["workloads"]["pipeline"]["failed_share"] = 0.25
    lines, acceptable = compare.compare(timed, slower, benchmark_json)
    assert not acceptable
    assert sum("regressed" in line for line in lines) == 2
    assert any(f"result_digest of {label!r} differs" in line for line in lines)

    recount = json.loads(json.dumps(traced))
    recount["workloads"]["lan-idle"]["metrics"]["core.kernel.events"]["value"] += 1
    recount["workloads"]["lan-idle"]["metrics"]["gcs.stack.calls"]["value"] += 1
    lines, acceptable = compare.compare(traced, recount, benchmark_json)
    assert acceptable
    simulated = lines.index("simulated results changed:")
    host = lines.index("host call counts changed:")
    assert "lan-idle: core.kernel.events" in lines[simulated + 1]
    assert "lan-idle: gcs.stack.calls" in lines[host + 1]

    noisy = json.loads(json.dumps(timed))
    entry = noisy["workloads"]["central"]["metrics"]["cells_per_sec"]
    entry["q1"], entry["q3"] = entry["median"] * 0.5, entry["median"] * 1.5
    lines, _ = compare.compare(timed, noisy, benchmark_json)
    assert sum("unresolved" in line for line in lines) == 1


def test_without_the_source_tree_nothing_is_printed(tmp_path):
    """The driver also runs the command in a directory holding only
    BENCHMARK.json and bench/: it must fail without printing a result."""
    shutil.copytree(
        bench.BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__")
    )
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "central", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
