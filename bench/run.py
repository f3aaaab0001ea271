#!/usr/bin/env python3
"""The repo benchmark: host-time cost of the simulator and its harness.

    python3 bench/run.py --workload central --seed 42 --seconds 10 --trace 0

measures one workload (repeat ``--workload`` or omit it to interleave
several, round by round), prints every metric by name with its unit,
checks the outputs, writes one JSON result under ``bench/out/`` and
ends with one JSON line per workload:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0``
the metrics are the end-to-end ones, with ``--trace 1`` the per-layer
ones; ``BENCHMARK.json`` declares both lists.  See ``bench/README.md``.

Every timing is *host* time of the simulator, reported in calibrated
seconds: wall seconds scaled by how fast this host ran a fixed
pure-Python loop (:func:`calibrate`) next to the measurement.  Simulated
statistics are outputs: they are fingerprinted (``result_digest``) and
must repeat exactly, but no golden value is pinned here.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import hashlib
import heapq
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path
from types import SimpleNamespace
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

import layertrace  # noqa: E402  (bench/ is sys.path[0] for scripts and pytest)

RESULT_SCHEMA = "repro.bench-result/1"
WORKLOADS = ("central", "lan-loaded", "lan-idle", "faults-monitored", "pipeline")
#: The paper figure each workload's report phase renders (its cells
#: must carry the figure's axes).
FIGURES = {"faults-monitored": "table2"}
DEFAULT_FIGURE = "fig5a"

#: A cell running longer than this is interrupted and counted as failed.
#: Three capped cells plus set-up still fit the 180 s a run may take.
CELL_CAP_S = 40
#: Fewest measured rounds, however short ``--seconds`` is.
MIN_ROUNDS = 3
QUICK_ROUNDS = 2
#: The axes ``--quick`` divides by four (clients too: assembling 2000
#: of them costs more than a quarter-size cell's transactions).
QUICK_AXES = ("transactions", "clients")
#: Fresh-interpreter launches timed for ``setup_s`` (the last one goes
#: on to run a repetition and reports its peak RSS).
COLD_LAUNCHES = 4
QUICK_COLD_LAUNCHES = 2
#: Report-phase repetitions: at most this many, within this budget.
REPORT_SAMPLES = 20
REPORT_BUDGET_S = 2.5
#: Cells of the pool round-trip probe (``workers=2`` is this box's nproc).
POOL_CELLS, POOL_WORKERS = 16, 2

#: Wall of :func:`calibrate` on the quiet reference box: one calibrated
#: second is one wall second there.
CALIBRATION_REF_S = 0.060
CALIBRATION_EVENTS = 60_000
CALIBRATION_NODES = 2_000
#: Measured seconds after which the next stop calibrates again.
CALIBRATION_PERIOD_S = 0.5


# ----------------------------------------------------------------------
# host-speed calibration
# ----------------------------------------------------------------------
class _Node:
    __slots__ = ("key", "table", "log")

    def __init__(self, key: int) -> None:
        self.key = key
        self.table: Dict[int, int] = {}
        self.log: List[Tuple[int, int]] = []

    def fire(self, now: int, heap: list, seq: int) -> None:
        slot = (now * 31 + self.key) & 63
        self.table[slot] = self.table.get(slot, 0) + 1
        if len(self.log) > 32:
            self.log = []
        self.log.append((now, seq))
        heapq.heappush(heap, (now + 1 + (seq * 7919) % 97, seq, self))


def calibrate() -> float:
    """Wall seconds of a fixed event-loop-shaped pure-Python workload
    (heap push/pop, dict updates, method calls, small allocations).

    The shared box this runs on changes speed by tens of percent within
    a minute, for every process alike; dividing a timing by the wall of
    this loop, run right beside it, takes that factor out."""
    started = time.perf_counter()
    nodes = [_Node(i) for i in range(CALIBRATION_NODES)]
    heap = [(i, i, node) for i, node in enumerate(nodes)]
    pop = heapq.heappop
    for seq in range(CALIBRATION_NODES, CALIBRATION_NODES + CALIBRATION_EVENTS):
        now, _, node = pop(heap)
        node.fire(now, heap, seq)
    return time.perf_counter() - started


# ----------------------------------------------------------------------
# the system under test
# ----------------------------------------------------------------------
def load_api() -> SimpleNamespace:
    """The public entry points the workloads go through — and nothing
    else.  The benchmark measures the checkout it sits in: without a
    ``src/repro`` beside it there is nothing to measure."""
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        sys.exit(f"bench: {src}/repro not found — nothing to measure")
    sys.path.insert(0, str(src))
    import repro
    from repro.analysis import run_report
    from repro.dashboard import CampaignView
    from repro.dashboard.page import render_report_html

    return SimpleNamespace(
        CampaignSpec=repro.CampaignSpec,
        Scenario=repro.Scenario,
        run_campaign=repro.run_campaign,
        ResultSet=repro.ResultSet,
        run_report=run_report,
        render_report_html=render_report_html,
        CampaignView=CampaignView,
        package_dir=os.path.dirname(os.path.abspath(repro.__file__)),
    )


def load_benchmark_json() -> Dict[str, object]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def load_workload_dict(name: str, seed: int, quick: bool) -> Dict[str, object]:
    """The workload's CampaignSpec encoding with its inputs derived from
    ``seed``: the file stores seed *offsets*, and ``--quick`` divides
    every transaction and client count by four."""
    data = json.loads((BENCH_DIR / "workloads" / f"{name}.json").read_text())

    def adjust(node: Dict[str, object]) -> None:
        for axis in node.get("axes", []):
            if axis[0] == "seed":
                axis[1] = [seed + offset for offset in axis[1]]
            elif axis[0] in QUICK_AXES and quick:
                axis[1] = [max(10, count // 4) for count in axis[1]]
        for child in node.get("children", []):
            adjust(child)

    adjust(data)
    return data


def no_span(name: str):
    """Stands in for ``Tracer.span`` when tracing is off."""
    return nullcontext()


class CellTimeout(Exception):
    """A cell exceeded :data:`CELL_CAP_S`."""


@contextmanager
def wall_cap() -> Iterator[None]:
    """Interrupt the body every :data:`CELL_CAP_S` seconds it keeps
    running (repeating, because ``run_campaign`` turns the exception
    into a failed cell and carries on with the next one)."""
    if not hasattr(signal, "setitimer"):
        yield
        return

    def on_alarm(signum, frame):
        raise CellTimeout(f"exceeded the {CELL_CAP_S} s wall cap")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, CELL_CAP_S, CELL_CAP_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def result_digest(result: object) -> str:
    canonical = json.dumps(
        result.to_dict(), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(canonical.encode()).hexdigest()


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return (values[0],) * 3
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


class Stretch:
    """A stretch of measurements sharing one calibration factor: the
    calibration loop is timed at its start, at its end and at stops
    between measurements."""

    def __init__(self) -> None:
        self.calibrations: List[float] = [calibrate()]
        self._calibrated_at = time.perf_counter()
        #: Seconds spent in stops, for walls that span them.
        self.paused = 0.0

    def stop(self, last: bool = False) -> None:
        """A calibration stop; between measurements it is skipped while
        the previous one is still recent."""
        started = time.perf_counter()
        if last or started - self._calibrated_at >= CALIBRATION_PERIOD_S:
            self.calibrations.append(calibrate())
            self._calibrated_at = time.perf_counter()
            self.paused += self._calibrated_at - started

    @property
    def factor(self) -> float:
        """Raw wall seconds -> calibrated seconds, for this stretch."""
        return CALIBRATION_REF_S / statistics.mean(self.calibrations)


class Rep(Stretch):
    """One repetition of one workload, in raw wall seconds."""

    def __init__(self) -> None:
        super().__init__()
        self.cell_walls: Dict[str, float] = {}
        self.wall = 0.0
        #: Pipeline bookkeeping for the derived runner/dashboard metrics.
        self.extra: Dict[str, float] = {}


class WorkloadRun:
    """One workload's state across warm-up, rounds and passes."""

    def __init__(self, api: SimpleNamespace, name: str, seed: int, quick: bool):
        self.api = api
        self.name = name
        self.seed = seed
        self.quick = quick
        self.spec = api.CampaignSpec.from_dict(load_workload_dict(name, seed, quick))
        self.cells = self.spec.expand()
        self.is_pipeline = name == "pipeline"
        self.reps: List[Rep] = []
        self.attempted = 0
        #: One entry per failed (repetition, cell).
        self.failures: List[Dict[str, str]] = []
        #: Wrong outputs that no single cell owns (report views, passes).
        self.problems: List[str] = []
        self.digests: Dict[str, str] = {}
        self.report_samples: List[Tuple[float, float]] = []  # (raw, calibrated)
        self.setup_samples: List[Tuple[float, float]] = []
        self.peak_rss_mb: Optional[float] = None
        #: What the traced pass recorded, folded by ``layer_metrics``.
        self.traced: Optional[tuple] = None
        self.unavailable: List[str] = []
        self.tmp = OUT_DIR / "tmp" / f"{os.getpid()}-{name}"
        self._dirs = 0
        #: The warm-up's finished artifact directory (report phase input).
        self.warm_dir: Optional[Path] = None

    # -- helpers -------------------------------------------------------
    def fresh_dir(self) -> Path:
        self._dirs += 1
        path = self.tmp / f"run{self._dirs}"
        if path.exists():
            shutil.rmtree(path)
        path.mkdir(parents=True)
        return path

    def cleanup(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)

    def check(self, label: str, result: object) -> Optional[str]:
        """None when ``result`` is a correct output for ``label``, else
        why not.  Every benchmark cell runs clean protocol code, so any
        safety or monitor violation is a failure, and so is a simulated
        result that differs between two rounds of one run."""
        try:
            result.check_safety()
        except AssertionError as exc:  # SafetyViolation
            return f"safety: {exc}"
        if result.violations:
            return f"{len(result.violations)} monitor violation(s)"
        digest = result_digest(result)
        if self.digests.setdefault(label, digest) != digest:
            return "result_digest differs between rounds"
        return None

    def account(self, bad: Dict[str, str]) -> None:
        for label, reason in bad.items():
            self.failures.append({"cell": label, "reason": reason})

    def campaign(self, cells, root: Path, progress=False):
        """``run_campaign`` the way the default CLI does, into ``root``."""
        return self.api.run_campaign(
            cells,
            workers=1,
            artifact_dir=root,
            manifest=self.spec.manifest(),
            journal="auto",
            progress=progress,
        )

    def campaign_failures(self, campaign) -> Dict[str, str]:
        self.attempted += len(campaign.cells)
        bad: Dict[str, str] = {}
        for cell in campaign.cells:
            if cell.status != "ok":
                bad[cell.label] = (cell.error or "failed").strip().splitlines()[-1]
            else:
                reason = self.check(cell.label, cell.result)
                if reason:
                    bad[cell.label] = reason
        return bad

    # -- repetitions ---------------------------------------------------
    def rep(self, tracer: Optional[layertrace.Tracer] = None) -> Rep:
        # Scenario graphs are cyclic, so what the previous repetition
        # dropped is still on the heap; sweep it here, untimed, or the
        # first cell's own post-run sweep would be charged for it.
        gc.collect()
        if tracer is not None:
            tracer.labels.update({id(config): label for label, config in self.cells})
        if self.is_pipeline:
            return self.pipeline_rep(tracer)
        return self.simulation_rep()

    def simulation_rep(self) -> Rep:
        """Every cell once: ``Scenario(config).run()`` timed, the result
        checked outside the timing and dropped before the next cell."""
        rep = Rep()
        bad: Dict[str, str] = {}
        for label, config in self.cells:
            self.attempted += 1
            result = None
            started = time.perf_counter()
            try:
                with wall_cap():
                    result = self.api.Scenario(config).run()
            except Exception as exc:  # a failing cell is an outcome to count
                bad[label] = f"{type(exc).__name__}: {exc}"
            rep.cell_walls[label] = time.perf_counter() - started
            rep.stop(last=label == self.cells[-1][0])
            if result is not None:
                reason = self.check(label, result)
                if reason:
                    bad[label] = reason
            del result
        rep.wall = sum(rep.cell_walls.values())
        self.account(bad)
        return rep

    def pipeline_rep(
        self, tracer: Optional[layertrace.Tracer], keep: bool = False
    ) -> Rep:
        """expand -> run_campaign into a fresh artifact directory -> the
        same call again (every cell must resume) -> every report view.
        The wall spans all of it except the calibration stops.  ``keep``
        leaves the directory behind as ``warm_dir``."""
        span = tracer.span if tracer is not None else no_span
        root = self.fresh_dir()
        rep = Rep()
        walls: List[float] = []

        with wall_cap():
            started = time.perf_counter()
            cells = self.spec.expand()
            if tracer is not None:
                tracer.labels.update({id(c): label for label, c in cells})
            with span("runner.campaign_s"):
                campaign_started = time.perf_counter()
                # calibration stops between cells, taken out of the walls
                first = self.campaign(cells, root, progress=lambda event: rep.stop())
                rep.extra["campaign_wall"] = (
                    time.perf_counter() - campaign_started - rep.paused
                )
            walls.append(time.perf_counter() - started - rep.paused)
            rep.stop()

            started = time.perf_counter()
            with span("runner.resume_s"):
                second = self.campaign(cells, root)
            walls.append(time.perf_counter() - started)
            rep.stop()

            started = time.perf_counter()
            views = self.report_views(root, span)
            walls.append(time.perf_counter() - started)
            rep.stop(last=True)
        rep.wall = sum(walls)

        # -- untimed: checks and bookkeeping ---------------------------
        bad = self.campaign_failures(first)
        rep.cell_walls = {cell.label: cell.duration for cell in first.cells}
        for cell in second.cells:
            if cell.label in bad:
                continue
            if cell.source != "artifact" or cell.result is None:
                bad[cell.label] = "not resumed from its artifact"
            elif result_digest(cell.result) != self.digests.get(cell.label):
                bad[cell.label] = "from_dict(to_dict()) changed the result_digest"
        self.account(bad)
        if not bad:
            self.check_views(views, [label for label, _ in cells])
        rep.extra["duration_sum"] = sum(cell.duration for cell in first.cells)
        rep.extra["artifact_bytes"] = sum(
            path.stat().st_size for path in root.glob("*.json")
        )
        journal = root / "events.jsonl"
        rep.extra["journal_events"] = (
            len(journal.read_text().splitlines()) if journal.exists() else 0
        )
        if tracer is not None:
            self.all_metrics(views[0], span)
        if keep:
            self.warm_dir = root
        else:
            shutil.rmtree(root, ignore_errors=True)
        return rep

    # -- report views --------------------------------------------------
    def report_views(self, root: Path, span=no_span) -> tuple:
        """A finished artifact directory -> every rendered view."""
        api = self.api
        results = api.ResultSet.from_artifacts(root)
        with span("analysis.report_s"):
            text = api.run_report(str(root))
            figure = api.run_report(
                str(root), figure=FIGURES.get(self.name, DEFAULT_FIGURE)
            )
            payload = api.run_report(str(root), fmt="json")
        with span("dashboard.html_s"):
            html = api.render_report_html(results)
        view = api.CampaignView(root)
        view.refresh()
        return results, text, figure, payload, html, view.cells_payload()

    def check_views(self, views: tuple, labels: List[str]) -> None:
        results, text, figure, payload, html, live = views
        problems = []
        if [cell.label for cell in results.cells] != labels:
            problems.append("ResultSet.from_artifacts lost or reordered cells")
        if not all(label in text for label in labels):
            problems.append("summary report misses a cell")
        if not figure.strip():
            problems.append("figure report is empty")
        if [c["label"] for c in json.loads(payload)["cells"]] != labels:
            problems.append("JSON report misses a cell")
        if not all(json.dumps(label) in html for label in labels):
            problems.append("HTML report misses a cell")
        statuses = {c["label"]: c["status"] for c in live["cells"]}
        if any(statuses.get(label) not in ("ok", "cached") for label in labels):
            problems.append("CampaignView reports an unfinished cell")
        self.problems.extend(f"{self.name}: {p}" for p in problems)

    def all_metrics(self, results: object, span) -> None:
        """Traced pass only: every registered metric over every cell."""
        try:
            from repro.analysis import available_metrics, metric_value
        except ImportError:
            self.unavailable.append("analysis.metrics_s")
            return
        with span("analysis.metrics_s"):
            for cell in results.cells:
                for name in available_metrics():
                    metric_value(cell.result, name)

    # -- passes --------------------------------------------------------
    def warm_up(self) -> None:
        """One untimed repetition that leaves an artifact directory for
        the report phase; the simulation workloads take it through
        ``run_campaign`` to get one."""
        if self.is_pipeline:
            self.pipeline_rep(None, keep=True)
            return
        self.warm_dir = self.fresh_dir()
        with wall_cap():
            campaign = self.campaign(self.cells, self.warm_dir)
        self.account(self.campaign_failures(campaign))

    def report_phase(self) -> None:
        """``report_s``: the report views over the warm-up's finished
        artifact directory, as often as fit the budget."""
        if self.failures:
            return  # no complete artifact directory to report on
        block = Stretch()
        walls: List[float] = []
        started = time.perf_counter()
        # `report` runs in a fresh process; here the collector's passes
        # would also walk everything the benchmark process holds, and
        # whether one falls inside a sample makes the timings bimodal.
        # Freezing the heap as it is leaves them only the sample's own
        # objects to walk.
        gc.collect()
        gc.freeze()
        try:
            while len(walls) < (QUICK_ROUNDS if self.quick else REPORT_SAMPLES):
                gc.collect()
                sample_started = time.perf_counter()
                views = self.report_views(self.warm_dir)
                walls.append(time.perf_counter() - sample_started)
                # samples are short: calibrate after every one
                block.stop(last=True)
                if (
                    len(walls) >= MIN_ROUNDS
                    and time.perf_counter() - started > REPORT_BUDGET_S
                ):
                    break
        finally:
            gc.unfreeze()
        self.report_samples = [(wall, wall * block.factor) for wall in walls]
        self.check_views(views, [label for label, _ in self.cells])

    def cold_pass(self) -> None:
        """``setup_s`` and ``peak_rss_mb``: fresh interpreters, timed
        from spawn until every Scenario of the workload is constructed;
        the last one also runs a repetition and reports its peak RSS."""
        launches = QUICK_COLD_LAUNCHES if self.quick else COLD_LAUNCHES
        for index in range(launches):
            command = [
                sys.executable,
                str(Path(__file__).resolve()),
                "--cold-child",
                "--workload",
                self.name,
                "--seed",
                str(self.seed),
            ]
            if self.quick:
                command.append("--quick")
            if index == launches - 1:
                command.append("--full-rep")
            started = time.perf_counter()
            child = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
            try:
                with wall_cap():
                    ready = child.stdout.readline()
                    wall = time.perf_counter() - started
                    rest, _ = child.communicate()
            except CellTimeout:
                child.kill()
                child.communicate()
                self.problems.append(f"{self.name}: cold launch hung")
                continue
            if ready.strip() != "ready" or child.returncode != 0:
                self.problems.append(f"{self.name}: cold launch failed")
                continue
            report = json.loads(rest)
            factor = CALIBRATION_REF_S / report["calibration"]
            self.setup_samples.append((wall, wall * factor))
            if "peak_rss_mb" in report:
                self.peak_rss_mb = report["peak_rss_mb"]
                self.attempted += report["attempted"]
                self.failures.extend(report["failures"])

    def traced_pass(self) -> None:
        """One repetition under spans and counters, one under cProfile,
        and (pipeline) the pool round-trip probe.

        It runs *before* the time-boxed untraced rounds, so what the
        process did before it is the same in every run: the decode
        caches of ``src/repro`` are module-level, and with them the
        call counts of a repetition depend on that history."""
        tracer = layertrace.Tracer()
        counters = layertrace.Counters(tracer.unavailable)

        def counted_run(func, args, kwargs):
            result = func(*args, **kwargs)
            counters.observe(args[0], result)
            return result

        layertrace.install_wraps(tracer, counted_run)
        try:
            span_rep = self.rep(tracer)
        finally:
            tracer.restore()

        profile = cProfile.Profile()

        def profiled_run(func, args, kwargs):
            profile.enable()
            try:
                return func(*args, **kwargs)
            finally:
                profile.disable()

        profiler = layertrace.Tracer()
        profiler.wrap(
            "repro.core.experiment", "Scenario.run", "core.run_s", around=profiled_run
        )
        try:
            profile_rep = self.rep(profiler)
        finally:
            profiler.restore()
        fold = layertrace.fold_profile(profile, self.api.package_dir)

        self.unavailable.extend(tracer.unavailable)
        pool = self.pool_roundtrip() if self.is_pipeline else 0.0
        self.traced = (tracer, counters.totals, fold, span_rep, profile_rep, pool)
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        (OUT_DIR / f"trace-{self.name}.json").write_text(
            json.dumps(
                {
                    "workload": self.name,
                    "seed": self.seed,
                    "quick": self.quick,
                    "calibration_factor": span_rep.factor,
                    "unavailable": self.unavailable,
                    "spans": tracer.export(),
                    "fold": fold,
                    "counters": counters.totals,
                }
            )
        )

    def pool_roundtrip(self) -> float:
        """Wall of the first cells through a two-worker pool minus half
        the worker-reported durations, in calibrated seconds."""
        block = Stretch()
        started = time.perf_counter()
        campaign = self.api.run_campaign(
            self.cells[:POOL_CELLS], workers=POOL_WORKERS, journal=False
        )
        wall = time.perf_counter() - started
        block.stop(last=True)
        self.attempted += len(campaign.cells)
        self.account(
            {c.label: "failed in the pool" for c in campaign.cells if c.status != "ok"}
        )
        return (
            wall - sum(c.duration for c in campaign.cells) / POOL_WORKERS
        ) * block.factor

    def layer_metrics(self) -> Dict[str, Optional[float]]:
        """Every per-layer metric of this workload, by name: the traced
        pass folded, with the untraced rounds as the reference."""
        tracer, totals, fold, span_rep, profile_rep, pool = self.traced
        metrics: Dict[str, Optional[float]] = {}
        self_times = tracer.self_times()
        for name in layertrace.SPAN_NAMES:
            seconds, count = self_times.get(name, (0.0, 0))
            missing = name in self.unavailable
            metrics[name] = None if missing else seconds * span_rep.factor
            metrics[name[:-2] + "_n"] = None if missing else count
        extra = span_rep.extra
        metrics["runner.overhead_s"] = (
            extra.get("campaign_wall", 0.0) - extra.get("duration_sum", 0.0)
        ) * span_rep.factor
        metrics["runner.pool_roundtrip_s"] = pool
        metrics["runner.artifact_bytes"] = extra.get("artifact_bytes", 0)
        metrics["dashboard.journal_events"] = extra.get("journal_events", 0)

        for layer, bucket in fold.items():
            metrics[f"{layer}.self_s"] = bucket["self_s"] * profile_rep.factor
            metrics[f"{layer}.calls"] = bucket["calls"]

        for name in layertrace.COUNTER_NAMES:
            metrics[name] = totals.get(name, 0)

        def ratio(top: str, bottom: str) -> Optional[float]:
            if metrics[top] is None or metrics[bottom] is None:
                return None
            return metrics[top] / metrics[bottom] if metrics[bottom] else 0.0

        metrics["core.kernel.events_per_tx"] = ratio("core.kernel.events", "core.sim_tx")
        metrics["net.packets_per_commit"] = ratio("net.packets", "protocols.commits")
        finished = (metrics["protocols.commits"] or 0) + (metrics["protocols.aborts"] or 0)
        metrics["protocols.commit_ratio"] = (
            None
            if metrics["protocols.commits"] is None
            else (metrics["protocols.commits"] / finished if finished else 0.0)
        )

        untraced = statistics.median(rep.wall * rep.factor for rep in self.reps)
        simulated = statistics.median(
            sum(rep.cell_walls.values()) * rep.factor for rep in self.reps
        )
        events = metrics["core.kernel.events"]
        metrics["core.kernel.us_per_event"] = (
            simulated / events * 1e6 if events else None
        )
        metrics["trace_overhead_x"] = span_rep.wall * span_rep.factor / untraced
        metrics["profile_overhead_x"] = (
            profile_rep.wall * profile_rep.factor / untraced
        )
        return metrics

    # -- results -------------------------------------------------------
    def end_to_end(
        self, per_cell: Dict[str, Dict[str, float]]
    ) -> Dict[str, Dict[str, object]]:
        """The end-to-end metrics with their samples' quartiles; values
        are in calibrated seconds, ``raw`` is the same statistic over
        the unscaled walls."""
        cells = len(self.cells)
        raw_walls = [rep.wall for rep in self.reps]
        walls = [rep.wall * rep.factor for rep in self.reps]
        out: Dict[str, Dict[str, object]] = {}

        def entry(value, samples, raw):
            q1, median, q3 = quartiles(samples)
            return {
                "value": value,
                "n": len(samples),
                "q1": q1,
                "median": median,
                "q3": q3,
                "raw": raw,
            }

        out["cells_per_sec"] = entry(
            cells / statistics.median(walls),
            [cells / wall for wall in walls],
            cells / statistics.median(raw_walls),
        )
        slowest = max(per_cell, key=lambda label: per_cell[label]["median"])
        out["slowest_cell_s"] = entry(
            per_cell[slowest]["median"],
            [rep.cell_walls[slowest] * rep.factor for rep in self.reps],
            statistics.median(rep.cell_walls[slowest] for rep in self.reps),
        )
        out["slowest_cell_s"]["cell"] = slowest
        for name, samples in (
            ("report_s", self.report_samples),
            ("setup_s", self.setup_samples),
        ):
            if samples:
                calibrated = [sample[1] for sample in samples]
                out[name] = entry(
                    statistics.median(calibrated),
                    calibrated,
                    statistics.median(sample[0] for sample in samples),
                )
        if self.peak_rss_mb is not None:
            out["peak_rss_mb"] = entry(
                self.peak_rss_mb, [self.peak_rss_mb], self.peak_rss_mb
            )
        return out

    def cell_quartiles(self) -> Dict[str, Dict[str, float]]:
        out = {}
        for label, _ in self.cells:
            q1, median, q3 = quartiles(
                [rep.cell_walls[label] * rep.factor for rep in self.reps]
            )
            out[label] = {"n": len(self.reps), "q1": q1, "median": median, "q3": q3}
        return out

    def summary(self, trace: bool, declared: Dict[str, Dict[str, str]]) -> Dict[str, object]:
        per_cell = self.cell_quartiles()
        measured = (
            {name: {"value": value} for name, value in self.layer_metrics().items()}
            if trace
            else self.end_to_end(per_cell)
        )
        for name, entry in measured.items():
            entry["unit"] = declared.get(name, {}).get("unit", "")
        missing = sorted(set(declared) - set(measured))
        if missing:
            self.problems.append(f"{self.name}: not measured: {', '.join(missing)}")
        return {
            "correct": not self.failures and not self.problems,
            "attempted": self.attempted,
            "failed": len(self.failures),
            "failed_share": len(self.failures) / max(1, self.attempted),
            "failures": self.failures,
            "rounds": len(self.reps),
            "cells": len(self.cells),
            "spec_hash": self.spec.spec_hash(),
            "metrics": measured,
            "cell_walls": per_cell,
            # Raw wall seconds and calibration walls of every repetition:
            # a noisy run is recognisable from the file alone.
            "repetitions": [
                {
                    "wall": rep.wall,
                    "cell_walls": rep.cell_walls,
                    "calibrations": rep.calibrations,
                }
                for rep in self.reps
            ],
            "result_digests": self.digests,
            "unavailable": sorted(set(self.unavailable)),
        }


# ----------------------------------------------------------------------
# one run
# ----------------------------------------------------------------------
def host_context() -> Dict[str, object]:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "loadavg_1min_start": os.getloadavg()[0],
    }


def measure(
    names: Sequence[str], seed: int, seconds: float, trace: bool, quick: bool
) -> Dict[str, object]:
    """Run the selected workloads and return the result document."""
    api = load_api()
    benchmark = load_benchmark_json()
    declared = {
        metric["name"]: metric
        for metric in benchmark["per_layer" if trace else "end_to_end"]
    }
    host = host_context()
    runs = [WorkloadRun(api, name, seed, quick) for name in names]
    round_calibrations: List[float] = []
    try:
        if trace:
            # One warm-up each, then the traced passes; the untraced
            # rounds are only their reference and get half the time.
            for run in runs:
                run.rep()
            for run in runs:
                run.traced_pass()
        else:
            for run in runs:
                run.warm_up()
        budget = seconds * len(runs) * (0.5 if trace else 1.0)
        started = time.perf_counter()
        rounds = 0
        while True:
            # Every workload once per round, in fixed order: interleaving
            # spreads a slow stretch of the host over all of them.
            reps = [run.rep() for run in runs]
            for run, rep in zip(runs, reps):
                run.reps.append(rep)
            round_calibrations.append(
                statistics.median(c for rep in reps for c in rep.calibrations)
            )
            rounds += 1
            if quick:
                if rounds >= QUICK_ROUNDS:
                    break
            elif rounds >= MIN_ROUNDS and time.perf_counter() - started >= budget:
                break
        if not trace:
            for run in runs:
                run.report_phase()
                run.cold_pass()
        workloads = {run.name: run.summary(trace, declared) for run in runs}
        problems = [problem for run in runs for problem in run.problems]
    finally:
        for run in runs:
            run.cleanup()
    host["loadavg_1min_end"] = os.getloadavg()[0]
    spread = (max(round_calibrations) - min(round_calibrations)) / statistics.median(
        round_calibrations
    )
    return {
        "schema": RESULT_SCHEMA,
        "comparable": not quick,
        "trace": int(trace),
        "seed": seed,
        "seconds": seconds,
        "quick": quick,
        "host": host,
        "calibration": {
            "ref_s": CALIBRATION_REF_S,
            "per_round_s": round_calibrations,
            "spread": spread,
        },
        "problems": problems,
        "workloads": workloads,
    }


# ----------------------------------------------------------------------
# output
# ----------------------------------------------------------------------
def number(value: object) -> str:
    if value is None:
        return "unavailable"
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


def print_report(result: Dict[str, object], benchmark: Dict[str, object]) -> None:
    trace = bool(result["trace"])
    declared = {
        m["name"]: m for m in benchmark["per_layer" if trace else "end_to_end"]
    }
    calibration = result["calibration"]
    print(
        f"bench: seed {result['seed']}, trace {result['trace']}, "
        f"{'quick (not comparable)' if result['quick'] else 'full'}; "
        f"times in calibrated seconds (ref {calibration['ref_s']} s, "
        f"host-speed spread across rounds {calibration['spread']:.1%})"
    )
    for name, workload in result["workloads"].items():
        print(
            f"\n{name}: {workload['cells']} cells x {workload['rounds']} rounds, "
            f"{workload['failed']}/{workload['attempted']} cells failed "
            f"(failed_share {workload['failed_share']:.4f}), "
            f"{'correct' if workload['correct'] else 'INCORRECT'}"
        )
        for metric, entry in workload["metrics"].items():
            info = declared.get(metric, {})
            line = f"  {metric:<32} {number(entry['value']):>12} {entry['unit']:<6}"
            if "n" in entry:
                bound = info.get("bound")
                line += (
                    f" {info.get('better', ''):<6} is better"
                    + (f", bound {bound:.0%}" if bound is not None else "")
                    + f"; n={entry['n']} q1 {number(entry['q1'])} "
                    f"median {number(entry['median'])} q3 {number(entry['q3'])}"
                    f"; raw {number(entry['raw'])}"
                )
            print(line)
        if not trace:
            # k samples per cell are too few for a tail percentile:
            # quartiles only.
            print(f"  per-cell wall, n={workload['rounds']} each (q1 / median / q3, s):")
            for label, q in workload["cell_walls"].items():
                print(
                    f"    {label:<36} {q['q1']:.4f} / {q['median']:.4f} / {q['q3']:.4f}"
                )
        for failure in workload["failures"]:
            print(f"  FAILED {failure['cell']}: {failure['reason']}")
        if workload["unavailable"]:
            print(f"  unavailable: {', '.join(workload['unavailable'])}")
    for problem in result["problems"]:
        print(f"PROBLEM {problem}")


def contract_line(workload: Dict[str, object], declared: Sequence[str]) -> str:
    """The driver's result object.  An unavailable per-layer metric is
    ``null`` in the result file and 0 here, where a number is required."""
    metrics = workload["metrics"]
    return json.dumps(
        {
            "correct": workload["correct"],
            "attempted": workload["attempted"],
            "failed": workload["failed"],
            "metrics": {
                name: {
                    "value": metrics[name]["value"] or 0,
                    "unit": metrics[name]["unit"],
                }
                for name in declared
                if name in metrics
            },
        }
    )


# ----------------------------------------------------------------------
# entry points
# ----------------------------------------------------------------------
def peak_rss_mb() -> float:
    """Peak resident set of this process.  ``VmHWM`` belongs to the
    address space, so it starts afresh at exec; ``ru_maxrss`` would
    carry over the peak of the (much larger) benchmark process that
    forked this one."""
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cold_child(name: str, seed: int, quick: bool, full_rep: bool) -> int:
    """The fresh interpreter of the cold pass: import, expand, construct
    every Scenario, say ``ready``; then report this process's own
    calibration (and, after one repetition, its peak RSS)."""
    api = load_api()
    run = WorkloadRun(api, name, seed, quick)
    scenarios = [api.Scenario(config) for _, config in run.cells]
    print("ready", flush=True)
    del scenarios
    report: Dict[str, object] = {
        "calibration": statistics.mean(calibrate() for _ in range(2))
    }
    if full_rep:
        try:
            run.rep()
        finally:
            run.cleanup()
        report["peak_rss_mb"] = peak_rss_mb()
        report["attempted"] = run.attempted
        report["failures"] = run.failures
    print(json.dumps(report))
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload",
        action="append",
        choices=WORKLOADS,
        help="repeatable; default: all five, interleaved round by round",
    )
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--seconds",
        type=float,
        default=None,
        help="measured time per workload (default: run_seconds of BENCHMARK.json)",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--quick",
        action="store_true",
        help=f"{QUICK_ROUNDS} rounds, transactions and clients / 4; result is not comparable",
    )
    parser.add_argument("-o", "--output", default=None, help="result file")
    parser.add_argument("--cold-child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--full-rep", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    # The benchmark pins its own inputs: the campaign knobs of the
    # environment must not redirect artifacts or add workers.
    for knob in ("REPRO_ARTIFACT_DIR", "REPRO_WORKERS"):
        os.environ.pop(knob, None)

    names = tuple(dict.fromkeys(args.workload or WORKLOADS))
    if args.cold_child:
        return cold_child(names[0], args.seed, args.quick, args.full_rep)

    benchmark = load_benchmark_json()
    seconds = args.seconds if args.seconds is not None else benchmark["run_seconds"]
    result = measure(names, args.seed, seconds, bool(args.trace), args.quick)

    print_report(result, benchmark)
    if result["calibration"]["spread"] > 0.10:
        print(
            f"WARNING: host speed varied by {result['calibration']['spread']:.0%} "
            "across rounds; calibrated times compensate, raw walls do not",
            file=sys.stderr,
        )
    output = Path(args.output) if args.output else OUT_DIR / "result.json"
    output.parent.mkdir(parents=True, exist_ok=True)
    output.write_text(json.dumps(result, indent=1) + "\n")
    print(f"\nresult written to {output}")
    declared = [
        m["name"] for m in benchmark["per_layer" if args.trace else "end_to_end"]
    ]
    for name in names:
        print(contract_line(result["workloads"][name], declared))
    return 0 if all(w["correct"] for w in result["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
