"""The perf-trajectory harness: measure the simulator, not the system.

Runs pinned campaigns — the registered specs with the ``transactions``
and ``seed`` axes fixed, so the measured work is identical across PRs
regardless of ``REPRO_SCALE`` — and records how fast the *simulator*
chews through them: wall-clock per cell, cells/sec,
simulated-transactions/sec, kernel events/sec, and peak RSS.  The
output is a validated ``repro.bench/1`` payload (see
:mod:`repro.perf.bench`) written as ``BENCH_<n>.json`` at the repo root.

``workers=1`` (the default) runs cells sequentially in-process;
``workers>1`` farms them to a process pool, mirroring the campaign
runner.  Since every :class:`~repro.core.experiment.Scenario` restarts
the transaction-id stream, cell *results* are bit-identical either way
(the determinism tests assert this); only the throughput numbers — and
the recorded ``pinned.workers`` — differ.

Cells always execute (never resume from artifacts — a loaded cell has no
meaningful wall-clock); pass ``artifact_root`` to additionally *save*
the measured results into a normal campaign artifact store, so
``python -m repro.runner report`` works over a perf run's outputs.

Exposed as ``python -m repro.runner perf``.
"""

from __future__ import annotations

import datetime
import os
import platform
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

try:  # POSIX; absent on some platforms — peak RSS then reads 0
    import resource
except ImportError:  # pragma: no cover - non-POSIX fallback
    resource = None  # type: ignore[assignment]

from ..campaigns import CampaignSpec, get_campaign
from ..core.experiment import Scenario, ScenarioConfig, ScenarioResult
from ..runner.runner import resolve_workers
from ..runner.store import ArtifactStore
from .bench import (
    BENCH_FORMAT,
    bench_path,
    compute_speedups,
    load_bench,
    next_bench_id,
    validate_bench,
    write_bench,
)

__all__ = [
    "PINNED_TRANSACTIONS",
    "PINNED_SEED",
    "PERF_CAMPAIGNS",
    "pinned_spec",
    "measure_campaign",
    "run_perf",
]

#: Per-cell transaction count of the pinned specs.  Fixed — never the
#: ``REPRO_SCALE``-scaled default — so every PR measures the same work.
PINNED_TRANSACTIONS = 600

#: Seed pinned across PRs for the same reason.
PINNED_SEED = 42

#: Campaigns the harness measures by default: the small ``smoke`` case
#: (fast, CI-friendly) and the full ``fig5`` performance sweep.  Both
#: are frozen history (``BENCH_7/9/10.json``); performance claims are
#: made with ``BENCHMARK.json`` and ``bench/`` instead.
PERF_CAMPAIGNS: Tuple[str, ...] = ("smoke", "fig5")

ProgressFn = Callable[[str], None]


def pinned_spec(
    name: str,
    transactions: int = PINNED_TRANSACTIONS,
    seed: int = PINNED_SEED,
) -> CampaignSpec:
    """The registered campaign ``name`` with its work pinned."""
    return (
        get_campaign(name)
        .with_axis("transactions", (transactions,))
        .with_axis("seed", (seed,))
    )


def _peak_rss_kb() -> int:
    """Peak resident set size of this process, in KB (0 if unknown)."""
    if resource is None:  # pragma: no cover - non-POSIX fallback
        return 0
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - ru_maxrss in bytes
        peak //= 1024
    return int(peak)


def _measure_cell(
    args: Tuple[str, ScenarioConfig, bool]
) -> Tuple[str, float, int, int, int, Optional[dict]]:
    """Pool-side entry point: run one pinned cell, report its timings.

    The live result holds simulator entities that must not cross the
    process boundary, so it returns as a ``to_dict()`` payload — and
    only when the parent needs it for an artifact store.
    """
    label, config, want_payload = args
    started = time.perf_counter()
    scenario = Scenario(config)
    result = scenario.run()
    wall = time.perf_counter() - started
    return (
        label,
        wall,
        len(result.metrics.records),
        scenario.sim.events_executed,
        _peak_rss_kb(),
        result.to_dict() if want_payload else None,
    )


def measure_campaign(
    name: str,
    transactions: int = PINNED_TRANSACTIONS,
    seed: int = PINNED_SEED,
    store: Optional[ArtifactStore] = None,
    progress: Optional[ProgressFn] = None,
    workers: int = 1,
    journal: bool = False,
) -> Dict[str, object]:
    """Execute the pinned campaign ``name`` and return its bench entry.

    ``workers=1``: every cell runs in-process
    (``Scenario(config).run()``), timed individually; per-cell kernel
    event counts come straight off the scenario's simulator, and
    ``peak_rss_kb`` is the process peak after the campaign — a
    high-water mark, so with multiple campaigns in one process the
    earlier entries lower-bound their own usage.

    ``workers>1``: cells are farmed to a :class:`ProcessPoolExecutor`
    in grid order.  Per-cell walls are measured inside the workers;
    the campaign wall (and hence every ``*_per_sec`` rate) is the
    parent's elapsed time around the pool, so the rates reflect the
    parallel speedup.  ``peak_rss_kb`` is the maximum over the parent
    and every worker — the footprint of the widest single process, not
    the sum.

    ``journal=True`` additionally writes the ``events.jsonl``
    observability journal inside the timed region, exactly as the
    campaign runner does — how the perf guard measures the journal's
    emission cost.  With a ``store`` the journal lands in the artifact
    directory; without one it goes to a scratch directory, so the
    emission cost is measured without conflating it with artifact
    serialization (which the pinned baselines do not include either).
    """
    spec = pinned_spec(name, transactions, seed)
    cells = spec.expand()
    if store is not None:
        store.write_manifest(spec.manifest())
    writer = None
    if journal:
        import tempfile

        from ..dashboard.journal import JournalWriter, journal_path

        root = store.root if store is not None else Path(tempfile.mkdtemp())
        writer = JournalWriter(journal_path(root))
        writer.campaign_started(
            campaign=name,
            total=len(cells),
            workers=workers,
            spec_hash=spec.spec_hash(),
        )
    cell_walls: Dict[str, float] = {}
    total_tx = 0
    total_events = 0
    worker_rss = 0
    campaign_started = time.perf_counter()
    if workers > 1:
        jobs = [(label, config, store is not None) for label, config in cells]
        with ProcessPoolExecutor(max_workers=min(workers, len(jobs))) as pool:
            outcomes: List[Tuple] = list(pool.map(_measure_cell, jobs))
        configs = dict(cells)
        for done, (label, wall, tx, events, rss, payload) in enumerate(
            outcomes, start=1
        ):
            cell_walls[label] = wall
            total_tx += tx
            total_events += events
            worker_rss = max(worker_rss, rss)
            if store is not None:
                store.save(
                    label,
                    ScenarioResult.from_dict(payload),
                    config=configs[label],
                )
            if writer is not None:
                writer.cell_finished(
                    label, "ok", "worker", wall, done=done, total=len(cells)
                )
            if progress is not None:
                progress(
                    f"perf[{name}] {label}: {wall:.2f}s "
                    f"({tx} tx, {events} events)"
                )
    else:
        for done, (label, config) in enumerate(cells, start=1):
            if writer is not None:
                writer.cell_started(label)
            started = time.perf_counter()
            scenario = Scenario(config)
            result = scenario.run()
            wall = time.perf_counter() - started
            cell_walls[label] = wall
            tx = len(result.metrics.records)
            total_tx += tx
            total_events += scenario.sim.events_executed
            if store is not None:
                store.save(label, result, config=config)
            if writer is not None:
                writer.cell_finished(
                    label,
                    "ok",
                    "in-process",
                    wall,
                    worker=os.getpid(),
                    done=done,
                    total=len(cells),
                )
            if progress is not None:
                progress(
                    f"perf[{name}] {label}: {wall:.2f}s "
                    f"({tx} tx, {scenario.sim.events_executed} events)"
                )
    wall_seconds = time.perf_counter() - campaign_started
    if writer is not None:
        writer.campaign_finished(ok=len(cells), failed=0, elapsed=wall_seconds)
        writer.close()
    return {
        "cells": len(cells),
        "transactions_total": total_tx,
        "events_total": total_events,
        "wall_seconds": wall_seconds,
        "cells_per_sec": len(cells) / wall_seconds,
        "tx_per_sec": total_tx / wall_seconds,
        "events_per_sec": total_events / wall_seconds,
        "peak_rss_kb": max(_peak_rss_kb(), worker_rss),
        "cell_walls": cell_walls,
        "spec_hash": spec.spec_hash(),
    }


def _baseline_section(
    baseline: Union[str, Path, Dict[str, object]]
) -> Dict[str, object]:
    """The embedded summary of a baseline bench payload (or file)."""
    if isinstance(baseline, (str, Path)):
        payload = load_bench(baseline)
        source = str(baseline)
    else:
        payload = validate_bench(baseline)
        source = "inline"
    return {
        "source": source,
        "bench_id": payload["bench_id"],
        "campaigns": {
            name: {
                field: entry[field]
                for field in (
                    "cells",
                    "wall_seconds",
                    "cells_per_sec",
                    "tx_per_sec",
                    "events_per_sec",
                    "peak_rss_kb",
                )
            }
            for name, entry in payload["campaigns"].items()
        },
    }


def run_perf(
    campaigns: Sequence[str] = PERF_CAMPAIGNS,
    transactions: int = PINNED_TRANSACTIONS,
    seed: int = PINNED_SEED,
    bench_id: Optional[int] = None,
    output: Optional[Union[str, Path]] = None,
    baseline: Optional[Union[str, Path, Dict[str, object]]] = None,
    artifact_root: Optional[Union[str, Path]] = None,
    force: bool = False,
    progress: Optional[ProgressFn] = None,
    workers: Optional[int] = None,
    journal: bool = False,
) -> Tuple[Dict[str, object], Optional[Path]]:
    """Measure ``campaigns`` and return ``(payload, written_path)``.

    ``output=None`` writes ``BENCH_<id>.json`` in the current directory
    (``bench_id`` defaulting to the next unused id there); pass
    ``output=""`` to skip writing.  ``baseline`` (a prior bench file or
    payload) embeds its headline numbers and per-campaign speedups.
    ``workers`` follows the campaign runner's resolution (explicit
    argument, else ``REPRO_WORKERS``, else 1) and is recorded in the
    payload's ``pinned`` section — bench files always disclose how
    their rates were obtained.  ``journal=True`` writes the
    observability journal inside the timed region (into the artifact
    store when ``artifact_root`` is given, else a scratch directory)
    and is likewise disclosed as ``pinned.journal``.
    """
    workers = resolve_workers(workers)
    measured: Dict[str, object] = {}
    for name in campaigns:
        store = (
            ArtifactStore(Path(artifact_root) / f"perf-{name}")
            if artifact_root
            else None
        )
        measured[name] = measure_campaign(
            name,
            transactions,
            seed,
            store=store,
            progress=progress,
            workers=workers,
            journal=journal,
        )
    out_dir = Path(output).parent if output else Path.cwd()
    if bench_id is None:
        bench_id = next_bench_id(out_dir)
    payload: Dict[str, object] = {
        "format": BENCH_FORMAT,
        "bench_id": bench_id,
        "created_utc": datetime.datetime.now(datetime.timezone.utc).strftime(
            "%Y-%m-%dT%H:%M:%SZ"
        ),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "pinned": {
            "transactions": transactions,
            "seed": seed,
            "workers": workers,
            "journal": journal,
        },
        "campaigns": measured,
    }
    if baseline is not None:
        section = _baseline_section(baseline)
        payload["baseline"] = section
        payload["speedup"] = compute_speedups(measured, section["campaigns"])
    validate_bench(payload)
    if output == "":
        return payload, None
    path = Path(output) if output else bench_path(out_dir, bench_id)
    return payload, write_bench(path, payload, force=force)
