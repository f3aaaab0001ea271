"""Campaign execution: sequential in-process or across worker processes.

``run_campaign`` executes a list of labelled
:class:`~repro.core.experiment.ScenarioConfig` cells and returns a
:class:`CampaignResult` in input order.  Three execution sources:

* **artifact** — a matching result already sits in the artifact store
  (resume): the cell is loaded, not run.  A cell that ran is saved under
  its result's own config, which encodes exactly the config it ran;
* **in-process** — ``workers=1``: cells run sequentially in this
  process;
* **worker** — ``workers>1``: cells are farmed to a
  ``ProcessPoolExecutor``.

A campaign result is a *value* on every source: the cell's
``ScenarioResult.to_dict()`` payload, rebuilt with
``ScenarioResult.from_dict`` — the same payload ``Scenario(config).run()``
produces when you call it yourself, answering every metric, commit-log
and safety question identically, but with ``result.sites == []``.  The
live simulation graph (sites, kernel, client generators) is dropped and
reclaimed as soon as the payload exists, so a campaign's time is linear
in its cells and its memory flat; to inspect live ``sites``, run the
``Scenario`` directly.

Determinism: every scenario is seeded solely by its config, and
:class:`~repro.core.experiment.Scenario` restarts the transaction-id
stream, so the same cell produces bit-identical results — transaction
ids included — whichever source executed it and whatever ran in the
process beforehand.

Failures are isolated: an exception inside one cell — config error,
simulation bug, even a worker process dying — is recorded on that cell
(``status="failed"`` with the traceback) and the rest of the campaign
still completes.  A cell that ran has its :func:`~repro.core.safety.verdict`
as status; a bad one is a result, saved and resumed, yet not ``ok``.
"""

from __future__ import annotations

import gc
import os
import time
import traceback
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple, Union

from ..core.env import env_int, env_str
from ..core.experiment import Scenario, ScenarioConfig, ScenarioResult
from ..core.safety import verdict
from .progress import CampaignProgress, ProgressEvent
from .store import ARTIFACT_DIR_ENV, ArtifactStore

__all__ = [
    "WORKERS_ENV",
    "CampaignCell",
    "CampaignError",
    "CampaignResult",
    "resolve_workers",
    "run_campaign",
]

#: Environment knob: default worker count when ``workers=None``.
WORKERS_ENV = "REPRO_WORKERS"


class CampaignError(RuntimeError):
    """At least one campaign cell failed; carries the failed cells."""

    def __init__(self, failures: List["CampaignCell"]):
        self.failures = failures
        lines = [f"{len(failures)} campaign cell(s) failed:"]
        for cell in failures:
            first = (cell.error or "").strip().splitlines()
            lines.append(f"  {cell.label}: {first[-1] if first else 'unknown error'}")
        super().__init__("\n".join(lines))


@dataclass
class CampaignCell:
    """Outcome of one labelled grid cell."""

    label: str
    status: str  # a verdict (repro.core.safety.VERDICTS) | "failed"
    result: Optional[ScenarioResult]
    error: Optional[str]  # traceback text for failed cells
    duration: float  # wall seconds spent executing (0 for artifact loads)
    source: str  # "in-process" | "worker" | "artifact"
    #: Pid of the process that executed the cell (None for artifact
    #: loads and pool-level failures) — the journal's worker attribution.
    worker: Optional[int] = None


class CampaignResult:
    """All cells of a campaign, in the input grid order."""

    def __init__(self, cells: List[CampaignCell]):
        self.cells = cells

    @property
    def failures(self) -> List[CampaignCell]:
        return [c for c in self.cells if c.status != "ok"]

    @property
    def ok(self) -> bool:
        return not self.failures

    def get(self, label: str) -> CampaignCell:
        for cell in self.cells:
            if cell.label == label:
                return cell
        raise KeyError(label)

    def pairs(self) -> List[Tuple[str, ScenarioResult]]:
        """``[(label, result)]`` in grid order; raises
        :class:`CampaignError` if any cell failed (raised)."""
        failed = [c for c in self.cells if c.status == "failed"]
        if failed:
            raise CampaignError(failed)
        return [(c.label, c.result) for c in self.cells]  # type: ignore[misc]


def resolve_workers(workers: Optional[int] = None) -> int:
    """Explicit argument, else ``REPRO_WORKERS``, else 1.

    An unparseable or sub-1 ``REPRO_WORKERS`` warns once and falls back
    (see :mod:`repro.core.env`)."""
    if workers is not None:
        return max(1, int(workers))
    return env_int(WORKERS_ENV, 1, minimum=1)


def _resolve_store(
    artifact_dir: Optional[Union[str, Path]], campaign: Optional[str]
) -> Optional[ArtifactStore]:
    if artifact_dir is None:
        env = env_str(ARTIFACT_DIR_ENV)
        if env is None:
            return None
        artifact_dir = Path(env) / campaign if campaign else Path(env)
    return ArtifactStore(artifact_dir)


#: What one executed cell hands back, by value:
#: ``(label, payload, error, duration, pid)`` — exactly one of
#: ``payload`` (``ScenarioResult.to_dict()``) and ``error`` (traceback
#: text) is set; ``pid`` attributes the cell to the process that ran it.
CellOutcome = Tuple[str, Optional[dict], Optional[str], float, int]


def _execute_cell(label: str, config: ScenarioConfig) -> CellOutcome:
    """Run one cell and hand its outcome back by value — the one
    cell-execution path, for the in-process loop and pool workers alike.

    Live results hold simulator entities that must neither cross a
    process boundary nor outlive the cell, so only the ``to_dict()``
    payload leaves this function.  That makes the runner the owner of
    the graph's lifetime, hence of the collector: it is paused while the
    cell is assembled, run and serialised (so ``Scenario.run`` sees it
    disabled and sweeps nothing), then restored, and the graph — dead by
    now, and wholly in the young generation because nothing was
    collected since it was built — is reclaimed by a young-generation
    collection whose cost is the cell's size, not the process heap's.

    An exception becomes a failed outcome carrying its traceback.
    ``KeyboardInterrupt`` and ``SystemExit`` propagate, so an in-process
    campaign aborts; inside a pool worker the executor ships them back
    as the future's exception, which ``_run_in_pool`` records as a
    failed cell.
    """
    started = time.perf_counter()
    payload = error = None
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        payload = Scenario(config).run().to_dict()
    except Exception:
        error = traceback.format_exc()
    finally:
        if gc_was_enabled:
            gc.enable()
        gc.collect(0)
    return label, payload, error, time.perf_counter() - started, os.getpid()


def _cell_from(outcome: CellOutcome, source: str) -> "CampaignCell":
    """The :class:`CampaignCell` of an :func:`_execute_cell` outcome."""
    label, payload, error, duration, pid = outcome
    if payload is None:
        return CampaignCell(label, "failed", None, error, duration, source, pid)
    result = ScenarioResult.from_dict(payload)
    return CampaignCell(label, verdict(result), result, None, duration, source, pid)


def run_campaign(
    configs: Iterable[Tuple[str, ScenarioConfig]],
    workers: Optional[int] = None,
    artifact_dir: Optional[Union[str, Path]] = None,
    campaign: Optional[str] = None,
    progress: Union[bool, Callable[[ProgressEvent], None]] = False,
    manifest: Optional[Dict[str, object]] = None,
    journal: Union[bool, str] = "auto",
) -> CampaignResult:
    """Execute a labelled scenario grid, possibly in parallel.

    ``workers`` defaults to ``REPRO_WORKERS`` (else 1: sequential
    in-process execution).  ``artifact_dir`` (or ``REPRO_ARTIFACT_DIR``,
    suffixed with ``campaign`` when given) enables the resumable JSON
    store: cells whose stored config matches are loaded, completed cells
    are saved as soon as they finish.  ``progress`` may be ``True`` for
    the default stderr printer or any callable taking a
    :class:`ProgressEvent`.  ``manifest`` (typically
    ``CampaignSpec.manifest()``) is recorded in the artifact store for
    provenance: a ``campaign.json`` file plus a ``spec_hash`` field on
    every cell artifact written during this run.

    ``journal`` controls the ``events.jsonl`` observability journal in
    the artifact directory (see :mod:`repro.dashboard.journal`):
    ``"auto"`` (default) writes it whenever an artifact store is in
    play (the journal lives in the artifact directory), ``False``
    disables it.  The journal is pure observability: scenario results
    are bit-identical with it on or off.  A cell's ``cell-finish``
    event is emitted *after* its artifact is saved, so a live dashboard
    that reacts to the event finds the artifact on disk.
    """
    if journal != "auto" and journal is not False:
        raise ValueError(f'journal must be "auto" or False, got {journal!r}')
    labelled = list(configs)
    seen: set = set()
    for label, _ in labelled:
        if label in seen:
            raise ValueError(f"duplicate campaign label: {label!r}")
        seen.add(label)

    workers = resolve_workers(workers)
    store = _resolve_store(artifact_dir, campaign)
    if store is not None and manifest is not None:
        store.write_manifest(manifest)
    writer = None
    if journal == "auto" and store is not None:
        from ..dashboard.journal import JournalWriter, journal_path

        writer = JournalWriter(journal_path(store.root))
    reporter = CampaignProgress(total=len(labelled), workers=workers)
    if progress is True:
        on_event: Optional[Callable[[ProgressEvent], None]] = reporter
    elif callable(progress):
        on_event = progress
    else:
        on_event = None

    cells: Dict[str, CampaignCell] = {}

    if writer is not None:
        name = campaign or (manifest or {}).get("campaign") or ""
        writer.campaign_started(
            campaign=str(name),
            total=len(labelled),
            workers=workers,
            spec_hash=(manifest or {}).get("spec_hash"),
        )

    def finish(cell: CampaignCell) -> None:
        cells[cell.label] = cell
        if store is not None and cell.result is not None and cell.source != "artifact":
            store.save(cell.label, cell.result)
        event = reporter.event(cell.label, cell.status, cell.source, cell.duration)
        if writer is not None:
            violations = (
                cell.result.violations if cell.result is not None else []
            )
            writer.cell_finished(
                label=cell.label,
                status=cell.status,
                source=cell.source,
                duration=cell.duration,
                worker=cell.worker,
                done=event.done,
                total=event.total,
                eta=event.eta,
                elapsed=event.elapsed,
                violations=len(violations),
            )
            if cell.source != "artifact":
                # flush-through: violations from resumed cells were
                # already journalled by the run that executed them
                for violation in violations:
                    writer.violation(cell.label, violation)
        if on_event is not None:
            on_event(event)

    on_start = writer.cell_started if writer is not None else None

    try:
        # -- resume: load completed cells from the artifact store -------
        pending: List[Tuple[str, ScenarioConfig]] = []
        for label, config in labelled:
            cached = store.load(label, config) if store is not None else None
            if cached is not None:
                finish(CampaignCell(label, verdict(cached), cached, None, 0.0, "artifact"))
            else:
                pending.append((label, config))

        if workers <= 1:
            _run_in_process(pending, finish, on_start)
        else:
            _run_in_pool(pending, workers, finish, on_start)

        result = CampaignResult([cells[label] for label, _ in labelled])
        if writer is not None:
            writer.campaign_finished(
                ok=len(result.cells) - len(result.failures),
                failed=len(result.failures),
                elapsed=reporter.elapsed(),
            )
        return result
    finally:
        if writer is not None:
            writer.close()


def _run_in_process(
    pending: List[Tuple[str, ScenarioConfig]],
    finish: Callable[[CampaignCell], None],
    on_start: Optional[Callable[[str], None]] = None,
) -> None:
    """Sequential path: each cell executes exactly as a pool worker
    would run it, only in this process."""
    for label, config in pending:
        if on_start is not None:
            on_start(label)
        finish(_cell_from(_execute_cell(label, config), "in-process"))


def _run_in_pool(
    pending: List[Tuple[str, ScenarioConfig]],
    workers: int,
    finish: Callable[[CampaignCell], None],
    on_start: Optional[Callable[[str], None]] = None,
) -> None:
    """Process-pool path with crash isolation.

    Submission is *bounded*: at most ``workers`` cells are in flight, and
    a new cell is submitted only as another completes — so a journal
    ``cell-start`` event (emitted at submission) approximates when the
    cell actually begins executing, instead of firing for the whole grid
    up front.

    ``_execute_cell`` turns an exception *inside* a cell into a failed
    outcome; the except branches here additionally absorb what comes
    back as a future's exception — an interrupt or exit raised inside a
    worker's cell, and pool-level failures (a worker process dying takes
    the executor down — every outstanding future, and every
    not-yet-submitted cell, then resolves to a failed cell instead of
    killing the campaign)."""
    if not pending:
        return
    queue: Iterator[Tuple[str, ScenarioConfig]] = iter(pending)
    with ProcessPoolExecutor(max_workers=min(workers, len(pending))) as pool:
        futures: Dict[object, str] = {}

        def submit_next() -> None:
            for label, config in queue:
                if on_start is not None:
                    on_start(label)
                try:
                    futures[pool.submit(_execute_cell, label, config)] = label
                except BaseException as exc:  # executor already broken
                    finish(
                        CampaignCell(
                            label, "failed", None, repr(exc), 0.0, "worker"
                        )
                    )
                    continue
                return

        for _ in range(min(workers, len(pending))):
            submit_next()
        while futures:
            done, _ = wait(set(futures), return_when=FIRST_COMPLETED)
            for future in done:
                label = futures.pop(future)
                try:
                    outcome = future.result()
                except BaseException as exc:  # BrokenProcessPool and kin
                    finish(
                        CampaignCell(
                            label, "failed", None, repr(exc), 0.0, "worker"
                        )
                    )
                else:
                    finish(_cell_from(outcome, "worker"))
                submit_next()
