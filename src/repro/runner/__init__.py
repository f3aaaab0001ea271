"""Parallel experiment runner: labelled scenario grids across processes.

The paper's evaluation is a large scenario grid (Figures 5-7, Tables
1-2); this package executes such grids across worker processes with
deterministic per-scenario seeding, crash-isolated workers, progress/ETA
reporting and a JSON artifact store that makes campaigns resumable.

**Contract.** Given ``[(label, ScenarioConfig), ...]``, produce one
:class:`ScenarioResult` per cell — computed in-process, in a worker, or
loaded from a matching artifact — and report per-cell failures without
aborting the campaign.

**Invariants.**

* *Results are values* — on every source a cell's result is its
  ``ScenarioResult.to_dict()`` payload rebuilt with ``from_dict``, and
  the cell's simulation graph is reclaimed before the next cell starts
  (campaign time linear in cells, memory flat).  Live sites are on a
  ``Scenario`` you run yourself: ``scenario = Scenario(config);
  scenario.run(); scenario.sites``;
* *Execution-path equivalence* — that payload is identical whether the
  cell ran directly, with ``workers=1``, in a pool, or was resumed from
  an artifact (results serialize losslessly for everything the figures
  read);
* *Resume safety* — an artifact is only reused when its stored config
  matches the cell's config exactly;
* *Crash isolation* — a worker crash (or a cell raising) marks that
  cell failed with its traceback; the rest of the campaign completes.
  ``KeyboardInterrupt``/``SystemExit`` inside an in-process cell abort
  the campaign instead;
* *Collector neutrality* — ``run_campaign`` pauses the cyclic collector
  per cell and leaves ``gc.isenabled()`` as it found it.

Quick start::

    from repro import metric_value
    from repro.runner import run_campaign

    campaign = run_campaign(
        [("3 Sites x500", ScenarioConfig(sites=3, clients=500, ...))],
        workers=4,                    # or REPRO_WORKERS
        artifact_dir="results/fig5",  # optional: skip completed cells
        progress=True,
    )
    for label, result in campaign.pairs():
        print(label, metric_value(result, "throughput_tpm"))
"""

from .progress import ETA_WINDOW, CampaignProgress, ProgressEvent
from .runner import (
    WORKERS_ENV,
    CampaignCell,
    CampaignError,
    CampaignResult,
    resolve_workers,
    run_campaign,
)
from .store import (
    ARTIFACT_DIR_ENV,
    MANIFEST_NAME,
    ArtifactCollisionError,
    ArtifactError,
    ArtifactStore,
)

__all__ = [
    "ARTIFACT_DIR_ENV",
    "ETA_WINDOW",
    "MANIFEST_NAME",
    "WORKERS_ENV",
    "ArtifactCollisionError",
    "ArtifactError",
    "ArtifactStore",
    "CampaignCell",
    "CampaignError",
    "CampaignProgress",
    "CampaignResult",
    "ProgressEvent",
    "resolve_workers",
    "run_campaign",
]
