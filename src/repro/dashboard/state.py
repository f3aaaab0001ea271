"""CampaignView: the incremental model behind the dashboard API.

One view watches one campaign artifact directory and merges two
sources on every ``refresh()``:

* the ``events.jsonl`` journal (when present) — *liveness*: which cells
  are running right now, worker attribution, the runner's own progress
  counters and ETA, cache-hit provenance;
* the artifact store — *results*: headline metric values, axis tags and
  invariant violations, re-read only for files whose ``(mtime, size)``
  changed since the last scan.

Either source alone is enough: a finished campaign with no journal
still serves cells and metrics (a stored cell reads its verdict); a
campaign whose artifacts are still being written serves live statuses
from the journal while metrics fill in cell by cell.

Every payload carries :data:`DASHBOARD_SCHEMA` so API consumers (and
the CI smoke job) can pin the shape they parse.  The shapes — cell
record, status summary, violations feed — are the module-level
functions below, shared with the ``report --html`` exporter
(:mod:`~repro.dashboard.page`) so the two pages cannot drift apart.
Artifacts become cells exactly as ``report`` reads them; an unusable
file is skipped until its ``(mtime, size)`` changes.
"""

from __future__ import annotations

import threading
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Union

from ..analysis.metrics import HEADLINE_METRICS, available_metrics, metric_values
from ..analysis.resultset import (
    AnalysisError,
    ResultCell,
    artifact_cell,
    manifest_cells,
)
from ..core.gcpause import paused_gc
from ..core.safety import VERDICTS
from ..runner.store import MANIFEST_NAME, ArtifactError, ArtifactStore
from .journal import JournalReader, journal_path

__all__ = [
    "DASHBOARD_SCHEMA",
    "CampaignView",
    "absorb_result",
    "cell_record",
    "cells_shape",
    "status_summary",
    "violations_feed",
]

#: Schema tag stamped on every JSON payload the dashboard serves.
DASHBOARD_SCHEMA = "repro.dashboard/1"

#: Cell statuses, in display order: journal liveness first, then
#: terminal states.  ``cached`` is an ``ok`` cell that resumed from an
#: artifact instead of executing.
CELL_STATUSES = ("pending", "running") + VERDICTS + ("failed", "cached")


def cell_record(label: str) -> Dict[str, object]:
    """The record of a cell nothing is known about yet."""
    return {
        "label": label,
        "status": "pending",
        "source": None,
        "duration": None,
        "worker": None,
        "violations": 0,
        "metrics": None,
        "axes": {},
    }


def absorb_result(record: Dict[str, object], cell: ResultCell) -> None:
    """Fill ``record`` from a decoded cell: its verdict (unless the
    journal said ``failed``, or ``cached`` for an ``ok`` cell), headline
    metrics, axis tags and violations.  Only values are kept, never the
    result itself, so a view's memory does not grow with its cells."""
    if record["status"] != "failed" and (
        (cell.status, record["status"]) != ("ok", "cached")
    ):
        record["status"] = cell.status
    record["metrics"] = metric_values(cell.result, HEADLINE_METRICS)
    record["axes"] = dict(cell.axes)
    tagged = [v.tagged(cell.label) for v in cell.result.violations]
    record["violations"] = len(tagged)
    record["_violations"] = tagged  # private: served by the feed only


def cells_shape(records: Iterable[Dict[str, object]]) -> Dict[str, object]:
    return {
        "metrics": list(HEADLINE_METRICS),
        "cells": [
            {k: v for k, v in record.items() if not k.startswith("_")}
            for record in records
        ],
    }


def status_summary(records: Iterable[Dict[str, object]]) -> Dict[str, object]:
    """Cells per status, how many are terminal, violations in total."""
    counts = {status: 0 for status in CELL_STATUSES}
    violations = 0
    for record in records:
        counts[str(record["status"])] += 1
        violations += int(record["violations"] or 0)
    done = sum(counts.values()) - counts["pending"] - counts["running"]
    return {"counts": counts, "done": done, "violations": violations}


def violations_feed(records: Iterable[Dict[str, object]]) -> Dict[str, object]:
    violations: List[Dict[str, object]] = []
    for record in records:
        violations.extend(record.get("_violations", []))
    return {"total": len(violations), "violations": violations}


class CampaignView:
    """Incremental, thread-safe view over one campaign directory."""

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)
        self._store = ArtifactStore(self.root)
        self._reader = JournalReader(journal_path(self.root))
        self._lock = threading.Lock()
        #: Every journal event seen so far, in sequence order.
        self._events: List[Dict[str, object]] = []
        #: label -> mutable cell record (see :func:`cell_record`), in
        #: display order: spec-expansion order, then first-seen extras.
        self._cells: Dict[str, Dict[str, object]] = {}
        #: artifact path -> (mtime_ns, size) of the last read.
        self._scanned: Dict[Path, tuple] = {}
        self._campaign: Dict[str, object] = {}
        self._finished = False
        self._progress: Dict[str, object] = {}
        self._manifest_loaded = False
        #: label -> the campaign spec's axis bindings (from the manifest).
        self._spec_axes: Dict[str, Dict[str, object]] = {}

    # ------------------------------------------------------------------
    def _cell(self, label: str) -> Dict[str, object]:
        if label not in self._cells:
            self._cells[label] = cell_record(label)
        return self._cells[label]

    def _load_manifest(self) -> None:
        """Seed campaign identity, the expected cell list and the spec's
        axis tags from the store manifest (retried until one appears —
        ``serve`` may start before ``run`` writes it)."""
        if self._manifest_loaded:
            return
        manifest = self._store.load_manifest()
        if manifest is None:
            return
        self._manifest_loaded = True
        self._campaign.setdefault("campaign", manifest.get("campaign", ""))
        self._campaign.setdefault("spec_hash", manifest.get("spec_hash"))
        try:
            _name, _hash, expected = manifest_cells(
                manifest, self.root / MANIFEST_NAME
            )
        except AnalysisError:
            return  # the view is tolerant: cells appear as seen
        for label, _axes in expected:
            self._cell(label)
        self._spec_axes = dict(expected)

    def _read(self, path: Path) -> Optional[ResultCell]:
        """One artifact as a cell, or None when it is unusable."""
        try:
            return artifact_cell(
                path, self._store.read_cell(path), self._spec_axes
            )
        except ArtifactError:
            return None

    def _apply_event(self, event: Dict[str, object]) -> None:
        kind = event.get("kind")
        if kind == "campaign-start":
            self._campaign = {
                "campaign": event.get("campaign", ""),
                "spec_hash": event.get("spec_hash"),
                "total": event.get("total"),
                "workers": event.get("workers"),
            }
            self._finished = False
        elif kind == "cell-start":
            cell = self._cell(str(event.get("label", "")))
            if cell["status"] == "pending":
                cell["status"] = "running"
        elif kind == "cell-finish":
            cell = self._cell(str(event.get("label", "")))
            status = event.get("status")
            if status == "ok" and event.get("source") == "artifact":
                status = "cached"
            cell["status"] = status if status in CELL_STATUSES else "failed"
            cell["source"] = event.get("source")
            cell["duration"] = event.get("duration")
            cell["worker"] = event.get("worker")
            cell["violations"] = event.get("violations", 0)
            self._progress = {
                "done": event.get("done"),
                "total": event.get("total"),
                "eta": event.get("eta"),
                "elapsed": event.get("elapsed"),
            }
        elif kind == "campaign-end":
            self._finished = True
            self._progress["eta"] = 0.0
            self._progress["elapsed"] = event.get("elapsed")

    @paused_gc()
    def _scan_artifacts(self) -> None:
        """Absorb new/changed cell artifacts: metrics, axes, violations."""
        for path, mtime_ns, size in self._store.list_cells():
            if self._scanned.get(path) == (mtime_ns, size):
                continue
            self._scanned[path] = (mtime_ns, size)
            cell = self._read(path)
            if cell is not None:
                absorb_result(self._cell(cell.label), cell)

    def refresh(self) -> None:
        """Bring the view up to date (cheap when nothing changed)."""
        with self._lock:
            self._load_manifest()
            for event in self._reader.poll():
                self._events.append(event)
                self._apply_event(event)
            self._scan_artifacts()

    # ------------------------------------------------------------------
    # payloads (each refreshes first; all are JSON-ready dicts)
    # ------------------------------------------------------------------
    def campaign_payload(self) -> Dict[str, object]:
        self.refresh()
        with self._lock:
            summary = status_summary(self._cells.values())
            total = self._campaign.get("total") or len(self._cells)
            return {
                "schema": DASHBOARD_SCHEMA,
                "campaign": self._campaign.get("campaign", ""),
                "spec_hash": self._campaign.get("spec_hash"),
                "root": str(self.root),
                "total": total,
                "workers": self._campaign.get("workers"),
                **summary,
                "finished": self._finished
                or (total > 0 and summary["done"] >= total),
                "eta": self._progress.get("eta"),
                "elapsed": self._progress.get("elapsed"),
                "journal": {
                    "events": len(self._events),
                    "skipped": self._reader.skipped,
                    "last_seq": self._reader.last_seq,
                },
            }

    def cells_payload(self) -> Dict[str, object]:
        self.refresh()
        with self._lock:
            return {
                "schema": DASHBOARD_SCHEMA,
                **cells_shape(self._cells.values()),
            }

    def metrics_payload(self, name: str) -> Dict[str, object]:
        if name not in available_metrics():
            raise KeyError(
                f"unknown metric {name!r} "
                f"(available: {', '.join(available_metrics())})"
            )
        self.refresh()
        with self._lock:
            if name in HEADLINE_METRICS:
                values = {
                    label: (record["metrics"] or {}).get(name)
                    for label, record in self._cells.items()
                }
            else:
                # non-headline metrics are not cached on the cell
                # records; answer them with an on-demand artifact read
                values = self._metric_values(name)
            points = [
                {"label": label, "value": values.get(label)}
                for label in self._cells
            ]
            return {
                "schema": DASHBOARD_SCHEMA,
                "metric": name,
                "points": points,
            }

    def _metric_values(self, name: str) -> Dict[str, object]:
        out: Dict[str, object] = {}
        for path, _mtime, _size in self._store.list_cells():
            cell = self._read(path)
            if cell is not None:
                out[cell.label] = metric_values(cell.result, (name,))[name]
        return out

    def violations_payload(self) -> Dict[str, object]:
        self.refresh()
        with self._lock:
            return {
                "schema": DASHBOARD_SCHEMA,
                **violations_feed(self._cells.values()),
            }

    def events_payload(self, since: int = 0) -> Dict[str, object]:
        self.refresh()
        with self._lock:
            return {
                "schema": DASHBOARD_SCHEMA,
                "since": since,
                "last_seq": self._reader.last_seq,
                "skipped": self._reader.skipped,
                "events": [
                    e for e in self._events if int(e.get("seq", 0)) > since
                ],
            }
