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
still serves cells and metrics (every artifact-backed cell reads
``ok``); a campaign whose artifacts are still being written serves live
statuses from the journal while metrics fill in cell by cell.

Every payload carries :data:`DASHBOARD_SCHEMA` so API consumers (and
the CI smoke job) can pin the shape they parse.
"""

from __future__ import annotations

import threading
from pathlib import Path
from typing import Dict, List, Union

from ..analysis.metrics import HEADLINE_METRICS, available_metrics, metric_value
from ..analysis.render import nan_to_none
from ..campaigns.spec import CampaignSpec
from ..core.experiment import ScenarioResult
from ..runner.store import ArtifactStore
from .journal import JournalReader, journal_path

__all__ = ["DASHBOARD_SCHEMA", "CampaignView"]

#: Schema tag stamped on every JSON payload the dashboard serves.
DASHBOARD_SCHEMA = "repro.dashboard/1"

#: Cell statuses, in display order: journal liveness first, then
#: terminal states.  ``cached`` is an ``ok`` cell that resumed from an
#: artifact instead of executing.
CELL_STATUSES = ("pending", "running", "ok", "failed", "cached")


class CampaignView:
    """Incremental, thread-safe view over one campaign directory."""

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)
        self._store = ArtifactStore(self.root)
        self._reader = JournalReader(journal_path(self.root))
        self._lock = threading.Lock()
        #: Every journal event seen so far, in sequence order.
        self._events: List[Dict[str, object]] = []
        #: label -> mutable cell record (see ``_cell``).
        self._cells: Dict[str, Dict[str, object]] = {}
        #: Display order: spec-expansion order, then first-seen extras.
        self._order: List[str] = []
        #: artifact path -> (mtime_ns, size) of the last read.
        self._scanned: Dict[Path, tuple] = {}
        self._campaign: Dict[str, object] = {}
        self._finished = False
        self._progress: Dict[str, object] = {}
        self._manifest_loaded = False

    # ------------------------------------------------------------------
    def _cell(self, label: str) -> Dict[str, object]:
        if label not in self._cells:
            self._cells[label] = {
                "label": label,
                "status": "pending",
                "source": None,
                "duration": None,
                "worker": None,
                "violations": 0,
                "metrics": None,
                "axes": {},
            }
            self._order.append(label)
        return self._cells[label]

    def _load_manifest(self) -> None:
        """Seed campaign identity and the expected cell list from the
        store manifest (retried until one appears — ``serve`` may start
        before ``run`` writes it)."""
        if self._manifest_loaded:
            return
        manifest = self._store.load_manifest()
        if manifest is None:
            return
        self._manifest_loaded = True
        self._campaign.setdefault("campaign", manifest.get("campaign", ""))
        self._campaign.setdefault("spec_hash", manifest.get("spec_hash"))
        try:
            spec = CampaignSpec.from_dict(manifest["spec"])
            for label, _config, _axes in spec.expand_cells():
                self._cell(label)
        except (KeyError, TypeError, ValueError):
            pass  # manifest without a usable spec: cells appear as seen

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
            if event.get("status") == "ok":
                cached = event.get("source") == "artifact"
                cell["status"] = "cached" if cached else "ok"
            else:
                cell["status"] = "failed"
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

    def _scan_artifacts(self) -> None:
        """Absorb new/changed cell artifacts: metrics, axes, violations."""
        for path, mtime_ns, size in self._store.list_cells():
            if self._scanned.get(path) == (mtime_ns, size):
                continue
            payload = ArtifactStore.read_payload(path)
            if payload is None:
                continue  # mid-write or stray file: retry next refresh
            self._scanned[path] = (mtime_ns, size)
            label = str(payload.get("label", path.stem))
            try:
                result = ScenarioResult.from_dict(payload["result"])
            except (KeyError, TypeError, ValueError):
                continue
            cell = self._cell(label)
            if cell["status"] in ("pending", "running"):
                cell["status"] = "ok"  # no journal: artifact is terminal
            cell["metrics"] = {
                name: nan_to_none(metric_value(result, name))
                for name in HEADLINE_METRICS
            }
            cell["axes"] = {
                name: getattr(result.config, name)
                for name in ("protocol", "sites", "clients", "transactions", "seed")
            }
            cell["violations"] = len(result.violations)
            cell["_violations"] = [
                v.tagged(label) for v in result.violations
            ]

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
            counts = {status: 0 for status in CELL_STATUSES}
            violations = 0
            for label in self._order:
                cell = self._cells[label]
                counts[str(cell["status"])] += 1
                violations += int(cell["violations"] or 0)
            total = self._campaign.get("total") or len(self._order)
            done = sum(counts[s] for s in ("ok", "failed", "cached"))
            return {
                "schema": DASHBOARD_SCHEMA,
                "campaign": self._campaign.get("campaign", ""),
                "spec_hash": self._campaign.get("spec_hash"),
                "root": str(self.root),
                "total": total,
                "workers": self._campaign.get("workers"),
                "counts": counts,
                "done": done,
                "finished": self._finished or (total > 0 and done >= total),
                "eta": self._progress.get("eta"),
                "elapsed": self._progress.get("elapsed"),
                "violations": violations,
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
                "metrics": list(HEADLINE_METRICS),
                "cells": [
                    {
                        key: value
                        for key, value in self._cells[label].items()
                        if not key.startswith("_")
                    }
                    for label in self._order
                ],
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
                    label: (self._cells[label]["metrics"] or {}).get(name)
                    for label in self._order
                }
            else:
                # non-headline metrics are not cached on the cell
                # records; answer them with an on-demand artifact read
                values = self._metric_values(name)
            points = [
                {"label": label, "value": values.get(label)}
                for label in self._order
            ]
            return {
                "schema": DASHBOARD_SCHEMA,
                "metric": name,
                "points": points,
            }

    def _metric_values(self, name: str) -> Dict[str, object]:
        out: Dict[str, object] = {}
        for path, _mtime, _size in self._store.list_cells():
            payload = ArtifactStore.read_payload(path)
            if payload is None:
                continue
            try:
                result = ScenarioResult.from_dict(payload["result"])
            except (KeyError, TypeError, ValueError):
                continue
            label = str(payload.get("label", path.stem))
            out[label] = nan_to_none(metric_value(result, name))
        return out

    def violations_payload(self) -> Dict[str, object]:
        self.refresh()
        with self._lock:
            violations: List[Dict[str, object]] = []
            for label in self._order:
                violations.extend(self._cells[label].get("_violations", []))
            return {
                "schema": DASHBOARD_SCHEMA,
                "total": len(violations),
                "violations": violations,
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
