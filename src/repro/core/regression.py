"""Automated regression testing over load and fault scenarios (paper §7).

The paper's closing observation: "As different components are modified
by separate developers, the ability to autonomously run a set of
realistic load and fault scenarios and automatically check for
performance or reliability regressions has proved invaluable."  This
module is that harness: a :class:`RegressionSuite` owns a set of named
scenarios, records baseline metrics to JSON, and on later runs replays
the same scenarios and flags

* **reliability regressions** — a verdict other than ``ok``, or a
  scenario that no longer completes its transactions; these always fail;
* **performance regressions** — headline metrics drifting past a
  per-metric relative tolerance against the recorded baseline.

Determinism of the cost-model clock makes the comparison sharp: a clean
tree reproduces its baseline bit-for-bit, so any drift is a real change.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

import math

from .experiment import ScenarioConfig, ScenarioResult
from .safety import SafetyViolation

__all__ = ["RegressionSuite", "Regression", "ScenarioBaseline"]

#: Metrics captured per scenario and their default relative tolerances.
DEFAULT_TOLERANCES: Dict[str, float] = {
    "throughput_tpm": 0.10,
    "mean_latency": 0.15,
    "abort_rate": 0.25,
    "cert_p99": 0.35,
    "protocol_cpu": 0.30,
}
#: Baseline key -> (registered metric name, unit conversion into the
#: historical baseline-file unit).  Extraction goes through the
#: :mod:`repro.analysis` metric table; the keys (and units: seconds,
#: fractions) are unchanged so recorded baseline files stay comparable.
_BASELINE_SOURCES: Dict[str, Tuple[str, float]] = {
    "throughput_tpm": ("throughput_tpm", 1.0),
    "mean_latency": ("mean_latency_ms", 1e-3),
    "abort_rate": ("abort_rate", 1.0),
    "cert_p99": ("cert_p99_ms", 1e-3),
    "protocol_cpu": ("cpu_protocol", 1.0),
}
#: Metrics where only growth (resp. shrinkage) is a regression.
_HIGHER_IS_BETTER = {"throughput_tpm"}
_ABSOLUTE_FLOOR = {
    # ignore drift below these absolute values (noise around zero)
    "abort_rate": 0.5,  # percentage points
    "cert_p99": 0.002,  # seconds
    "protocol_cpu": 0.002,  # fraction
}


@dataclass(frozen=True)
class Regression:
    """One detected regression."""

    scenario: str
    metric: str
    baseline: float
    measured: float
    kind: str  # "performance" | "reliability"

    def __str__(self) -> str:
        return (
            f"[{self.kind}] {self.scenario}.{self.metric}: "
            f"baseline {self.baseline:.4g}, measured {self.measured:.4g}"
        )


@dataclass
class ScenarioBaseline:
    """Recorded metrics of one scenario run."""

    name: str
    metrics: Dict[str, float]
    completed: int

    def to_json(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "metrics": self.metrics,
            "completed": self.completed,
        }

    @classmethod
    def from_json(cls, data: Dict[str, object]) -> "ScenarioBaseline":
        return cls(
            name=str(data["name"]),
            metrics={k: float(v) for k, v in dict(data["metrics"]).items()},
            completed=int(data["completed"]),
        )


class RegressionSuite:
    """A set of named scenarios with record/check semantics."""

    def __init__(
        self,
        scenarios: Dict[str, ScenarioConfig],
        tolerances: Optional[Dict[str, float]] = None,
        workers: Optional[int] = None,
    ):
        if not scenarios:
            raise ValueError("a regression suite needs at least one scenario")
        self.scenarios = dict(scenarios)
        self.tolerances = dict(DEFAULT_TOLERANCES)
        if tolerances:
            self.tolerances.update(tolerances)
        #: Worker processes for record/check sweeps (None: REPRO_WORKERS
        #: or sequential); determinism is per-scenario, so parallel and
        #: sequential sweeps see identical metrics.
        self.workers = workers

    @classmethod
    def from_campaign(
        cls,
        spec,
        tolerances: Optional[Dict[str, float]] = None,
        workers: Optional[int] = None,
    ) -> "RegressionSuite":
        """A suite over a :class:`~repro.campaigns.CampaignSpec`: one
        named scenario per expanded cell, so the regression matrix is
        declared (and persisted/diffed) the same way campaigns are."""
        return cls(dict(spec.expand()), tolerances=tolerances, workers=workers)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    @staticmethod
    def baseline_from(name: str, result: ScenarioResult) -> ScenarioBaseline:
        """Extract the recorded metric set from a finished run.

        Values come from the :mod:`repro.analysis` metric table (the
        one derivation every consumer shares); NaN — the table's
        "no data" marker, e.g. no certifications in a centralized run —
        is stored as the historical ``0.0`` so baseline files stay
        valid JSON and keep comparing exactly as before."""
        from ..analysis.metrics import metric_value  # analysis sits above core

        metrics = {}
        for key, (metric, factor) in _BASELINE_SOURCES.items():
            value = metric_value(result, metric) * factor
            metrics[key] = 0.0 if math.isnan(value) else value
        return ScenarioBaseline(
            name=name,
            metrics=metrics,
            completed=len(result.metrics.outcome),
        )

    def _run_all(
        self, names: Optional[List[str]] = None
    ) -> Dict[str, Tuple[ScenarioBaseline, str]]:
        """Run the named scenarios (default: all, possibly in parallel),
        in sorted name order: ``{name: (baseline, verdict)}``."""
        from ..runner import run_campaign  # local: avoids an import cycle

        if names is None:
            names = sorted(self.scenarios)
        labelled = [(name, self.scenarios[name]) for name in names]
        campaign = run_campaign(labelled, workers=self.workers)
        campaign.pairs()  # a scenario that raised raises here
        return {
            cell.label: (self.baseline_from(cell.label, cell.result), cell.status)
            for cell in campaign.cells
        }

    def record(self, path: Union[str, Path]) -> Dict[str, ScenarioBaseline]:
        """Run every scenario and write the baseline file (``ok`` only)."""
        baselines = {}
        for name, (baseline, status) in self._run_all().items():
            if status != "ok":
                raise SafetyViolation(f"{name}: verdict {status!r}, not recorded")
            baselines[name] = baseline
        payload = {name: b.to_json() for name, b in baselines.items()}
        Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True))
        return baselines

    def check(self, path: Union[str, Path]) -> List[Regression]:
        """Replay every scenario against the recorded baselines.

        Returns the list of regressions (empty = clean).  Reliability
        problems — a bad verdict (named as the metric), incomplete runs,
        scenarios missing from the baseline — are ``kind="reliability"``.
        """
        stored = {
            name: ScenarioBaseline.from_json(data)
            for name, data in json.loads(Path(path).read_text()).items()
        }
        findings: List[Regression] = []
        # scenarios missing from the baseline file are findings, not
        # runs — only replay what there is a baseline to compare against
        runs = self._run_all(
            [name for name in sorted(self.scenarios) if name in stored]
        )
        for name in sorted(self.scenarios):
            if name not in stored:
                findings.append(
                    Regression(name, "baseline", 0.0, 0.0, "reliability")
                )
                continue
            baseline = stored[name]
            measured, status = runs[name]
            if status != "ok":
                findings.append(Regression(name, status, 1.0, 0.0, "reliability"))
                continue
            if measured.completed < baseline.completed * 0.9:
                findings.append(
                    Regression(
                        name,
                        "completed",
                        baseline.completed,
                        measured.completed,
                        "reliability",
                    )
                )
            findings.extend(self._compare(name, baseline, measured))
        return findings

    # ------------------------------------------------------------------
    def _compare(
        self,
        name: str,
        baseline: ScenarioBaseline,
        measured: ScenarioBaseline,
    ) -> List[Regression]:
        findings = []
        for metric, tolerance in self.tolerances.items():
            if metric not in baseline.metrics or metric not in measured.metrics:
                continue
            base = baseline.metrics[metric]
            now = measured.metrics[metric]
            floor = _ABSOLUTE_FLOOR.get(metric, 0.0)
            if abs(now - base) <= floor:
                continue
            if metric in _HIGHER_IS_BETTER:
                regressed = now < base * (1.0 - tolerance)
            else:
                regressed = now > base * (1.0 + tolerance) + floor
            if regressed:
                findings.append(
                    Regression(name, metric, base, now, "performance")
                )
        return findings
