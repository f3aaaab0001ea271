"""Automated regression testing over load and fault scenarios (paper §7).

The paper's closing observation: "As different components are modified
by separate developers, the ability to autonomously run a set of
realistic load and fault scenarios and automatically check for
performance or reliability regressions has proved invaluable."  This
module is that harness: a :class:`RegressionSuite` owns a set of named
scenarios, records baseline metrics to JSON, and on later runs replays
the same scenarios and flags

* **reliability regressions** — a verdict other than ``ok``, a scenario
  that no longer completes its transactions, or a metric with data on
  one side only; these always fail;
* **performance regressions** — headline metrics drifting past a
  per-metric relative tolerance against the recorded baseline.

A baseline file is ``{scenario: {metric: value | null}}``: per scenario,
:func:`repro.analysis.metrics.metric_values` of ``records`` and every
toleranced metric — the snapshot the golden pins and ``report --format
json`` hold, by metric-table name, in each metric's own unit, with
``null`` where the table has no data.  :meth:`RegressionSuite.check`
refuses an entry of any other form.

Determinism of the cost-model clock makes the comparison sharp: a clean
tree reproduces its baseline bit-for-bit, so any drift is a real change.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from .experiment import ScenarioConfig
from .safety import SafetyViolation

__all__ = ["RegressionSuite", "Regression"]

#: Metric-table name -> default relative tolerance.
DEFAULT_TOLERANCES: Dict[str, float] = {
    "throughput_tpm": 0.10,
    "mean_latency_ms": 0.15,
    "abort_rate": 0.25,
    "cert_p99_ms": 0.35,
    "cpu_protocol": 0.30,
}
#: Metrics where only growth (resp. shrinkage) is a regression.
_HIGHER_IS_BETTER = {"throughput_tpm"}
_ABSOLUTE_FLOOR = {
    # ignore drift below these absolute values (noise around zero)
    "abort_rate": 0.5,  # percentage points
    "cert_p99_ms": 2.0,  # ms
    "cpu_protocol": 0.002,  # fraction
}
#: A replay completing fewer than this share of the recorded
#: transactions (the ``records`` metric) is a reliability regression.
_MIN_COMPLETED = 0.9

Values = Dict[str, Optional[float]]


@dataclass(frozen=True)
class Regression:
    """One detected regression (``None``: that side has no data)."""

    scenario: str
    metric: str
    baseline: Optional[float]
    measured: Optional[float]
    kind: str  # "performance" | "reliability"

    def __str__(self) -> str:
        base, now = (
            "null" if v is None else f"{v:.4g}"
            for v in (self.baseline, self.measured)
        )
        return (
            f"[{self.kind}] {self.scenario}.{self.metric}: "
            f"baseline {base}, measured {now}"
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

    @property
    def _recorded(self) -> Tuple[str, ...]:
        """The metrics a baseline entry holds."""
        return ("records",) + tuple(self.tolerances)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def _run_all(
        self, names: Optional[List[str]] = None
    ) -> Dict[str, Tuple[Values, str]]:
        """Run the named scenarios (default: all, possibly in parallel),
        in sorted name order: ``{name: (metric values, verdict)}``."""
        # local: analysis sits above core, and the runner imports core
        from ..analysis.metrics import metric_values
        from ..runner import run_campaign

        if names is None:
            names = sorted(self.scenarios)
        labelled = [(name, self.scenarios[name]) for name in names]
        campaign = run_campaign(labelled, workers=self.workers)
        campaign.pairs()  # a scenario that raised raises here
        return {
            cell.label: (metric_values(cell.result, self._recorded), cell.status)
            for cell in campaign.cells
        }

    def record(self, path: Union[str, Path]) -> Dict[str, Values]:
        """Run every scenario and write the baseline file (``ok`` only)."""
        baselines = {}
        for name, (values, status) in self._run_all().items():
            if status != "ok":
                raise SafetyViolation(f"{name}: verdict {status!r}, not recorded")
            baselines[name] = values
        Path(path).write_text(json.dumps(baselines, indent=2, sort_keys=True))
        return baselines

    def check(self, path: Union[str, Path]) -> List[Regression]:
        """Replay every scenario against the recorded baselines.

        Returns the list of regressions (empty = clean).  Reliability
        problems — a bad verdict (named as the metric), incomplete runs,
        a metric with data on one side only, scenarios missing from the
        baseline — are ``kind="reliability"``.  A baseline entry of any
        form but ``{metric: value | null}`` holding ``records`` and every
        toleranced metric raises :class:`ValueError`.
        """
        stored = self._load(path)
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
            base, now = baseline["records"], measured["records"]
            if now < base * _MIN_COMPLETED:
                findings.append(Regression(name, "records", base, now, "reliability"))
            findings.extend(self._compare(name, baseline, measured))
        return findings

    def _load(self, path: Union[str, Path]) -> Dict[str, Values]:
        """The baseline file at ``path``, every entry checked for the one
        form :meth:`record` writes."""
        from ..analysis.metrics import MetricError, get_metric

        stored = json.loads(Path(path).read_text())
        for name, entry in stored.items():
            if not isinstance(entry, dict):
                raise ValueError(f"{path}: baseline of {name!r} is not a dict")
            missing = [m for m in self._recorded if m not in entry]
            unknown = []
            for key in entry:
                try:
                    get_metric(key)
                except MetricError:
                    unknown.append(key)
            if missing or unknown or entry.get("records") is None:
                raise ValueError(
                    f"{path}: baseline of {name!r} is not "
                    f"{{metric: value | null}} with a records count "
                    f"(missing {missing}, unknown {unknown})"
                )
        return stored

    # ------------------------------------------------------------------
    def _compare(
        self, name: str, baseline: Values, measured: Values
    ) -> List[Regression]:
        findings = []
        for metric, tolerance in self.tolerances.items():
            base = baseline[metric]
            now = measured[metric]
            if base is None or now is None:
                if base is not now:  # data on one side only
                    findings.append(
                        Regression(name, metric, base, now, "reliability")
                    )
                continue
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
