"""The named metric table: ``name -> typed extractor``.

Mirrors the replication-protocol and campaign tables: every number a
report, benchmark, example or regression check derives from a
:class:`~repro.core.experiment.ScenarioResult` is a :class:`Metric` in
its table, so CLIs and docs reference metrics by string and the
derivation lives in exactly one place.

Conventions:

* Extractors return ``float``; an extractor whose underlying data is
  absent (no transactions of the class, no resource samples, no
  completed rejoin, ...) returns ``math.nan`` — *not* ``0.0`` — so
  reports render a dash instead of a fake zero.
* Names are flat strings (``throughput_tpm``); parameterized families
  use ``base[arg]`` (``abort_rate[payment-long]``) and resolve through
  :func:`get_metric` like any other name.
* Each metric carries its unit and a default text format so renderers
  never invent either.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.experiment import ScenarioResult
from ..core.metrics import quantiles
from ..monitors import applicable_monitors

__all__ = [
    "HEADLINE_METRICS",
    "Metric",
    "MetricError",
    "available_metric_families",
    "available_metrics",
    "cert_latencies",
    "commit_latencies",
    "get_metric",
    "metric_value",
    "metric_values",
    "nan_to_none",
]


class MetricError(ValueError):
    """An unknown metric name."""


@dataclass(frozen=True)
class Metric:
    """One named, typed extractor over a ScenarioResult."""

    name: str
    unit: str
    description: str
    extract: Callable[[ScenarioResult], float]
    fmt: str = "{:.1f}"

    def __call__(self, result: ScenarioResult) -> float:
        return float(self.extract(result))


_FAMILY_NAME = re.compile(r"^(?P<base>[A-Za-z0-9_]+)\[(?P<arg>[^\]]+)\]$")


def get_metric(name: str) -> Metric:
    """Resolve ``name`` (plain or ``family[arg]``); MetricError names
    the available options on a miss."""
    if name in _METRICS:
        return _METRICS[name]
    match = _FAMILY_NAME.match(name)
    if match and match.group("base") in _FAMILIES:
        unit, description, fmt, factory = _FAMILIES[match.group("base")]
        arg = match.group("arg")
        return Metric(
            name=name,
            unit=unit,
            description=f"{description} ({arg})",
            extract=factory(arg),
            fmt=fmt,
        )
    raise MetricError(
        f"unknown metric {name!r} (available: "
        f"{', '.join(available_metrics())}; families: "
        f"{', '.join(f'{base}[...]' for base in sorted(_FAMILIES))})"
    )


def available_metrics() -> Tuple[str, ...]:
    """Plain metric names, in table order."""
    return tuple(_METRICS)


def available_metric_families() -> Tuple[str, ...]:
    """Parameterized family base names, sorted."""
    return tuple(sorted(_FAMILIES))


def metric_value(result: ScenarioResult, name: str) -> float:
    """``get_metric(name)(result)`` — the one-call form."""
    return get_metric(name)(result)


def nan_to_none(value: object) -> object:
    """NaN is unrepresentable in JSON — serve ``null``, never a fake 0.
    The one rule behind every JSON payload (tables, ``report --format
    json``, the HTML report, ``repro.dashboard/1``, regression
    baselines)."""
    if isinstance(value, float) and math.isnan(value):
        return None
    return value


def metric_values(
    result: ScenarioResult, names: Iterable[str]
) -> Dict[str, Optional[float]]:
    """``{name: value}``, JSON-ready (NaN -> ``None``): the one snapshot
    of a result that the JSON report, the dashboard, the golden pins and
    the regression baselines all hold."""
    return {name: nan_to_none(metric_value(result, name)) for name in names}


# ----------------------------------------------------------------------
# extractors
# ----------------------------------------------------------------------
def commit_latencies(result: ScenarioResult) -> List[float]:
    """End-to-end latencies of the committed transactions, in log order."""
    log = result.metrics
    return [
        end - submit
        for end, submit, outcome in zip(log.end_time, log.submit_time, log.outcome)
        if outcome == "commit"
    ]


def cert_latencies(result: ScenarioResult) -> List[float]:
    """Certification latencies of the transactions that were certified
    (a record of one that never was holds ``0.0``), in log order."""
    return [c for c in result.metrics.certification_latency if c > 0]


def _mean_ms(values: List[float]) -> float:
    if not values:
        return math.nan
    return sum(values) / len(values) * 1000.0


def _quantile_ms(
    samples: Callable[[ScenarioResult], List[float]], p: float
) -> Callable[[ScenarioResult], float]:
    def extract(result: ScenarioResult) -> float:
        return quantiles(samples(result), (p,))[0] * 1000.0

    return extract


def _throughput(result: ScenarioResult) -> float:
    """Commits per minute over the span from the first submission to the
    last completion (aborted transactions are not resubmitted, §5.1, so
    they simply don't count)."""
    log = result.metrics
    if not log.outcome:
        return math.nan
    elapsed = max(log.end_time) - min(log.submit_time)
    if elapsed <= 0:
        return math.nan
    return log.outcome.count("commit") * 60.0 / elapsed


def _aborted_percent(outcomes: Sequence[str]) -> float:
    if not outcomes:
        return math.nan
    aborted = len(outcomes) - outcomes.count("commit")
    return 100.0 * aborted / len(outcomes)


def _abort_rate(result: ScenarioResult) -> float:
    return _aborted_percent(result.metrics.outcome)


def _abort_rate_for(tx_class: str) -> Callable[[ScenarioResult], float]:
    if tx_class == "All":
        return _abort_rate

    def extract(result: ScenarioResult) -> float:
        log = result.metrics
        return _aborted_percent(
            [o for o, c in zip(log.outcome, log.tx_class) if c == tx_class]
        )

    return extract


def _violations(result: ScenarioResult) -> float:
    # NaN (not 0) when the cell ran without any armed monitor: "nothing
    # was checked" must render as a dash, never as a clean zero.  The
    # applicability rule (centralized baselines and unmonitored runs arm
    # nothing) lives in ``applicable_monitors``, the same decision that
    # armed — or skipped — them during the run.
    if not applicable_monitors(result.config):
        return math.nan
    return float(len(result.violations))


def _violations_for(monitor: str) -> Callable[[ScenarioResult], float]:
    def extract(result: ScenarioResult) -> float:
        if monitor not in applicable_monitors(result.config):
            return math.nan
        return float(
            sum(1 for v in result.violations if v.monitor == monitor)
        )

    return extract


def _rejoins(
    f: Callable[[Sequence], float]
) -> Callable[[ScenarioResult], float]:
    """NaN when the run completed no rejoin (nothing to measure)."""

    def extract(result: ScenarioResult) -> float:
        events = result.completed_rejoins()
        if not events:
            return math.nan
        return float(f(events))

    return extract


#: The default report columns (the runner summary's headline numbers).
HEADLINE_METRICS = (
    "throughput_tpm",
    "mean_latency_ms",
    "abort_rate",
    "cpu_total",
    "net_kbps",
)

#: plain metric name -> metric, in the order reports list them.
_METRICS: Dict[str, Metric] = {
    metric.name: metric
    for metric in (
        Metric(
            "throughput_tpm",
            "tpm",
            "committed transactions per minute",
            _throughput,
            "{:.1f}",
        ),
        Metric(
            "mean_latency_ms",
            "ms",
            "mean committed-transaction latency",
            lambda r: _mean_ms(commit_latencies(r)),
            "{:.1f}",
        ),
        Metric(
            "p50_latency_ms",
            "ms",
            "median committed-transaction latency",
            _quantile_ms(commit_latencies, 0.50),
            "{:.1f}",
        ),
        Metric(
            "p95_latency_ms",
            "ms",
            "95th-percentile committed-transaction latency",
            _quantile_ms(commit_latencies, 0.95),
            "{:.1f}",
        ),
        Metric(
            "p99_latency_ms",
            "ms",
            "99th-percentile committed-transaction latency",
            _quantile_ms(commit_latencies, 0.99),
            "{:.1f}",
        ),
        Metric(
            "abort_rate",
            "%",
            "aborted fraction of all transactions",
            _abort_rate,
            "{:.2f}",
        ),
        Metric(
            "cert_latency_ms",
            "ms",
            "mean certification latency (replicated runs)",
            lambda r: _mean_ms(cert_latencies(r)),
            "{:.1f}",
        ),
        Metric(
            "cert_p50_ms",
            "ms",
            "median certification latency",
            _quantile_ms(cert_latencies, 0.50),
            "{:.1f}",
        ),
        Metric(
            "cert_p99_ms",
            "ms",
            "99th-percentile certification latency",
            _quantile_ms(cert_latencies, 0.99),
            "{:.1f}",
        ),
        Metric(
            "cpu_total",
            "0..1",
            "steady-state CPU usage across sites",
            lambda r: r.sampler.mean_cpu()[0],
            "{:.3f}",
        ),
        Metric(
            "cpu_protocol",
            "0..1",
            "steady-state CPU usage by real protocol jobs",
            lambda r: r.sampler.mean_cpu()[1],
            "{:.4f}",
        ),
        Metric(
            "disk",
            "0..1",
            "steady-state storage utilization",
            lambda r: r.sampler.mean_disk(),
            "{:.3f}",
        ),
        Metric(
            "net_kbps",
            "KB/s",
            "steady-state fabric traffic",
            lambda r: r.sampler.net_kbytes_per_second(),
            "{:.1f}",
        ),
        Metric(
            "net_msgs",
            "packets",
            "total fabric packets transferred",
            lambda r: float(r.capture.total_packets),
            "{:.0f}",
        ),
        Metric(
            "time_to_rejoin",
            "s",
            "mean rejoin-start to live (completed rejoins)",
            _rejoins(lambda es: sum(e.time_to_rejoin() for e in es) / len(es)),
            "{:.2f}",
        ),
        Metric(
            "backlog_replayed",
            "msgs",
            "ordered messages replayed at rejoin install",
            _rejoins(lambda es: sum(e.backlog_replayed for e in es)),
            "{:.0f}",
        ),
        Metric(
            "snapshot_bytes",
            "B",
            "state-transfer snapshot volume",
            _rejoins(lambda es: sum(e.snapshot_bytes for e in es)),
            "{:.0f}",
        ),
        Metric(
            "orphaned_commits",
            "txs",
            "previous-incarnation commits absent from the adopted snapshot",
            _rejoins(lambda es: sum(e.orphaned_commits for e in es)),
            "{:.0f}",
        ),
        Metric(
            "records",
            "txs",
            "transactions completed (commit + abort)",
            lambda r: float(len(r.metrics.outcome)),
            "{:.0f}",
        ),
        Metric(
            "sim_time",
            "s",
            "simulated seconds the run covered",
            lambda r: float(r.sim_time),
            "{:.1f}",
        ),
        Metric(
            "violations",
            "count",
            "invariant violations flagged by the enabled runtime monitors",
            _violations,
            "{:.0f}",
        ),
    )
}

#: Parameterized families: base name -> (unit, description, fmt, factory);
#: ``factory(arg)`` builds the extractor for one concrete argument.
_FAMILIES: Dict[str, Tuple[str, str, str, Callable[[str], Callable]]] = {
    "abort_rate": (
        "%",
        "aborted fraction of one transaction class",
        "{:.2f}",
        _abort_rate_for,
    ),
    "violations": (
        "count",
        "invariant violations flagged by one runtime monitor",
        "{:.0f}",
        _violations_for,
    ),
}
