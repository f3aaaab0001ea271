"""Observation: per-transaction logs and resource-usage sampling.

The client model logs, for every transaction, the time at which it was
submitted, the time at which it terminated, the outcome and an
identifier (paper §3.2); latency, throughput and abort rate can then be
computed for one or many users and for all or a subclass of the
transactions.  The simulation runtime additionally logs the usage and
queue lengths of every resource (§3.1), which is how Figures 6 and 7(c)
are produced.

Every reported number is a re-read of that log, so a logged record *is*
the row an artifact stores for it (:class:`TxRecord`,
:class:`ResourceSample`: tuples in stored column order) and reading a
log back validates it by column, not by cell (:func:`_decode_rows`).
"""

from __future__ import annotations

import functools
import math
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence
from typing import Tuple, get_type_hints

from .kernel import Entity, Simulator

__all__ = [
    "TxRecord",
    "MetricsCollector",
    "ResourceSample",
    "ResourceSampler",
    "SampleSeries",
    "ecdf",
    "quantiles",
    "qq_points",
]


class TxRecord(NamedTuple):
    """One finished transaction as seen by its issuing client.

    The record *is* the row a result artifact stores for it: the field
    order below is the stored column order, ``list(record)`` encodes it
    and ``TxRecord._make(row)`` decodes it, with nothing coerced either
    way (one row per record keeps artifacts small — grids log many
    thousands of transactions — and reading them back cheap)."""

    tx_id: int
    tx_class: str
    site: str
    submit_time: float
    end_time: float
    outcome: str  # "commit" | "abort"
    readonly: bool
    certification_latency: float = 0.0
    abort_reason: str = ""

    @property
    def latency(self) -> float:
        return self.end_time - self.submit_time

    @property
    def committed(self) -> bool:
        return self.outcome == "commit"


#: Column order of the stored rows, named in an artifact's ``fields``.
TX_RECORD_FIELDS = TxRecord._fields

#: Types a stored column may hold, by its field's annotation.  Rows are
#: never coerced, so an ``int`` the simulation left in a float column is
#: written, and read back, as that ``int``.
_STORED_TYPES = {int: {int}, str: {str}, bool: {bool}, float: {float, int}}


@functools.cache
def _column_types(record_type) -> Tuple[set, ...]:
    return tuple(_STORED_TYPES[t] for t in get_type_hints(record_type).values())


def _decode_rows(record_type, rows: Iterable[Sequence]) -> list:
    """Stored ``rows`` as ``record_type`` records, validated by column
    rather than by cell: ``_make`` checks each row's arity and every
    column is checked once for the types it holds, so a malformed
    artifact fails here, never later inside a metric."""
    records = list(map(record_type._make, rows))
    columns = zip(record_type._fields, _column_types(record_type), zip(*records))
    for name, stored, column in columns:
        found = set(map(type, column))
        if not found <= stored:
            raise ValueError(
                f"{record_type.__name__} column {name!r} holds "
                f"{sorted(t.__name__ for t in found - stored)}"
            )
    return records


class MetricsCollector:
    """The run's transaction log.  Every number derived from it is an
    extractor of :mod:`repro.analysis.metrics`."""

    def __init__(self) -> None:
        self.records: List[TxRecord] = []

    def record(self, record: TxRecord) -> None:
        self.records.append(record)

    # ------------------------------------------------------------------
    # serialization (runner artifacts, cross-process result transfer)
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        return {
            "fields": list(TX_RECORD_FIELDS),
            # lists, so the payload equals its own JSON round trip
            "records": list(map(list, self.records)),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "MetricsCollector":
        fields = tuple(data.get("fields", TX_RECORD_FIELDS))
        if fields != TX_RECORD_FIELDS:
            raise ValueError(f"unknown record encoding: {fields}")
        collector = cls()
        collector.records = _decode_rows(TxRecord, data["records"])
        return collector


# ----------------------------------------------------------------------
# distribution helpers (Figures 4 and 7)
# ----------------------------------------------------------------------
def ecdf(values: Sequence[float]) -> Tuple[List[float], List[float]]:
    """Empirical CDF: sorted values and cumulative ratios (Figure 7)."""
    ordered = sorted(values)
    n = len(ordered)
    ratios = [(i + 1) / n for i in range(n)]
    return ordered, ratios


def quantiles(values: Sequence[float], probs: Iterable[float]) -> List[float]:
    """Linear-interpolation quantiles of ``values`` at ``probs``."""
    ordered = sorted(values)
    if not ordered:
        return [math.nan for _ in probs]
    out = []
    n = len(ordered)
    for p in probs:
        if not 0.0 <= p <= 1.0:
            raise ValueError("quantile probs must be in [0, 1]")
        pos = p * (n - 1)
        lo = int(math.floor(pos))
        hi = min(lo + 1, n - 1)
        frac = pos - lo
        # ``a + (b - a) * f`` is monotone in ``f`` in floating point
        # (``a * (1 - f) + b * f`` is not), but can still escape the
        # segment by one ulp; clamp so quantiles lie within the sample
        value = ordered[lo] + (ordered[hi] - ordered[lo]) * frac
        out.append(min(max(value, ordered[lo]), ordered[hi]))
    return out


def qq_points(
    sample_a: Sequence[float], sample_b: Sequence[float], points: int = 50
) -> List[Tuple[float, float]]:
    """Quantile-quantile pairs for the Figure 4 validation plots.

    Returns ``points`` (quantile-of-a, quantile-of-b) pairs; a model that
    approximates the real system puts these near the diagonal."""
    probs = [i / (points - 1) for i in range(points)]
    qa = quantiles(sample_a, probs)
    qb = quantiles(sample_b, probs)
    return list(zip(qa, qb))


# ----------------------------------------------------------------------
# resource usage sampling (Figure 6)
# ----------------------------------------------------------------------
class ResourceSample(NamedTuple):
    """Per-interval resource usage (not cumulative): each sample covers
    the window ending at ``time``.  Like :class:`TxRecord`, the sample
    is its own stored row."""

    time: float
    cpu_total: float  # mean across sampled CPU pools, 0..1
    cpu_real: float  # fraction spent in real (protocol) jobs
    disk: float  # storage utilization, 0..1
    net_bytes: int  # fabric bytes transferred during the window


class SampleSeries:
    """A finished sequence of :class:`ResourceSample` plus its interval.

    This is the serializable, simulator-free view of a run's resource
    usage: :class:`ResourceSampler` produces one (``series()``), and a
    :class:`~repro.core.experiment.ScenarioResult` carries one in its
    ``sampler`` slot, whether it is live or rebuilt with ``from_dict``.
    """

    def __init__(self, samples: Sequence[ResourceSample], interval: float):
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.samples: List[ResourceSample] = list(samples)
        self.interval = interval

    # -- steady-state statistics (first/last 20 % trimmed, >=1 kept;
    #    NaN when the run took no sample) --------------------------------
    def _steady_window(self) -> List[ResourceSample]:
        n = len(self.samples)
        if n == 0:
            return []
        lo = n // 5
        hi = max(lo + 1, n - n // 5)
        return self.samples[lo:hi]

    def mean_cpu(self) -> Tuple[float, float]:
        """Steady-state (total, real-job) CPU usage, 0..1."""
        window = self._steady_window()
        if not window:
            return math.nan, math.nan
        total = sum(s.cpu_total for s in window) / len(window)
        real = sum(s.cpu_real for s in window) / len(window)
        return total, real

    def mean_disk(self) -> float:
        window = self._steady_window()
        if not window:
            return math.nan
        return sum(s.disk for s in window) / len(window)

    def net_kbytes_per_second(self) -> float:
        window = self._steady_window()
        if not window:
            return math.nan
        per_second = sum(s.net_bytes for s in window) / (
            len(window) * self.interval
        )
        return per_second / 1024.0

    # -- serialization --------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        return {
            "interval": self.interval,
            "samples": list(map(list, self.samples)),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "SampleSeries":
        samples = _decode_rows(ResourceSample, data["samples"])
        return cls(samples, float(data["interval"]))


class ResourceSampler(Entity):
    """Samples CPU/disk/network usage per interval during a run.

    Utilizations are interval deltas of the resources' busy-time
    counters, so ramp-up and drain phases do not dilute steady-state
    readings; :class:`SampleSeries`' steady-state statistics additionally
    trim the first and last fifth of the samples (the paper's runs
    discard warm-up too).
    """

    def __init__(
        self,
        sim: Simulator,
        interval: float = 1.0,
        cpu_pools: Sequence[object] = (),
        storages: Sequence[object] = (),
        capture: Optional[object] = None,
    ):
        super().__init__(sim, "sampler")
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.interval = interval
        self.cpu_pools = list(cpu_pools)
        self.storages = list(storages)
        self.capture = capture
        self.samples: List[ResourceSample] = []
        self._started = False
        self._last_cpu: List[Tuple[float, float]] = []
        self._last_disk: List[float] = []
        self._last_net = 0

    def start(self) -> None:
        if self._started:
            return
        self._started = True
        self._last_cpu = [self._pool_busy(pool) for pool in self.cpu_pools]
        self._last_disk = [s.stats.busy_time for s in self.storages]
        self._last_net = self.capture.total_bytes if self.capture else 0
        self.call(self.interval, self._tick)

    def _pool_busy(self, pool) -> Tuple[float, float]:
        """(sim, real) cumulative busy seconds over a pool's CPUs,
        including the running slice of in-progress jobs."""
        sim_busy = real_busy = 0.0
        for cpu in pool.cpus:
            sim_part, real_part = cpu.busy_seconds()
            sim_busy += sim_part
            real_busy += real_part
        return sim_busy, real_busy

    def _tick(self) -> None:
        # Running sums instead of per-tick fraction lists: same additions
        # in the same order as summing the lists, no allocation.
        cpu_total = cpu_real = 0.0
        if self.cpu_pools:
            total_sum = real_sum = 0.0
            last_cpu = self._last_cpu
            for i, pool in enumerate(self.cpu_pools):
                now_busy = self._pool_busy(pool)
                window = self.interval * len(pool.cpus)
                delta_sim = now_busy[0] - last_cpu[i][0]
                delta_real = now_busy[1] - last_cpu[i][1]
                last_cpu[i] = now_busy
                total_sum += (delta_sim + delta_real) / window
                real_sum += delta_real / window
            cpu_total = total_sum / len(self.cpu_pools)
            cpu_real = real_sum / len(self.cpu_pools)
        disk = 0.0
        if self.storages:
            disk_sum = 0.0
            last_disk = self._last_disk
            for i, storage in enumerate(self.storages):
                busy = storage.stats.busy_time
                window = self.interval * storage.concurrency
                disk_sum += min(1.0, (busy - last_disk[i]) / window)
                last_disk[i] = busy
            disk = disk_sum / len(self.storages)
        net_now = self.capture.total_bytes if self.capture else 0
        net_delta = net_now - self._last_net
        self._last_net = net_now
        self.samples.append(
            ResourceSample(self.now, cpu_total, cpu_real, disk, net_delta)
        )
        self.call(self.interval, self._tick)

    # ------------------------------------------------------------------
    def series(self) -> SampleSeries:
        """The samples as a simulator-free :class:`SampleSeries`."""
        return SampleSeries(self.samples, self.interval)
