"""Aggregation arithmetic: group statistics and the Series/Table values.

Every derived view in :mod:`repro.analysis` bottoms out here: a group of
per-cell metric values is reduced to a :class:`Stat` (mean, min/max and
a seed-replicate 95 % confidence interval), and grouped/pivoted results
are carried as :class:`Series` (one axis) or :class:`Table` (two axes)
so renderers never re-derive numbers.

Conventions:

* ``NaN`` means *no data* (an empty cell or an unmatched row x column
  combination), never zero.  :func:`summarize` drops NaN inputs and
  reports how many finite replicates remain; a group with no finite
  values keeps NaN everywhere, so missing data stays visibly missing
  all the way to the rendered report.
* Aggregation is order-independent: values are sorted before summing,
  so the same group of cells produces bit-identical statistics whatever
  order the cells were loaded or executed in.
* The confidence interval is the small-sample Student-t interval over
  the replicates (typically one per seed): half-width
  ``t_{0.975, n-1} * s / sqrt(n)``; it is NaN for fewer than two
  replicates rather than a fake zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

__all__ = ["Delta", "Series", "Stat", "Table", "summarize", "t_critical_95"]

#: Two-sided 95 % Student-t critical values, indexed by degrees of
#: freedom 1..30; larger samples use the normal limit 1.960.
_T_95 = (
    12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
    2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
    2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
)


def t_critical_95(df: int) -> float:
    """Two-sided 95 % t critical value for ``df`` degrees of freedom."""
    if df < 1:
        return math.nan
    if df <= len(_T_95):
        return _T_95[df - 1]
    return 1.960


@dataclass(frozen=True)
class Stat:
    """Summary of one group of replicate metric values."""

    mean: float
    n: int  # finite replicates the statistics are over
    minimum: float
    maximum: float
    #: Half-width of the 95 % confidence interval; NaN when n < 2.
    ci95: float

    @property
    def empty(self) -> bool:
        return self.n == 0


_NAN_STAT = Stat(math.nan, 0, math.nan, math.nan, math.nan)


def summarize(values: Iterable[float]) -> Stat:
    """Reduce replicate values to a :class:`Stat` (NaNs dropped).

    Sorting before summation makes the result independent of input
    order, so group-by output is deterministic across cell orderings.
    """
    finite = sorted(v for v in values if not math.isnan(v))
    n = len(finite)
    if n == 0:
        return _NAN_STAT
    mean = sum(finite) / n
    if n < 2:
        ci95 = math.nan
    else:
        variance = sum((v - mean) ** 2 for v in finite) / (n - 1)
        ci95 = t_critical_95(n - 1) * math.sqrt(variance / n)
    return Stat(mean, n, finite[0], finite[-1], ci95)


@dataclass
class Series:
    """One metric along one axis: ordered ``(key, Stat)`` points."""

    metric: str
    axis: str
    points: List[Tuple[object, Stat]]

    def keys(self) -> List[object]:
        return [key for key, _ in self.points]

    def means(self) -> List[float]:
        return [stat.mean for _, stat in self.points]

    def get(self, key: object) -> Stat:
        for k, stat in self.points:
            if k == key:
                return stat
        return _NAN_STAT


@dataclass
class Table:
    """One metric pivoted over a row axis and a column axis.

    ``rows`` and ``cols`` keep first-seen order from the originating
    :class:`~repro.analysis.resultset.ResultSet`, so a table built from
    a campaign spec renders in spec-expansion order.  Missing row x
    column combinations answer NaN.
    """

    metric: str
    row_axis: str
    col_axis: str
    rows: Tuple[object, ...]
    cols: Tuple[object, ...]
    cells: Dict[Tuple[object, object], Stat] = field(default_factory=dict)

    def stat(self, row: object, col: object) -> Stat:
        return self.cells.get((row, col), _NAN_STAT)

    def value(self, row: object, col: object) -> float:
        return self.stat(row, col).mean

    def column(self, col: object) -> List[float]:
        """Column means in row order (the figure-series view)."""
        return [self.value(row, col) for row in self.rows]

    def columns(self) -> Dict[object, List[float]]:
        return {col: self.column(col) for col in self.cols}


@dataclass(frozen=True)
class Delta:
    """One metric's baseline-vs-candidate pair in a comparison."""

    baseline: float
    candidate: float

    @property
    def absolute(self) -> float:
        return self.candidate - self.baseline

    @property
    def percent(self) -> float:
        """Relative change in percent; NaN when undefined."""
        if (
            math.isnan(self.baseline)
            or math.isnan(self.candidate)
            or self.baseline == 0.0
        ):
            return math.nan
        return 100.0 * (self.candidate - self.baseline) / abs(self.baseline)
