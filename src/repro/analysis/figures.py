"""Paper-figure series builders: Figures 5-7 and Tables 1-2 as data.

Each figure the paper's evaluation prints is one named
:class:`Figure`: a builder from a :class:`~repro.analysis.resultset.ResultSet`
to a :class:`~repro.analysis.aggregate.Table`, plus the exact title,
value format and column display names the figure suite has always
printed — so ``tests/figures/test_fig*`` and ``python -m repro.runner
report --figure`` produce byte-identical tables from the same results.

Axis conventions: performance-grid cells carry ``system`` (the Figure 5
curve label) and ``clients``; fault-grid cells carry ``fault``
(``none`` / ``random`` / ``bursty``).  Cells missing a figure's axes
are simply not part of that figure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from ..core.metrics import quantiles
from .aggregate import Stat, Table, summarize
from .metrics import cert_latencies, commit_latencies
from .render import render_csv, render_markdown, render_text
from .resultset import AnalysisError, ResultSet

__all__ = [
    "ECDF_PROBS",
    "FIGURES",
    "Figure",
    "TABLE1_COLUMNS",
    "TX_CLASSES",
    "class_abort_table",
    "ecdf_quantile_table",
    "figure_table",
    "render_figure",
]

#: The quantiles the Figure 7 ECDF tables report.
ECDF_PROBS = (0.10, 0.25, 0.50, 0.75, 0.90, 0.99)

#: Table 1's matched-load columns: (column label, system, clients).
TABLE1_COLUMNS = (
    ("500c x 1CPU", "1 CPU", 500),
    ("1000c x 3CPU", "3 CPU", 1000),
    ("1000c x 3Sites", "3 Sites", 1000),
    ("1500c x 6CPU", "6 CPU", 1500),
    ("1500c x 6Sites", "6 Sites", 1500),
)

#: Table 1/2 row order (paper order, "All" last).
TX_CLASSES = (
    "delivery",
    "neworder",
    "payment-long",
    "payment-short",
    "orderstatus-long",
    "orderstatus-short",
    "stocklevel",
    "All",
)

#: Figure 7's fault-kind display names.
_FIG7_NAMES = {"none": "no faults", "random": "random 5%", "bursty": "bursty 5%"}


@dataclass(frozen=True)
class Figure:
    """One named derived view with its canonical presentation."""

    key: str
    title: str
    build: Callable[[ResultSet], Table]
    #: Value format: a format string or ``value -> str`` callable.
    fmt: object = "{:.1f}"
    #: Column display renames (axis value -> printed header).
    col_names: Optional[Dict[object, str]] = None
    #: Printed name of the row-key column.
    row_header: Optional[str] = None


# ----------------------------------------------------------------------
# builders
# ----------------------------------------------------------------------
def ecdf_quantile_table(
    rs: ResultSet,
    col_axis: str = "fault",
    source: str = "latency",
) -> Table:
    """Latency-distribution quantiles: one row per :data:`ECDF_PROBS`
    entry (``p50`` style labels), one column per ``col_axis`` value.
    ``source`` picks the sample list: ``"latency"`` (committed
    transactions) or ``"certification"``."""
    if source == "latency":
        samples = commit_latencies
    elif source == "certification":
        samples = cert_latencies
    else:
        raise AnalysisError(f"unknown ECDF source {source!r}")
    rows = tuple(f"p{int(p * 100):02d}" for p in ECDF_PROBS)
    cols = tuple(rs.axis_values(col_axis))
    cells: Dict[Tuple[object, object], Stat] = {}
    for col in cols:
        values: list = []
        for cell in rs.select(**{col_axis: col}):
            values.extend(samples(cell.result))
        qs = quantiles(values, ECDF_PROBS)
        for row, q in zip(rows, qs):
            cells[(row, col)] = summarize([q])
    return Table(
        metric="",
        row_axis="quantile",
        col_axis=col_axis,
        rows=rows,
        cols=cols,
        cells=cells,
    )


def class_abort_table(rs: ResultSet, col_axis: str) -> Table:
    """Per-class abort rates (the Tables 1/2 shape): one row per
    transaction class plus ``All``, one column per ``col_axis`` value."""
    cols = tuple(rs.axis_values(col_axis))
    cells: Dict[Tuple[object, object], Stat] = {}
    for col in cols:
        sub = rs.select(**{col_axis: col})
        for tx_class in TX_CLASSES:
            cells[(tx_class, col)] = summarize(
                cell.value(f"abort_rate[{tx_class}]") for cell in sub
            )
    return Table(
        metric="abort_rate",
        row_axis="transaction",
        col_axis=col_axis,
        rows=TX_CLASSES,
        cols=cols,
        cells=cells,
    )


def _table1(rs: ResultSet) -> Table:
    """Table 1 from a Figure 5 grid: the matched-load column selection.

    Every paper column is always present; a column whose cells are
    missing from the grid renders as NaN dashes — visibly incomplete —
    rather than silently narrowing the table."""
    cells: Dict[Tuple[object, object], Stat] = {}
    for column, system, clients in TABLE1_COLUMNS:
        sub = rs.select(system=system, clients=clients)
        for tx_class in TX_CLASSES:
            cells[(tx_class, column)] = summarize(
                cell.value(f"abort_rate[{tx_class}]") for cell in sub
            )
    return Table(
        metric="abort_rate",
        row_axis="transaction",
        col_axis="column",
        rows=TX_CLASSES,
        cols=tuple(column for column, _, _ in TABLE1_COLUMNS),
        cells=cells,
    )


def _fig5(metric: str) -> Callable[[ResultSet], Table]:
    return lambda rs: rs.pivot("clients", "system", metric)


def _fig6c(rs: ResultSet) -> Table:
    return rs.select(system=("3 Sites", "6 Sites")).pivot(
        "clients", "system", "net_kbps"
    )


def _fig7c(rs: ResultSet) -> Table:
    return rs.table(("cpu_protocol",), by="fault")


def _table2(rs: ResultSet) -> Table:
    return class_abort_table(rs, "fault")


def _scaleout(rs: ResultSet) -> Table:
    return rs.pivot("fragments", "placement", "throughput_tpm")


FIGURES: Dict[str, Figure] = {
    figure.key: figure
    for figure in (
        Figure(
            "fig5a",
            "Figure 5(a): throughput (committed tpm)",
            _fig5("throughput_tpm"),
            "{:.1f}",
        ),
        Figure(
            "fig5b",
            "Figure 5(b): mean latency (ms)",
            _fig5("mean_latency_ms"),
            "{:.1f}",
        ),
        Figure(
            "fig5c",
            "Figure 5(c): abort rate (%)",
            _fig5("abort_rate"),
            "{:.2f}",
        ),
        Figure(
            "fig6a",
            "Figure 6(a): CPU usage (%)",
            _fig5("cpu_total"),
            lambda v: f"{v * 100:5.1f}",
        ),
        Figure(
            "fig6b",
            "Figure 6(b): disk bandwidth usage (%)",
            _fig5("disk"),
            lambda v: f"{v * 100:5.1f}",
        ),
        Figure(
            "fig6c",
            "Figure 6(c): network traffic (KB/s)",
            _fig6c,
            "{:7.1f}",
        ),
        Figure(
            "fig7a",
            "Figure 7(a): transaction latency ECDF quantiles (ms)",
            lambda rs: ecdf_quantile_table(rs, "fault", source="latency"),
            lambda v: f"{v * 1000:8.1f}",
            col_names=dict(_FIG7_NAMES),
            row_header="quantile",
        ),
        Figure(
            "fig7b",
            "Figure 7(b): certification latency ECDF quantiles (ms)",
            lambda rs: ecdf_quantile_table(rs, "fault", source="certification"),
            lambda v: f"{v * 1000:8.1f}",
            col_names=dict(_FIG7_NAMES),
            row_header="quantile",
        ),
        Figure(
            "fig7c",
            "Figure 7(c): CPU usage by protocol jobs (%)",
            _fig7c,
            lambda v: f"{v * 100:5.2f}",
            col_names={"cpu_protocol": "usage"},
            row_header="run",
        ),
        Figure(
            "scaleout",
            "Scale-out: throughput (committed tpm) vs fragment count",
            _scaleout,
            "{:.1f}",
            row_header="fragments",
        ),
        Figure(
            "table1",
            "Table 1: abort rates (%)",
            _table1,
            "{:6.2f}",
            row_header="transaction",
        ),
        Figure(
            "table2",
            "Table 2: abort rates with 3 sites and 1000 clients (%)",
            _table2,
            "{:6.2f}",
            col_names={"none": "no losses", "random": "random 5%",
                       "bursty": "bursty 5%"},
            row_header="transaction",
        ),
    )
}


def figure_table(rs: ResultSet, key: str) -> Table:
    """Build the named figure's table over ``rs``."""
    try:
        figure = FIGURES[key]
    except KeyError:
        raise AnalysisError(
            f"unknown figure {key!r} (available: {', '.join(sorted(FIGURES))})"
        ) from None
    return figure.build(rs)


def render_figure(
    table: Table, key: str, fmt: str = "text"
) -> str:
    """Render a figure table in its canonical presentation."""
    figure = FIGURES[key]
    if fmt == "csv":
        return render_csv(
            table, row_header=figure.row_header, col_names=figure.col_names
        )
    if fmt not in ("text", "markdown"):
        raise AnalysisError(f"unknown figure format {fmt!r}")
    render = render_markdown if fmt == "markdown" else render_text
    return render(
        table,
        title=figure.title,
        fmt=figure.fmt,
        row_header=figure.row_header,
        col_names=figure.col_names,
    )
