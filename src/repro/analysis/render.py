"""Renderers: aligned text, markdown, CSV and JSON views.

All output formatting of analysis values lives here — consumers
(runner summary, figure suite, examples, the ``report`` subcommand)
never format a metric value themselves.

``format_table`` is the paper-style fixed-width layout the benchmark
suite has always printed (title line, right-justified columns,
two-space separators), kept bit-identical so benchmark logs and the
``report`` subcommand reproduce the historical output exactly.  NaN
values — the metric table's "no data" marker — render as ``–`` in text and
markdown, an empty field in CSV, and ``null`` in JSON; never as a fake
zero.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable, Dict, Iterable, List, Optional, Sequence, Union

from .aggregate import Table
from .metrics import get_metric, metric_value

if TYPE_CHECKING:  # Comparison lives with ResultSet; avoid a cycle
    from .resultset import Comparison

__all__ = [
    "NO_DATA",
    "format_table",
    "nan_to_none",
    "render_csv",
    "render_markdown",
    "render_text",
    "summary_text",
    "table_grid",
    "table_payload",
]

#: How "no data" (NaN) renders in text and markdown output.
NO_DATA = "–"

Formatter = Union[str, Callable[[float], str]]


def _format_value(value: float, fmt: Formatter) -> str:
    if math.isnan(value):
        return NO_DATA
    if callable(fmt):
        return fmt(value)
    return fmt.format(value)


def _table_fmt(table: Table, fmt: Optional[Formatter]) -> Formatter:
    if fmt is not None:
        return fmt
    if table.metric:
        return get_metric(table.metric).fmt
    return "{:.4g}"


def format_table(title: str, headers: Sequence, rows: Iterable[Sequence]) -> str:
    """The paper-style fixed-width table as one printable string."""
    rows = [tuple(row) for row in rows]
    widths = [
        max(len(str(h)), max((len(str(r[i])) for r in rows), default=0))
        for i, h in enumerate(headers)
    ]
    lines = ["", f"=== {title} ==="] if title else []
    lines.append("  ".join(str(h).rjust(w) for h, w in zip(headers, widths)))
    for row in rows:
        lines.append("  ".join(str(c).rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def table_grid(
    table: Table,
    fmt: Optional[Formatter] = None,
    row_header: Optional[str] = None,
    col_names: Optional[Dict[object, str]] = None,
    ci: bool = False,
) -> tuple:
    """``(headers, rows)`` with every value already display-formatted —
    the grid the text/markdown renderers share, public for consumers
    that lay the table out themselves (the HTML report).

    Multi-metric tables (``col_axis == "metric"``) format each column
    with its own registered format unless ``fmt`` overrides.
    """
    renames = col_names or {}
    headers = (row_header or table.row_axis,) + tuple(
        str(renames.get(col, col)) for col in table.cols
    )

    def col_fmt(col: object) -> Formatter:
        if fmt is not None:
            return fmt
        if table.col_axis == "metric":
            return get_metric(str(col)).fmt
        return _table_fmt(table, None)

    rows = []
    for row in table.rows:
        cells = []
        for col in table.cols:
            stat = table.stat(row, col)
            text = _format_value(stat.mean, col_fmt(col))
            if ci and stat.n > 1 and not math.isnan(stat.ci95):
                text += f" ±{_format_value(stat.ci95, col_fmt(col))}"
            cells.append(text)
        rows.append((row,) + tuple(cells))
    return headers, rows


def render_text(
    table: Table,
    title: Optional[str] = None,
    fmt: Optional[Formatter] = None,
    row_header: Optional[str] = None,
    col_names: Optional[Dict[object, str]] = None,
    ci: bool = False,
) -> str:
    """A :class:`Table` in the paper-style fixed-width layout.

    ``ci=True`` appends ``±halfwidth`` wherever a group has seed
    replicates (n > 1)."""
    headers, rows = table_grid(table, fmt, row_header, col_names, ci)
    return format_table(title or "", headers, rows)


def render_markdown(
    table: Table,
    title: Optional[str] = None,
    fmt: Optional[Formatter] = None,
    row_header: Optional[str] = None,
    col_names: Optional[Dict[object, str]] = None,
    ci: bool = False,
) -> str:
    headers, rows = table_grid(table, fmt, row_header, col_names, ci)
    lines = [f"### {title}", ""] if title else []
    lines.append("| " + " | ".join(str(h) for h in headers) + " |")
    lines.append("|" + "|".join(" --- " for _ in headers) + "|")
    for row in rows:
        lines.append("| " + " | ".join(str(c) for c in row) + " |")
    return "\n".join(lines)


def render_csv(
    table: Table,
    row_header: Optional[str] = None,
    col_names: Optional[Dict[object, str]] = None,
) -> str:
    """Raw means as CSV (NaN -> empty field); no display formatting."""
    renames = col_names or {}

    def field(value: object) -> str:
        text = "" if isinstance(value, float) and math.isnan(value) else str(value)
        if any(c in text for c in ',"\n'):
            text = '"' + text.replace('"', '""') + '"'
        return text

    lines = [
        ",".join(
            field(h)
            for h in (row_header or table.row_axis,)
            + tuple(str(renames.get(c, c)) for c in table.cols)
        )
    ]
    for row in table.rows:
        lines.append(
            ",".join(
                [field(row)] + [field(table.value(row, col)) for col in table.cols]
            )
        )
    return "\n".join(lines)


def nan_to_none(value: object) -> object:
    """NaN is unrepresentable in JSON — serve ``null``, never a fake 0.
    The one rule behind every JSON payload (tables, ``report --format
    json``, the HTML report, ``repro.dashboard/1``)."""
    if isinstance(value, float) and math.isnan(value):
        return None
    return value


def table_payload(table: Table) -> Dict[str, object]:
    """A :class:`Table` as a JSON-ready payload (NaN -> null)."""
    return {
        "metric": table.metric or None,
        "row_axis": table.row_axis,
        "col_axis": table.col_axis,
        "rows": list(table.rows),
        "cols": list(table.cols),
        "values": [
            [nan_to_none(table.value(row, col)) for col in table.cols]
            for row in table.rows
        ],
        "ci95": [
            [nan_to_none(table.stat(row, col).ci95) for col in table.cols]
            for row in table.rows
        ],
        "n": [
            [table.stat(row, col).n for col in table.cols]
            for row in table.rows
        ],
    }


def render_comparison(comparison: "Comparison", markdown: bool = False) -> str:
    """Baseline / candidate / Δ% columns per metric."""
    headers = ("cell",)
    for metric in comparison.metrics:
        headers += (f"{metric} base", "cand", "Δ%")
    rows = []
    for label, deltas in comparison.rows:
        cells: List[str] = [label]
        for metric in comparison.metrics:
            fmt = get_metric(metric).fmt
            delta = deltas[metric]
            cells.append(_format_value(delta.baseline, fmt))
            cells.append(_format_value(delta.candidate, fmt))
            cells.append(_format_value(delta.percent, "{:+.1f}"))
        rows.append(tuple(cells))
    sel = (
        f"baseline {_sel_text(comparison.baseline_sel)} vs "
        f"candidate {_sel_text(comparison.candidate_sel)}"
    )
    if markdown:
        lines = [f"### {sel}", ""]
        lines.append("| " + " | ".join(headers) + " |")
        lines.append("|" + "|".join(" --- " for _ in headers) + "|")
        for row in rows:
            lines.append("| " + " | ".join(row) + " |")
        if comparison.unmatched:
            lines += ["", f"unmatched baseline cells: "
                          f"{', '.join(comparison.unmatched)}"]
        return "\n".join(lines)
    text = format_table(sel, headers, rows)
    if comparison.unmatched:
        text += (
            f"\n\nunmatched baseline cells: {', '.join(comparison.unmatched)}"
        )
    return text


def _sel_text(selection: Dict[str, object]) -> str:
    return ",".join(f"{k}={v}" for k, v in selection.items())


def comparison_payload(comparison: "Comparison") -> Dict[str, object]:
    return {
        "baseline": comparison.baseline_sel,
        "candidate": comparison.candidate_sel,
        "metrics": list(comparison.metrics),
        "rows": [
            {
                "cell": label,
                "deltas": {
                    metric: {
                        "baseline": nan_to_none(delta.baseline),
                        "candidate": nan_to_none(delta.candidate),
                        "percent": nan_to_none(delta.percent),
                    }
                    for metric, delta in deltas.items()
                },
            }
            for label, deltas in comparison.rows
        ],
        "unmatched": list(comparison.unmatched),
    }


# ----------------------------------------------------------------------
# the runner summary (bit-identical to the historical formatter)
# ----------------------------------------------------------------------
def _summary_value(result, metric: str, spec: str, suffix: str = "") -> str:
    value = metric_value(result, metric)
    if math.isnan(value):
        width = int(spec.split(".")[0])
        return f"{NO_DATA:>{width}s}{suffix}"
    return f"{value:{spec}}{suffix}"


def summary_text(cells: Iterable) -> str:
    """The campaign summary table: one row per cell plus the recovery
    sub-table.  ``cells`` are :class:`~repro.runner.CampaignCell`-shaped
    objects (``label`` / ``result`` / ``source`` / ``status``); a cell
    with a bad verdict keeps its metrics and shows the verdict word.

    Every number goes through the metric table; the layout is the
    byte-for-byte historical ``python -m repro.runner`` summary, so
    reports over an artifact directory reproduce a resumed run's output
    exactly.
    """
    lines = [
        "",
        f"{'cell':<28s} {'status':<8s} {'tpm':>8s} {'latency':>9s} "
        f"{'abort':>7s} {'cpu':>6s} {'net KB/s':>9s} {'src':>10s}",
    ]
    recovered = []
    for cell in cells:
        if cell.status == "failed":
            lines.append(
                f"{cell.label:<28s} {'FAILED':<8s}  (see traceback below)"
            )
            continue
        result = cell.result
        lines.append(
            f"{cell.label:<28s} {cell.status:<8s} "
            f"{_summary_value(result, 'throughput_tpm', '8.1f')} "
            f"{_summary_value(result, 'mean_latency_ms', '7.1f', 'ms')} "
            f"{_summary_value(result, 'abort_rate', '6.2f', '%')} "
            + _cpu_percent(result)
            + f" {_summary_value(result, 'net_kbps', '9.1f')} {cell.source:>10s}"
        )
        recovered.extend(
            (cell.label, event) for event in result.completed_rejoins()
        )
    if recovered:
        lines.append("")
        lines.append(
            f"{'recovery':<28s} {'site':>5s} {'rejoin':>8s} "
            f"{'backlog':>8s} {'snapshot':>9s} {'orphans':>8s}"
        )
        for label, event in recovered:
            lines.append(
                f"{label:<28s} {event.site:>5d} "
                f"{event.time_to_rejoin():7.2f}s "
                f"{event.backlog_replayed:8d} "
                f"{event.snapshot_bytes:8d}B "
                f"{event.orphaned_commits:8d}"
            )
    return "\n".join(lines)


def _cpu_percent(result) -> str:
    value = metric_value(result, "cpu_total")
    if math.isnan(value):
        return f"{NO_DATA:>5s}%"
    return f"{value * 100:5.1f}%"
