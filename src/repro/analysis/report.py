"""The ``report`` subcommand: artifact directory -> rendered analysis.

``python -m repro.runner report <artifact-dir|campaign>`` loads a
:class:`~repro.analysis.resultset.ResultSet` (a campaign name resolves
to ``REPRO_ARTIFACT_DIR/<campaign>``, the same rule ``run`` uses) and
renders one view:

* default — the campaign summary table, byte-identical to the summary a
  resumed ``run`` prints from the same artifacts;
* ``--figure fig5a|...|table2`` — a paper figure/table, byte-identical
  to the benchmark suite's printed output;
* ``--metric M --by AXIS`` — metrics aggregated along one campaign axis
  (with seed-replicate 95 % CIs where there are replicates);
* ``--metric M --pivot ROW,COL`` — one metric over two axes;
* ``--compare AXIS=BASE,CAND`` — delta table between two slices;
* ``--format text|markdown|csv|json`` — the output encoding.  JSON is
  the machine view: the per-cell metrics/axis-tags payload (plus the
  requested table when a view was selected); CI asserts its schema so
  the artifact -> report path cannot silently rot.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from ..core.env import env_str
from .figures import FIGURES, figure_table, render_figure
from .metrics import HEADLINE_METRICS, available_metrics
from .render import (
    comparison_payload,
    nan_to_none,
    render_comparison,
    render_csv,
    render_markdown,
    render_text,
    summary_text,
    table_payload,
)
from .resultset import AnalysisError, ResultSet

__all__ = ["load_resultset", "run_report"]


def load_resultset(target: str) -> ResultSet:
    """Resolve ``target`` — an artifact directory, or a campaign name
    under ``REPRO_ARTIFACT_DIR`` — and load it."""
    path = Path(target)
    if path.is_dir():
        return ResultSet.from_artifacts(path)
    root = env_str("REPRO_ARTIFACT_DIR")
    if root is not None and (Path(root) / target).is_dir():
        return ResultSet.from_artifacts(Path(root) / target)
    hint = (
        f"no directory {root}/{target}"
        if root is not None
        else "REPRO_ARTIFACT_DIR is not set"
    )
    raise AnalysisError(
        f"cannot locate results for {target!r}: not a directory, and {hint}"
    )


def _parse_value(raw: str) -> object:
    try:
        return json.loads(raw)
    except json.JSONDecodeError:
        return raw


def _cells_payload(rs: ResultSet, metrics: Sequence[str]) -> Dict[str, object]:
    return {
        "campaign": rs.name,
        "spec_hash": rs.spec_hash,
        "metrics": list(metrics),
        "cells": [
            {
                "label": cell.label,
                "source": cell.source,
                "axes": dict(cell.axes),
                "metrics": {
                    name: nan_to_none(cell.value(name)) for name in metrics
                },
            }
            for cell in rs.cells
        ],
        "missing": list(rs.missing),
    }


def run_report(
    target: str,
    metrics: Optional[List[str]] = None,
    by: Optional[str] = None,
    pivot: Optional[str] = None,
    compare: Optional[str] = None,
    figure: Optional[str] = None,
    fmt: str = "text",
) -> str:
    """Execute one report invocation; returns the text to print."""
    selected = sum(x is not None for x in (by, pivot, compare, figure))
    if selected > 1:
        raise AnalysisError(
            "--by, --pivot, --compare and --figure are mutually exclusive"
        )
    rs = load_resultset(target)
    chosen = tuple(metrics) if metrics else HEADLINE_METRICS

    if figure is not None:
        table = figure_table(rs, figure)
        if fmt == "json":
            payload = _cells_payload(rs, chosen)
            payload["figure"] = figure
            payload["table"] = table_payload(table)
            return json.dumps(payload, indent=2)
        # text output keeps the historical leading blank line, so it is
        # byte-identical to what the benchmark suite prints
        return render_figure(table, figure, fmt=fmt)

    if pivot is not None:
        row_axis, sep, col_axis = pivot.partition(",")
        if not sep or not row_axis.strip() or not col_axis.strip():
            raise AnalysisError(f"expected --pivot ROW,COL, got {pivot!r}")
        if len(chosen) != 1:
            raise AnalysisError(
                "--pivot needs exactly one --metric to tabulate"
            )
        table = rs.pivot(row_axis.strip(), col_axis.strip(), chosen[0])
        if fmt == "json":
            payload = _cells_payload(rs, chosen)
            payload["table"] = table_payload(table)
            return json.dumps(payload, indent=2)
        if fmt == "markdown":
            return render_markdown(table, title=chosen[0], ci=True)
        if fmt == "csv":
            return render_csv(table)
        return render_text(table, title=chosen[0], ci=True)

    if compare is not None:
        axis, sep, values = compare.partition("=")
        pair = values.split(",") if sep else []
        if not sep or len(pair) != 2:
            raise AnalysisError(
                f"expected --compare AXIS=BASELINE,CANDIDATE, got {compare!r}"
            )
        comparison = rs.compare(
            {axis.strip(): _parse_value(pair[0].strip())},
            {axis.strip(): _parse_value(pair[1].strip())},
            chosen,
        )
        if fmt == "json":
            payload = _cells_payload(rs, chosen)
            payload["comparison"] = comparison_payload(comparison)
            return json.dumps(payload, indent=2)
        return render_comparison(comparison, markdown=(fmt == "markdown"))

    if by is not None:
        table = rs.table(chosen, by=by)
        if fmt == "json":
            payload = _cells_payload(rs, chosen)
            payload["table"] = table_payload(table)
            return json.dumps(payload, indent=2)
        if fmt == "markdown":
            return render_markdown(table, ci=True)
        if fmt == "csv":
            return render_csv(table)
        return render_text(table, ci=True)

    # default view
    if fmt == "json":
        return json.dumps(
            _cells_payload(rs, metrics or available_metrics()), indent=2
        )
    if fmt in ("markdown", "csv"):
        table = rs.table(chosen)
        return (
            render_markdown(table, ci=False)
            if fmt == "markdown"
            else render_csv(table)
        )
    if metrics:
        # an explicit metric selection must not be silently dropped:
        # render the per-cell metrics table instead of the fixed summary
        return render_text(rs.table(chosen))
    return summary_text(rs.cells)
