"""The ``report`` subcommand: artifact directory -> rendered analysis.

``python -m repro.runner report <artifact-dir|campaign>`` loads a
:class:`~repro.analysis.resultset.ResultSet` (a campaign name resolves
to ``REPRO_ARTIFACT_DIR/<campaign>``, the same rule ``run`` uses) and
renders one view:

* default — the campaign summary table, byte-identical to the summary a
  resumed ``run`` prints from the same artifacts;
* ``--figure fig5a|...|table2`` — a paper figure/table, byte-identical
  to the figure suite's printed output;
* ``--metric M --by AXIS`` — metrics aggregated along one campaign axis
  (with seed-replicate 95 % CIs where there are replicates);
* ``--metric M --pivot ROW,COL`` — one metric over two axes;
* ``--compare AXIS=BASE,CAND`` — delta table between two slices;
* ``--format text|markdown|csv|json|html`` — the output encoding.  JSON
  is the machine view: the per-cell metrics/axis-tags payload (plus the
  requested table when a view was selected); tier-1 tests assert its
  schema so the artifact -> report path cannot rot.  HTML is the
  self-contained report page (:mod:`repro.dashboard.page`).

The subcommand's flags (:func:`add_arguments`), their validation
(:func:`run_report`) and its handler (:func:`command`) all live here;
``python -m repro.runner`` only mounts them.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import TYPE_CHECKING, List, Optional, Sequence, Union

from ..runner.store import campaign_dir
from .figures import FIGURES, figure_table, render_figure
from .metrics import HEADLINE_METRICS, available_metrics
from .render import (
    comparison_payload,
    render_comparison,
    render_csv,
    render_markdown,
    render_text,
    summary_text,
    table_payload,
)
from .resultset import AnalysisError, ResultSet

if TYPE_CHECKING:  # `import repro` must not pay for argparse
    import argparse

__all__ = ["add_arguments", "command", "run_report"]


def _parse_value(raw: str) -> object:
    try:
        return json.loads(raw)
    except json.JSONDecodeError:
        return raw


def _json(rs: ResultSet, metrics: Sequence[str], **view: object) -> str:
    """The machine view: every cell's axis tags and ``metrics``, then
    the selected view's own payload (``table=``, ``comparison=``...)."""
    payload = {
        "campaign": rs.name,
        "spec_hash": rs.spec_hash,
        "metrics": list(metrics),
        "cells": [
            {
                "label": cell.label,
                "status": cell.status,
                "source": cell.source,
                "axes": dict(cell.axes),
                "metrics": cell.metrics_payload(metrics),
            }
            for cell in rs.cells
        ],
        "missing": list(rs.missing),
        **view,
    }
    return json.dumps(payload, indent=2)


def run_report(
    target: Union[str, ResultSet],
    metrics: Optional[List[str]] = None,
    by: Optional[str] = None,
    pivot: Optional[str] = None,
    compare: Optional[str] = None,
    figure: Optional[str] = None,
    fmt: str = "text",
) -> str:
    """One report invocation over a directory, campaign or ResultSet."""
    selected = sum(x is not None for x in (by, pivot, compare, figure))
    if fmt == "html" and selected:
        raise AnalysisError(
            "--html renders the full report page; it cannot be "
            "combined with --by/--pivot/--compare/--figure"
        )
    if selected > 1:
        raise AnalysisError(
            "--by, --pivot, --compare and --figure are mutually exclusive"
        )
    rs = target
    if not isinstance(rs, ResultSet):
        rs = ResultSet.from_artifacts(campaign_dir(target))
    if fmt == "html":
        # dashboard.state imports analysis: load the page on use
        from ..dashboard.page import render_report_html

        return render_report_html(rs)
    chosen = tuple(metrics) if metrics else HEADLINE_METRICS
    title = None

    if figure is not None:
        table = figure_table(rs, figure)
        if fmt == "json":
            return _json(rs, chosen, figure=figure, table=table_payload(table))
        # text output keeps the historical leading blank line, so it is
        # byte-identical to what the figure suite prints
        return render_figure(table, figure, fmt=fmt)
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
            return _json(rs, chosen, comparison=comparison_payload(comparison))
        return render_comparison(comparison, markdown=(fmt == "markdown"))
    if pivot is not None:
        row_axis, sep, col_axis = pivot.partition(",")
        if not sep or not row_axis.strip() or not col_axis.strip():
            raise AnalysisError(f"expected --pivot ROW,COL, got {pivot!r}")
        if len(chosen) != 1:
            raise AnalysisError(
                "--pivot needs exactly one --metric to tabulate"
            )
        table = rs.pivot(row_axis.strip(), col_axis.strip(), chosen[0])
        title = chosen[0]
    elif by is not None:
        table = rs.table(chosen, by=by)
    elif fmt == "json":
        return _json(rs, metrics or available_metrics())
    elif fmt == "text" and not metrics:
        return summary_text(rs.cells)
    else:
        # an explicit metric selection must not be silently dropped:
        # the per-cell metrics table instead of the fixed summary
        table = rs.table(chosen)

    # the view is a table: one switch over the encodings (±CI shows
    # only where a group has seed replicates, so never on per-cell rows)
    if fmt == "json":
        return _json(rs, chosen, table=table_payload(table))
    if fmt == "csv":
        return render_csv(table)
    render = render_markdown if fmt == "markdown" else render_text
    return render(table, title=title, ci=True)


def add_arguments(parser: argparse.ArgumentParser) -> None:
    """Declare ``report``'s command line on its subparser."""
    parser.add_argument(
        "target",
        help="artifact directory, or a campaign name resolved under "
        "REPRO_ARTIFACT_DIR",
    )
    parser.add_argument(
        "--metric",
        action="append",
        default=None,
        metavar="NAME",
        help="registered metric name (repeatable; families like "
        "'abort_rate[payment-long]' work too); default: the headline set",
    )
    parser.add_argument(
        "--by",
        default=None,
        metavar="AXIS",
        help="aggregate the metrics along one campaign axis "
        "(mean, with 95%% CI over seed replicates)",
    )
    parser.add_argument(
        "--pivot",
        default=None,
        metavar="ROW,COL",
        help="pivot one --metric over two campaign axes",
    )
    parser.add_argument(
        "--compare",
        default=None,
        metavar="AXIS=BASE,CAND",
        help="delta table between two slices, paired on the other axes "
        "(e.g. protocol=dbsm,primary-copy)",
    )
    parser.add_argument(
        "--figure",
        choices=sorted(FIGURES),
        default=None,
        help="render one paper figure/table from the artifacts",
    )
    parser.add_argument(
        "--format",
        choices=("text", "markdown", "csv", "json", "html"),
        default="text",
        help="output encoding (default: text); 'html' renders the "
        "self-contained report page",
    )
    parser.add_argument(
        "--html",
        action="store_true",
        help="render one self-contained HTML report file "
        "(sugar for --format html; byte-deterministic for fixed artifacts)",
    )
    parser.add_argument(
        "-o",
        "--output",
        default=None,
        metavar="FILE",
        help="write the --html report to FILE instead of stdout",
    )
    parser.set_defaults(func=command)


def command(args: argparse.Namespace) -> int:
    """The ``report`` handler; exits 1 unless every verdict is ``ok``."""
    fmt = "html" if args.html else args.format
    if args.output and fmt != "html":
        raise AnalysisError("-o/--output only applies to --html reports")
    rs = ResultSet.from_artifacts(campaign_dir(args.target))
    text = run_report(
        rs,
        metrics=args.metric,
        by=args.by,
        pivot=args.pivot,
        compare=args.compare,
        figure=args.figure,
        fmt=fmt,
    )
    if args.output:
        Path(args.output).write_text(text)
        print(f"wrote {args.output}", file=sys.stderr)
    elif fmt == "html":
        sys.stdout.write(text)  # the page, byte for byte: no newline added
    else:
        print(text)
    return 0 if all(cell.status == "ok" for cell in rs.cells) else 1
