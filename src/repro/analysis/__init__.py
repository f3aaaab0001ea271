"""repro.analysis — the unified results-analysis API.

Every result-consuming layer — the runner summary, the figure/table
tests, the examples, ``RegressionSuite`` and the ``report``
subcommand — derives and formats its numbers through this package;
nothing outside it re-implements a metric or a table.

Contract:

* **Metrics are named.**  ``metric_value(result, "throughput_tpm")``
  is the only way a number leaves a
  :class:`~repro.core.experiment.ScenarioResult`; names resolve through
  the metric table (:mod:`repro.analysis.metrics`), including parameterized
  families such as ``abort_rate[payment-long]``.  Empty underlying data
  yields NaN, never a fake zero; renderers show NaN as ``–`` (text),
  an empty field (CSV) or ``null`` (JSON).
* **Cells are axis-tagged.**  A :class:`ResultSet` tags each cell with
  its campaign-axis values (protocol, sites, clients, fault, system,
  seed, ...) — recovered from spec provenance for artifact stores,
  from the spec or the config for in-memory runs — and ``group_by`` /
  ``pivot`` / ``compare`` operate on those tags.  Loading an artifact
  store whose spec hashes disagree raises :class:`AnalysisError`.
* **Aggregation is deterministic.**  Group statistics (mean, min/max,
  seed-replicate 95 % CI) are independent of cell ordering; row and
  column orders are first-seen, i.e. spec-expansion order.
* **Presentation is canonical.**  Figures 5-7 and Tables 1-2 are named
  builders (:mod:`repro.analysis.figures`) whose rendered text is
  byte-identical to the historical benchmark output, and
  :func:`summary_text` is the byte-identical runner summary.
"""

from .aggregate import Delta, Series, Stat, Table, summarize, t_critical_95
from .figures import (
    ECDF_PROBS,
    FIGURES,
    TABLE1_COLUMNS,
    TX_CLASSES,
    class_abort_table,
    ecdf_quantile_table,
    figure_table,
    render_figure,
)
from .metrics import (
    HEADLINE_METRICS,
    Metric,
    MetricError,
    available_metric_families,
    available_metrics,
    get_metric,
    metric_value,
)
from .render import (
    comparison_payload,
    format_table,
    render_comparison,
    render_csv,
    render_markdown,
    render_text,
    summary_text,
    table_payload,
)
from .report import run_report
from .resultset import AnalysisError, Comparison, ResultCell, ResultSet

__all__ = [
    "AnalysisError",
    "Comparison",
    "Delta",
    "ECDF_PROBS",
    "FIGURES",
    "HEADLINE_METRICS",
    "Metric",
    "MetricError",
    "ResultCell",
    "ResultSet",
    "Series",
    "Stat",
    "TABLE1_COLUMNS",
    "TX_CLASSES",
    "Table",
    "available_metric_families",
    "available_metrics",
    "class_abort_table",
    "comparison_payload",
    "ecdf_quantile_table",
    "figure_table",
    "format_table",
    "render_comparison",
    "table_payload",
    "get_metric",
    "metric_value",
    "render_csv",
    "render_figure",
    "render_markdown",
    "render_text",
    "run_report",
    "summarize",
    "summary_text",
    "t_critical_95",
]
