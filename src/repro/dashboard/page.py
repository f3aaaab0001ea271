"""The dashboard page: one HTML file, two modes.

``render_live_html()`` is what the dashboard server serves at ``/`` —
the page boots with no data and polls the JSON API (``/api/events``
drives the refresh; a change in the journal sequence triggers a full
re-fetch).  ``render_report_html(rs)`` is the ``report --html``
exporter: the same template with the campaign's data embedded as one
JSON literal, producing a self-contained file that opens anywhere with
no server.

Determinism contract: ``render_report_html`` depends only on the
result set — no wall clocks, no randomness, ``sort_keys`` JSON — so
exporting the same artifacts twice yields byte-identical files (CI
diffs the two).

Styling follows the repo-wide chart conventions: colors are CSS custom
properties declared once for light mode and overridden for dark
(both the OS preference and an explicit ``data-theme`` attribute);
status colors never carry meaning alone (every status ships an icon
and a label); the single-series sparklines need no legend — the card
title names the series.
"""

from __future__ import annotations

import json
from typing import Dict

from ..analysis.figures import FIGURES
from ..analysis.render import summary_text, table_grid
from ..analysis.resultset import AnalysisError, ResultSet
from .state import (
    DASHBOARD_SCHEMA,
    absorb_result,
    cell_record,
    cells_shape,
    status_summary,
    violations_feed,
)

__all__ = ["render_live_html", "render_report_html"]


def _json_for_html(payload: object) -> str:
    """JSON safe to inline in a ``<script>`` block (no ``</script>``
    breakout), with deterministic key order."""
    return json.dumps(payload, sort_keys=True).replace("</", "<\\/")


def _report_data(rs: ResultSet) -> Dict[str, object]:
    """The embedded data object for report mode: the shapes the live
    page fetches from the JSON API (:mod:`~repro.dashboard.state` builds
    both), plus the figure tables."""
    records = []
    for cell in rs.cells:
        record = cell_record(cell.label)
        record["source"] = cell.source
        absorb_result(record, cell)
        records.append(record)
    pending = [cell_record(label) for label in rs.missing]
    figures = []
    for key in sorted(FIGURES):
        fig = FIGURES[key]
        try:
            table = fig.build(rs)
        except (AnalysisError, KeyError, ValueError):
            continue  # this result set lacks the figure's axes
        if not table.rows:
            continue
        headers, rows = table_grid(
            table, fig.fmt, fig.row_header, fig.col_names
        )
        figures.append(
            {
                "key": key,
                "title": fig.title,
                "headers": [str(h) for h in headers],
                "rows": [[str(c) for c in row] for row in rows],
            }
        )
    return {
        "schema": DASHBOARD_SCHEMA,
        "mode": "report",
        "campaign": {
            "campaign": rs.name,
            "spec_hash": rs.spec_hash,
            "total": len(records) + len(pending),
            "finished": True,
            "eta": None,
            "elapsed": None,
            "workers": None,
            **status_summary(records + pending),
        },
        "cells": cells_shape(records),
        "violations": violations_feed(records),
        "figures": figures,
        "summary": summary_text(rs.cells),
        "missing": list(rs.missing),
    }


def render_report_html(rs: ResultSet) -> str:
    """One self-contained, byte-deterministic HTML report."""
    title = f"repro report — {rs.name}" if rs.name else "repro report"
    return (
        _TEMPLATE.replace("__TITLE__", title)
        .replace("__MODE__", "report")
        .replace("__DATA__", _json_for_html(_report_data(rs)))
    )


def render_live_html() -> str:
    """The live dashboard page (data arrives via the JSON API)."""
    return (
        _TEMPLATE.replace("__TITLE__", "repro campaign dashboard")
        .replace("__MODE__", "live")
        .replace("__DATA__", "null")
    )


_TEMPLATE = """<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<meta name="viewport" content="width=device-width, initial-scale=1">
<title>__TITLE__</title>
<style>
:root {
  color-scheme: light;
  --page:           #f9f9f7;
  --surface-1:      #fcfcfb;
  --text-primary:   #0b0b0b;
  --text-secondary: #52514e;
  --text-muted:     #898781;
  --gridline:       #e1e0d9;
  --baseline:       #c3c2b7;
  --border:         rgba(11,11,11,0.10);
  --series-1:       #2a78d6;
  --status-good:    #0ca30c;
  --status-warning: #fab219;
  --status-serious: #ec835a;
  --status-critical:#d03b3b;
}
@media (prefers-color-scheme: dark) {
  :root:where(:not([data-theme="light"])) {
    color-scheme: dark;
    --page:           #0d0d0d;
    --surface-1:      #1a1a19;
    --text-primary:   #ffffff;
    --text-secondary: #c3c2b7;
    --text-muted:     #898781;
    --gridline:       #2c2c2a;
    --baseline:       #383835;
    --border:         rgba(255,255,255,0.10);
    --series-1:       #3987e5;
  }
}
:root[data-theme="dark"] {
  color-scheme: dark;
  --page:           #0d0d0d;
  --surface-1:      #1a1a19;
  --text-primary:   #ffffff;
  --text-secondary: #c3c2b7;
  --text-muted:     #898781;
  --gridline:       #2c2c2a;
  --baseline:       #383835;
  --border:         rgba(255,255,255,0.10);
  --series-1:       #3987e5;
}
* { box-sizing: border-box; }
body {
  margin: 0; padding: 24px;
  background: var(--page); color: var(--text-primary);
  font: 14px/1.45 system-ui, -apple-system, "Segoe UI", sans-serif;
}
main { max-width: 1080px; margin: 0 auto; }
h1 { font-size: 20px; margin: 0 0 4px; }
h2 { font-size: 15px; margin: 28px 0 10px; }
.sub { color: var(--text-secondary); margin: 0 0 18px; font-size: 13px; }
.card {
  background: var(--surface-1); border: 1px solid var(--border);
  border-radius: 8px; padding: 14px 16px;
}
.tiles { display: flex; flex-wrap: wrap; gap: 12px; margin-bottom: 14px; }
.tile { min-width: 128px; flex: 1 1 128px; }
.tile .k { color: var(--text-secondary); font-size: 12px; }
.tile .v { font-size: 24px; font-weight: 600; margin-top: 2px; }
.tile .v small { font-size: 13px; font-weight: 400; color: var(--text-muted); }
.bar {
  height: 8px; border-radius: 4px; background: var(--gridline);
  overflow: hidden; margin: 6px 0 4px;
}
.bar > div { height: 100%; border-radius: 4px; background: var(--series-1); width: 0; }
.grid { display: flex; flex-wrap: wrap; gap: 4px; }
.c {
  width: 16px; height: 16px; border-radius: 4px;
  background: var(--gridline); border: 1px solid transparent;
}
.c.running { background: var(--series-1); }
.c.ok { background: var(--status-good); }
.c.cached { background: transparent; border-color: var(--status-good); }
.c.failed, .c.diverged { background: var(--status-critical); }
.c.violated { background: var(--status-serious); }
.c.no-rejoin { background: var(--status-warning); }
.legend {
  display: flex; flex-wrap: wrap; gap: 14px; margin-top: 10px;
  color: var(--text-secondary); font-size: 12px;
}
.legend span { display: inline-flex; align-items: center; gap: 5px; }
.legend .c { width: 11px; height: 11px; }
.cards { display: grid; grid-template-columns: repeat(auto-fill, minmax(190px, 1fr)); gap: 12px; }
.spark .k { color: var(--text-secondary); font-size: 12px; }
.spark .v { font-size: 18px; font-weight: 600; margin: 2px 0 6px; }
.spark svg { display: block; width: 100%; height: 44px; }
table { border-collapse: collapse; width: 100%; font-size: 13px; }
th, td {
  text-align: left; padding: 5px 10px 5px 0;
  border-bottom: 1px solid var(--gridline);
  font-variant-numeric: tabular-nums;
}
th { color: var(--text-secondary); font-weight: 500; }
td.num, th.num { text-align: right; }
.empty { color: var(--text-secondary); }
.statusword { font-weight: 600; }
.statusword.failed { color: var(--status-critical); }
.statusword.viol { color: var(--status-serious); }
.statusword.good { color: var(--status-good); }
details summary { cursor: pointer; color: var(--text-secondary); margin: 10px 0; }
pre {
  background: var(--surface-1); border: 1px solid var(--border);
  border-radius: 8px; padding: 12px; overflow-x: auto; font-size: 12px;
}
#figures h2 { margin-top: 24px; }
.err { color: var(--status-critical); }
</style>
</head>
<body>
<main>
  <h1 id="title">__TITLE__</h1>
  <p class="sub" id="subtitle"></p>
  <section class="tiles" id="tiles"></section>
  <section class="card">
    <div class="bar"><div id="bar"></div></div>
    <div class="grid" id="cellgrid"></div>
    <div class="legend" id="legend"></div>
    <details>
      <summary>Cells as a table</summary>
      <div id="celltable"></div>
    </details>
  </section>
  <h2>Headline metrics</h2>
  <section class="cards" id="metrics"></section>
  <h2>Invariant violations</h2>
  <section class="card" id="violations"></section>
  <div id="figures"></div>
  <div id="summary"></div>
</main>
<script>
"use strict";
const MODE = "__MODE__";
const EMBEDDED = __DATA__;
const STATUSES = [
  ["pending", "\\u25cb", "pending"],
  ["running", "\\u25b6", "running"],
  ["ok", "\\u2713", "ok"],
  ["cached", "\\u21ba", "cached (resumed)"],
  ["diverged", "\\u2260", "diverged (commit logs differ)"],
  ["violated", "\\u26a0", "violated (monitor)"],
  ["no-rejoin", "\\u21af", "no-rejoin (site never back)"],
  ["failed", "\\u2717", "failed"],
];

function fmt(v) {
  if (v === null || v === undefined) return "\\u2013";
  if (typeof v !== "number") return String(v);
  if (Number.isInteger(v)) return String(v);
  const a = Math.abs(v);
  if (a >= 100) return v.toFixed(0);
  if (a >= 1) return v.toFixed(1);
  return v.toPrecision(2);
}
function fmtDur(s) {
  if (s === null || s === undefined) return "\\u2013";
  if (s >= 3600) return (s / 3600).toFixed(1) + "h";
  if (s >= 60) return (s / 60).toFixed(1) + "m";
  return s.toFixed(s >= 10 ? 0 : 1) + "s";
}
function el(tag, cls, text) {
  const node = document.createElement(tag);
  if (cls) node.className = cls;
  if (text !== undefined) node.textContent = text;
  return node;
}

function renderTiles(c) {
  const tiles = [
    ["progress", fmt(c.done) + " / " + fmt(c.total)],
    ["ETA", c.finished ? "done" : fmtDur(c.eta)],
    ["elapsed", fmtDur(c.elapsed)],
    ["workers", fmt(c.workers)],
    ["failed", fmt(c.counts.failed)],
    ["violations", fmt(c.violations)],
  ];
  const host = document.getElementById("tiles");
  host.textContent = "";
  for (const [k, v] of tiles) {
    const tile = el("div", "card tile");
    tile.appendChild(el("div", "k", k));
    const val = el("div", "v", v);
    if (k === "failed" && c.counts.failed > 0) val.classList.add("statusword", "failed");
    if (k === "violations" && c.violations > 0) val.classList.add("statusword", "viol");
    tile.appendChild(val);
    host.appendChild(tile);
  }
  const pct = c.total ? (100 * c.done / c.total) : 0;
  document.getElementById("bar").style.width = pct.toFixed(1) + "%";
  const parts = [];
  if (c.campaign) parts.push("campaign " + c.campaign);
  if (c.spec_hash) parts.push("spec " + String(c.spec_hash).slice(0, 12));
  parts.push(MODE === "live" ? "live view" : "static report");
  document.getElementById("subtitle").textContent = parts.join(" \\u00b7 ");
  if (c.campaign) {
    document.getElementById("title").textContent =
      (MODE === "live" ? "repro campaign \\u2014 " : "repro report \\u2014 ") + c.campaign;
  }
}

function renderCells(cells) {
  const grid = document.getElementById("cellgrid");
  grid.textContent = "";
  for (const cell of cells.cells) {
    const d = el("div", "c " + cell.status);
    const bits = [cell.label, cell.status];
    if (cell.duration != null) bits.push(fmtDur(cell.duration));
    if (cell.worker != null) bits.push("pid " + cell.worker);
    if (cell.violations) bits.push(cell.violations + " violation(s)");
    d.title = bits.join(" \\u00b7 ");
    grid.appendChild(d);
  }
  const legend = document.getElementById("legend");
  legend.textContent = "";
  for (const [key, icon, label] of STATUSES) {
    const item = el("span");
    item.appendChild(el("i", "c " + key));
    item.appendChild(el("span", "", icon + " " + label));
    legend.appendChild(item);
  }
  const host = document.getElementById("celltable");
  host.textContent = "";
  const table = el("table");
  const head = el("tr");
  const headers = ["cell", "status", "source", "duration", "worker", "violations"]
    .concat(cells.metrics);
  headers.forEach((h, i) => head.appendChild(el("th", i >= 3 ? "num" : "", h)));
  table.appendChild(head);
  for (const cell of cells.cells) {
    const tr = el("tr");
    tr.appendChild(el("td", "", cell.label));
    tr.appendChild(el("td", "", cell.status));
    tr.appendChild(el("td", "", cell.source || "\\u2013"));
    tr.appendChild(el("td", "num", cell.duration == null ? "\\u2013" : fmtDur(cell.duration)));
    tr.appendChild(el("td", "num", fmt(cell.worker)));
    tr.appendChild(el("td", "num", fmt(cell.violations)));
    for (const name of cells.metrics) {
      tr.appendChild(el("td", "num", fmt(cell.metrics ? cell.metrics[name] : null)));
    }
    table.appendChild(tr);
  }
  host.appendChild(table);
}

function sparkline(points) {
  const values = points.map(p => p.value).filter(v => v != null);
  const svgNS = "http://www.w3.org/2000/svg";
  const svg = document.createElementNS(svgNS, "svg");
  svg.setAttribute("viewBox", "0 0 200 44");
  svg.setAttribute("preserveAspectRatio", "none");
  if (values.length < 2) return svg;
  const min = Math.min(...values), max = Math.max(...values);
  const span = (max - min) || 1;
  const line = document.createElementNS(svgNS, "polyline");
  const coords = [];
  let i = 0;
  const n = points.filter(p => p.value != null).length;
  for (const p of points) {
    if (p.value == null) continue;
    const x = n === 1 ? 100 : (i / (n - 1)) * 196 + 2;
    const y = 40 - ((p.value - min) / span) * 36;
    coords.push(x.toFixed(1) + "," + y.toFixed(1));
    i += 1;
  }
  line.setAttribute("points", coords.join(" "));
  line.setAttribute("fill", "none");
  line.setAttribute("stroke", "var(--series-1)");
  line.setAttribute("stroke-width", "2");
  line.setAttribute("stroke-linejoin", "round");
  line.setAttribute("stroke-linecap", "round");
  svg.appendChild(line);
  return svg;
}

function renderMetrics(metricSeries) {
  const host = document.getElementById("metrics");
  host.textContent = "";
  for (const name of Object.keys(metricSeries)) {
    const points = metricSeries[name];
    const values = points.map(p => p.value).filter(v => v != null);
    const card = el("div", "card spark");
    card.appendChild(el("div", "k", name + " \\u00b7 across cells"));
    card.appendChild(el("div", "v",
      values.length ? fmt(values[values.length - 1]) : "\\u2013"));
    card.appendChild(sparkline(points));
    host.appendChild(card);
  }
}

function renderViolations(v) {
  const host = document.getElementById("violations");
  host.textContent = "";
  if (!v.violations.length) {
    const ok = el("p", "empty");
    ok.appendChild(el("span", "statusword good", "\\u2713 "));
    ok.appendChild(document.createTextNode("No invariant violations recorded."));
    host.appendChild(ok);
    return;
  }
  const table = el("table");
  const head = el("tr");
  for (const h of ["cell", "monitor", "site", "sim time", "seq", "detail"]) {
    head.appendChild(el("th", "", h));
  }
  table.appendChild(head);
  for (const row of v.violations) {
    const tr = el("tr");
    tr.appendChild(el("td", "", row.label ?? "\\u2013"));
    tr.appendChild(el("td", "", row.monitor));
    tr.appendChild(el("td", "", row.site));
    tr.appendChild(el("td", "num", fmt(row.sim_time)));
    tr.appendChild(el("td", "num", row.seq === -1 ? "\\u2013" : fmt(row.seq)));
    tr.appendChild(el("td", "", row.detail));
    table.appendChild(tr);
  }
  host.appendChild(table);
}

function renderFigures(figures) {
  const host = document.getElementById("figures");
  host.textContent = "";
  for (const fig of figures || []) {
    host.appendChild(el("h2", "", fig.title));
    const card = el("section", "card");
    const table = el("table");
    const head = el("tr");
    fig.headers.forEach((h, i) => head.appendChild(el("th", i ? "num" : "", h)));
    table.appendChild(head);
    for (const row of fig.rows) {
      const tr = el("tr");
      row.forEach((c, i) => tr.appendChild(el("td", i ? "num" : "", c)));
      table.appendChild(tr);
    }
    card.appendChild(table);
    host.appendChild(card);
  }
}

function renderSummary(text) {
  const host = document.getElementById("summary");
  host.textContent = "";
  if (!text) return;
  host.appendChild(el("h2", "", "Campaign summary"));
  host.appendChild(el("pre", "", text.replace(/^\\n/, "")));
}

function renderAll(data) {
  renderTiles(data.campaign);
  renderCells(data.cells);
  renderMetrics(data.metricSeries || {});
  renderViolations(data.violations);
  renderFigures(data.figures);
  renderSummary(data.summary);
}

if (MODE === "report") {
  const series = {};
  for (const name of EMBEDDED.cells.metrics) {
    series[name] = EMBEDDED.cells.cells.map(
      c => ({label: c.label, value: c.metrics ? c.metrics[name] : null}));
  }
  EMBEDDED.metricSeries = series;
  renderAll(EMBEDDED);
} else {
  let lastSeq = -1;
  let failures = 0;
  async function getJSON(path) {
    const res = await fetch(path);
    if (!res.ok) throw new Error(path + " -> " + res.status);
    return res.json();
  }
  async function refresh() {
    try {
      const events = await getJSON("/api/events?since=0");
      if (events.last_seq === lastSeq && lastSeq !== -1) return;
      lastSeq = events.last_seq;
      const campaign = await getJSON("/api/campaign");
      const cells = await getJSON("/api/cells");
      const violations = await getJSON("/api/violations");
      const series = {};
      for (const name of cells.metrics) {
        const m = await getJSON("/api/metrics?name=" + encodeURIComponent(name));
        series[name] = m.points;
      }
      failures = 0;
      renderAll({campaign, cells, violations, metricSeries: series,
                 figures: [], summary: null});
    } catch (err) {
      failures += 1;
      if (failures >= 3) {
        document.getElementById("subtitle").textContent =
          "connection lost \\u2014 " + String(err);
        document.getElementById("subtitle").classList.add("err");
      }
    }
  }
  refresh();
  setInterval(refresh, 2000);
}
</script>
</body>
</html>
"""
