"""Per-layer instruments of the benchmark's traced pass.

Three kinds of measurement, all taken from outside ``src/repro``:

* **phase spans** — ``{name, start, end, parent, cell}`` records kept in
  memory, opened by the benchmark around its own calls and by wrappers
  installed *at class level* for the duration of one traced repetition;
* **a self-time fold** — ``cProfile`` around ``Scenario.run``, every
  function's ``tottime`` folded by source file into a layer, built-in
  and stdlib time charged to the calling layer through the profile's
  ``callers`` table;
* **exact counters** — public attributes read after each
  ``Scenario.run``; they repeat bit-for-bit for a given input.

Later changes may not edit this directory, so nothing here may break
when ``src/repro`` moves: every wrapped symbol and counter is resolved
with ``getattr`` and, when missing, listed under ``unavailable`` and
reported as ``None``; a file the layer table does not know falls into
its package's ``.other`` bucket.
"""

from __future__ import annotations

import cProfile
import functools
import importlib
import inspect
import os
import pstats
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, List, Optional, Tuple

# ----------------------------------------------------------------------
# file -> layer roll-up (paths relative to src/repro/)
# ----------------------------------------------------------------------
LAYER_FILES: Dict[str, str] = {
    "core/kernel.py": "core.kernel",
    "core/csrt.py": "core.csrt",
    "core/cpu.py": "core.csrt",
    "core/clock.py": "core.csrt",
    "core/runtime_api.py": "core.csrt",
    "core/metrics.py": "core.metrics",
    "core/faults.py": "core.faults",
    "core/experiment.py": "core.experiment",
    "net/network.py": "net.network",
    "net/link.py": "net.link",
    "gcs/stack.py": "gcs.stack",
    "gcs/reliable.py": "gcs.reliable",
    "gcs/window.py": "gcs.reliable",
    "gcs/flowcontrol.py": "gcs.reliable",
    "gcs/stability.py": "gcs.stability",
    "gcs/sequencer.py": "gcs.sequencer",
    "gcs/views.py": "gcs.views",
    "gcs/messages.py": "gcs.messages",
    "gcs/statetransfer.py": "gcs.statetransfer",
    "dbsm/certification.py": "dbsm.certification",
    "db/lock.py": "db.lock",
    "db/storage.py": "db.storage",
    "db/server.py": "db.server",
    "db/transactions.py": "db.server",
    "db/tuples.py": "db.server",
}
#: Built-ins that are a layer of their own wherever they are called:
#: ``Scenario.run`` sweeps the cyclic collector once per cell, and that
#: sweep grows with everything the process still references.
BUILTIN_LAYERS = {"<built-in method gc.collect>": "core.gc"}
#: Packages whose remaining files fold into ``<package>.other``.
SPLIT_PACKAGES = ("core", "net", "gcs", "dbsm", "db")
#: Packages folded whole, under their own name.
WHOLE_PACKAGES = ("protocols", "placement", "tpcc", "monitors")
#: Any other file of ``src/repro`` / anything outside it with no caller
#: inside it (the profiler's own entry points, the benchmark's wrapper).
REPRO_OTHER, EXTERNAL = "repro.other", "ext"

LAYERS: Tuple[str, ...] = tuple(
    dict.fromkeys(
        [
            *LAYER_FILES.values(),
            *BUILTIN_LAYERS.values(),
            *(f"{package}.other" for package in SPLIT_PACKAGES),
            *WHOLE_PACKAGES,
            REPRO_OTHER,
            EXTERNAL,
        ]
    )
)
#: The buckets that do not name a layer; the rest must cover the run.
CATCH_ALL_LAYERS = tuple(
    layer for layer in LAYERS if layer.endswith(".other") or layer == EXTERNAL
)


def layer_of(filename: str, package_dir: str) -> Optional[str]:
    """The layer owning ``filename``, or None for code outside
    ``package_dir`` (the ``src/repro`` directory)."""
    prefix = package_dir.rstrip(os.sep) + os.sep
    if not filename.startswith(prefix):
        return None
    relative = filename[len(prefix):].replace(os.sep, "/")
    if relative in LAYER_FILES:
        return LAYER_FILES[relative]
    package = relative.split("/", 1)[0]
    if package in WHOLE_PACKAGES:
        return package
    if package in SPLIT_PACKAGES:
        return f"{package}.other"
    return REPRO_OTHER


def fold_profile(
    profile: cProfile.Profile, package_dir: str
) -> Dict[str, Dict[str, float]]:
    """Fold a profile into ``{layer: {"self_s", "calls"}}``.

    ``self_s`` sums ``tottime``; a function outside ``package_dir``
    (built-ins, stdlib) hands its time to the layers that called it, in
    proportion to the time it spent under each caller.  ``calls`` counts
    calls of the layer's own functions only, so it is an exact,
    repeatable number.  The buckets sum to the profiled total."""
    stats = pstats.Stats(profile).stats  # func -> (cc, nc, tt, ct, callers)
    own = {
        func: BUILTIN_LAYERS.get(func[2]) or layer_of(func[0], package_dir)
        for func in stats
    }
    memo: Dict[tuple, Dict[str, float]] = {}

    def shares(func: tuple, trail: frozenset) -> Dict[str, float]:
        if own.get(func):
            return {own[func]: 1.0}
        if func in memo:
            return memo[func]
        out: Dict[str, float] = {}
        callers = stats[func][4] if func in stats and func not in trail else {}
        under = sum(edge[2] for edge in callers.values())
        if under > 0:
            for caller, edge in callers.items():
                for layer, share in shares(caller, trail | {func}).items():
                    out[layer] = out.get(layer, 0.0) + share * edge[2] / under
        out[EXTERNAL] = out.get(EXTERNAL, 0.0) + 1.0 - sum(out.values())
        memo[func] = out
        return out

    fold = {layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS}
    for func, (_cc, calls, tottime, _ct, _callers) in stats.items():
        if own[func]:
            fold[own[func]]["calls"] += calls
        for layer, share in shares(func, frozenset()).items():
            fold[layer]["self_s"] += tottime * share
    return fold


# ----------------------------------------------------------------------
# spans and class-level wraps
# ----------------------------------------------------------------------
class Tracer:
    """In-memory span recorder plus the wrap/restore bookkeeping."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, object]] = []
        self._open: List[int] = []
        #: ``id(ScenarioConfig)`` -> cell label, filled by the benchmark.
        self.labels: Dict[int, str] = {}
        #: Names of wraps and counters that could not be resolved.
        self.unavailable: List[str] = []
        self._restore: List[Tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str, cell: Optional[str] = None):
        parent = self._open[-1] if self._open else None
        if cell is None and parent is not None:
            cell = self.spans[parent]["cell"]
        record = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": parent,
            "cell": cell,
        }
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def label_of(self, config: object) -> Optional[str]:
        return self.labels.get(id(config))

    def wrap(
        self,
        module: str,
        path: str,
        name: str,
        cell: Optional[Callable[[tuple, dict], Optional[str]]] = None,
        around: Optional[Callable[[Callable, tuple, dict], object]] = None,
    ) -> bool:
        """Wrap ``module:path`` (``Class.method``) at class level so every
        call opens a span ``name``; ``around(call, args, kwargs)`` may
        replace the plain call (the profiler and counters hook in there).
        An unresolvable symbol is recorded under ``unavailable``."""
        try:
            owner = importlib.import_module(module)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            raw = inspect.getattr_static(owner, attr)
        except (ImportError, AttributeError):
            self.unavailable.append(name)
            return False
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        func = raw.__func__ if kind else raw
        if not callable(func):
            self.unavailable.append(name)
            return False

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            with self.span(name, cell(args, kwargs) if cell else None):
                if around is not None:
                    return around(func, args, kwargs)
                return func(*args, **kwargs)

        self._restore.append((owner, attr, raw))
        setattr(owner, attr, kind(wrapper) if kind else wrapper)
        return True

    def restore(self) -> None:
        """Undo every wrap, newest first."""
        while self._restore:
            owner, attr, raw = self._restore.pop()
            setattr(owner, attr, raw)

    def self_times(self) -> Dict[str, Tuple[float, int]]:
        """``{span name: (self seconds, span count)}`` — a span's self
        time is its duration minus its direct children's."""
        children = [0.0] * len(self.spans)
        for span in self.spans:
            if span["parent"] is not None:
                children[span["parent"]] += span["end"] - span["start"]
        out: Dict[str, Tuple[float, int]] = {}
        for span, below in zip(self.spans, children):
            seconds, count = out.get(span["name"], (0.0, 0))
            out[span["name"]] = (
                seconds + span["end"] - span["start"] - below,
                count + 1,
            )
        return out

    def export(self) -> List[Dict[str, object]]:
        """Spans with times relative to the first span's start."""
        origin = self.spans[0]["start"] if self.spans else 0.0
        return [
            {
                **span,
                "start": span["start"] - origin,
                "end": span["end"] - origin,
            }
            for span in self.spans
        ]


#: The class-level wraps of the traced pass: (module, path, span name).
WRAPS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.campaigns.spec", "CampaignSpec.expand_cells", "campaigns.expand_s"),
    ("repro.core.experiment", "Scenario.__init__", "core.assemble_s"),
    ("repro.core.experiment", "Scenario.run", "core.run_s"),
    ("repro.core.experiment", "ScenarioResult.check_safety", "core.safety_check_s"),
    ("repro.core.experiment", "ScenarioResult.to_dict", "core.result_to_dict_s"),
    ("repro.core.experiment", "ScenarioResult.from_dict", "core.result_from_dict_s"),
    ("repro.runner.store", "ArtifactStore.save", "runner.store_save_s"),
    ("repro.runner.store", "ArtifactStore.load", "runner.store_load_s"),
    ("repro.dashboard.journal", "JournalWriter.emit", "dashboard.journal_emit_s"),
    ("repro.dashboard.state", "CampaignView.refresh", "dashboard.view_refresh_s"),
    ("repro.analysis.resultset", "ResultSet.from_artifacts", "analysis.load_s"),
)
#: Spans the benchmark opens around its own calls.
DIRECT_SPANS: Tuple[str, ...] = (
    "runner.campaign_s",
    "runner.resume_s",
    "dashboard.html_s",
    "analysis.report_s",
    "analysis.metrics_s",
)
SPAN_NAMES: Tuple[str, ...] = tuple(name for _, _, name in WRAPS) + DIRECT_SPANS


def install_wraps(
    tracer: Tracer,
    around_run: Optional[Callable[[Callable, tuple, dict], object]] = None,
) -> None:
    """Install :data:`WRAPS` on ``tracer``; ``around_run`` hooks
    ``Scenario.run`` (counters in the span pass, cProfile in the
    profile pass)."""

    def first_arg_label(args: tuple, kwargs: dict) -> Optional[str]:
        label = args[1] if len(args) > 1 else kwargs.get("label")
        return label if isinstance(label, str) else None

    cells = {
        "core.assemble_s": lambda a, k: tracer.label_of(
            a[1] if len(a) > 1 else k.get("config")
        ),
        "core.run_s": lambda a, k: tracer.label_of(
            getattr(a[0], "config", None) if a else None
        ),
        "runner.store_save_s": first_arg_label,
        "runner.store_load_s": first_arg_label,
        "dashboard.journal_emit_s": lambda a, k: k.get("label"),
    }
    for module, path, name in WRAPS:
        tracer.wrap(
            module,
            path,
            name,
            cell=cells.get(name),
            around=around_run if name == "core.run_s" else None,
        )


# ----------------------------------------------------------------------
# exact counters
# ----------------------------------------------------------------------
#: counter -> attribute paths summed over ``scenario.sites``.
SITE_COUNTERS: Dict[str, Tuple[str, ...]] = {
    "core.csrt.real_jobs": ("runtime.stats.real_jobs",),
    "core.csrt.datagrams_out": ("runtime.stats.datagrams_out",),
    "gcs.multicasts": ("gcs.stats.messages_multicast",),
    "gcs.delivered": ("gcs.stats.delivered",),
    "gcs.retransmits": ("gcs.reliable.stats.retransmits_served",),
    "gcs.nacks": ("gcs.reliable.stats.nacks_sent",),
    "gcs.blocked_events": ("gcs.reliable.stats.blocked_events",),
    "gcs.view_changes": ("gcs.views.stats.view_changes",),
    "gcs.rejoins": ("gcs.stats.rejoins",),
    "db.lock.preemptions": ("server.locks.stats.preemptions",),
    "db.storage.sectors": (
        "storage.stats.sectors_read",
        "storage.stats.sectors_written",
    ),
}
#: counter -> (root, attribute path); root is "scenario" or "result".
RUN_COUNTERS: Dict[str, Tuple[str, str]] = {
    "core.kernel.events": ("scenario", "sim.events_executed"),
    "core.sim_seconds": ("result", "sim_time"),
    "net.packets": ("result", "capture.total_packets"),
    "net.bytes": ("result", "capture.total_bytes"),
}
#: Counters computed from the result's public lists.
RESULT_COUNTERS: Dict[str, Callable[[object], int]] = {
    "core.sim_tx": lambda result: len(result.metrics.records),
    "protocols.commits": lambda result: sum(
        1 for record in result.metrics.records if record.committed
    ),
    "protocols.aborts": lambda result: sum(
        1 for record in result.metrics.records if not record.committed
    ),
    "monitors.violations": lambda result: len(result.violations),
}
COUNTER_NAMES: Tuple[str, ...] = (
    *RUN_COUNTERS,
    *RESULT_COUNTERS,
    *SITE_COUNTERS,
)


class _Absent(Exception):
    """A component on the path is None: the layer is not in this cell."""


def _dig(obj: object, path: str) -> object:
    """Follow ``a.b.c`` through attributes and dict keys.  A None on the
    way raises :class:`_Absent` (e.g. ``site.gcs`` on a centralized
    cell); a missing name raises AttributeError/KeyError."""
    for part in path.split("."):
        if obj is None:
            raise _Absent(path)
        obj = obj[part] if isinstance(obj, dict) else getattr(obj, part)
    if obj is None:
        raise _Absent(path)
    return obj


class Counters:
    """Sums the exact counters over the cells of one repetition."""

    def __init__(self, unavailable: List[str]) -> None:
        self.totals: Dict[str, Optional[float]] = {}
        self._unavailable = unavailable

    def _add(self, name: str, read: Callable[[], Iterable[float]]) -> None:
        if name in self._unavailable:
            return
        try:
            value = sum(read())
        except (AttributeError, KeyError, TypeError):
            self._unavailable.append(name)
            self.totals[name] = None
            return
        self.totals[name] = (self.totals.get(name) or 0) + value

    def observe(self, scenario: object, result: object) -> None:
        def values(objects: Iterable[object], paths: Tuple[str, ...]):
            for obj in objects:
                for path in paths:
                    try:
                        yield _dig(obj, path)
                    except _Absent:
                        continue

        for name, paths in SITE_COUNTERS.items():
            self._add(name, lambda paths=paths: values(scenario.sites, paths))
        roots = {"scenario": scenario, "result": result}
        for name, (root, path) in RUN_COUNTERS.items():
            self._add(name, lambda r=roots[root], p=path: values([r], (p,)))
        for name, count in RESULT_COUNTERS.items():
            self._add(name, lambda count=count: [count(result)])
