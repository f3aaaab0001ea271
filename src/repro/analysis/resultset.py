"""ResultSet: the queryable view over a campaign's results.

One object, three sources — a campaign artifact directory (loaded
through its ``campaign.json`` manifest, with each cell tagged with the
campaign-axis values recovered from spec provenance), an in-memory
:class:`~repro.runner.CampaignResult`, or explicit ``(label, result,
axes)`` triples — answering the same grouping, pivoting and comparison
questions either way.

Provenance is checked loudly: a manifest whose recorded ``spec_hash``
does not match its own spec encoding, or a cell artifact stamped with a
different spec hash than the manifest, raises :class:`AnalysisError`
instead of silently mixing campaign revisions into one report.
Artifact directories without a manifest (hand-labelled ``run_campaign``
output) still load — cells then carry only the axis tags derivable
from their stored configuration.

Files are opened and decoded by :mod:`repro.runner.store` alone;
:func:`manifest_cells` and :func:`artifact_cell` are the two steps this
loader shares with the dashboard's ``CampaignView``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Tuple, Union

from ..campaigns.spec import CampaignSpec
from ..core.experiment import ScenarioConfig, ScenarioResult
from ..core.gcpause import paused_gc
from ..core.safety import verdict
from ..runner.store import (
    MANIFEST_NAME,
    ArtifactCollisionError,
    ArtifactError,
    ArtifactStore,
)
from .aggregate import Delta, Series, Table, summarize
from .metrics import metric_value

__all__ = [
    "AnalysisError",
    "Comparison",
    "ResultCell",
    "ResultSet",
    "artifact_cell",
    "manifest_cells",
]


class AnalysisError(ValueError):
    """A result set cannot be loaded or a query cannot be answered."""


#: ScenarioConfig fields always usable as axis tags.
_CONFIG_AXES = (
    "protocol",
    "sites",
    "cpus_per_site",
    "clients",
    "transactions",
    "seed",
)


def _config_axes(config: ScenarioConfig) -> Dict[str, object]:
    return {name: getattr(config, name) for name in _CONFIG_AXES}


@dataclass
class ResultCell:
    """One labelled result with its campaign-axis tags."""

    label: str
    result: ScenarioResult
    #: Axis name -> display value (``system`` triples reduced to their
    #: label, config-derived tags always present).
    axes: Dict[str, object] = field(default_factory=dict)
    source: str = "memory"  # "memory" | "artifact"

    @cached_property
    def status(self) -> str:  # judged once
        return verdict(self.result)

    def value(self, metric: str) -> float:
        return metric_value(self.result, metric)


def artifact_cell(
    path: Path, payload: dict, spec_axes: Dict[str, Dict[str, object]]
) -> ResultCell:
    """The :class:`ResultCell` of one artifact envelope: the label the
    file records, its decoded result, and the campaign's axis bindings
    for that label (``spec_axes``, from :func:`manifest_cells`; empty
    without a manifest) under the config-derived tags.  An undecodable
    result raises :class:`~repro.runner.store.ArtifactError`."""
    label = str(payload.get("label", path.stem))
    result = ArtifactStore.decode(path, payload)
    axes = {**spec_axes.get(label, {}), **_config_axes(result.config)}
    return ResultCell(label, result, axes, source="artifact")


def manifest_cells(
    manifest: dict, path: Path
) -> Tuple[str, Optional[str], List[Tuple[str, Dict[str, object]]]]:
    """Decode a campaign manifest into ``(campaign name, spec hash,
    [(label, axes)])``, the cells in spec-expansion order.  A manifest
    without a usable spec, or whose recorded hash does not match its own
    spec, raises :class:`AnalysisError` naming ``path``."""
    try:
        spec = CampaignSpec.from_dict(manifest["spec"])
        expected = [(label, axes) for label, _, axes in spec.expand_cells()]
    except (KeyError, ValueError) as exc:
        raise AnalysisError(
            f"{path}: unusable campaign manifest ({exc})"
        ) from exc
    recorded = manifest.get("spec_hash")
    if recorded != spec.spec_hash():
        raise AnalysisError(
            f"{path}: recorded spec hash {recorded!r} "
            f"does not match the manifest's own spec "
            f"({spec.spec_hash()!r}) — the manifest was edited or "
            "corrupted; re-run the campaign to refresh provenance"
        )
    return str(manifest.get("campaign", spec.name)), recorded, expected


@dataclass
class Comparison:
    """Baseline-vs-candidate deltas, paired on the remaining axes."""

    baseline_sel: Dict[str, object]
    candidate_sel: Dict[str, object]
    metrics: Tuple[str, ...]
    #: ``(pair label, {metric: Delta})`` in baseline first-seen order.
    rows: List[Tuple[str, Dict[str, Delta]]]
    #: Baseline pair keys with no matching candidate cell.
    unmatched: List[str]


class ResultSet:
    """Labelled, axis-tagged scenario results plus the query surface."""

    def __init__(
        self,
        cells: Iterable[ResultCell],
        name: str = "",
        spec_hash: Optional[str] = None,
    ):
        self.cells: List[ResultCell] = list(cells)
        self.name = name
        self.spec_hash = spec_hash
        #: Labels the originating spec expands to but the artifact store
        #: had no completed result for (partial campaigns).
        self.missing: List[str] = []
        seen: set = set()
        for cell in self.cells:
            if cell.label in seen:
                raise AnalysisError(f"duplicate cell label: {cell.label!r}")
            seen.add(cell.label)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_results(
        cls,
        items: Iterable[Tuple[str, ScenarioResult, Dict[str, object]]],
        name: str = "",
    ) -> "ResultSet":
        """Wrap ``(label, result, extra_axes)`` triples; config-derived
        axis tags are filled in automatically."""
        cells = [
            ResultCell(
                label,
                result,
                {**_config_axes(result.config), **dict(axes)},
            )
            for label, result, axes in items
        ]
        return cls(cells, name=name)

    @classmethod
    def from_campaign(
        cls,
        campaign,
        spec: Optional[CampaignSpec] = None,
        name: str = "",
    ) -> "ResultSet":
        """Wrap in-memory campaign output.

        ``campaign`` is a :class:`~repro.runner.CampaignResult` (failed
        cells raise, exactly like ``pairs()``) or an iterable of
        ``(label, result)`` pairs.  With ``spec`` given, each cell is
        additionally tagged with the spec's axis bindings for its label.
        """
        sources: Dict[str, str] = {}
        if hasattr(campaign, "pairs"):
            sources = {c.label: c.source for c in campaign.cells}
            pairs = campaign.pairs()
        else:
            pairs = list(campaign)
        spec_axes: Dict[str, Dict[str, object]] = {}
        spec_hash = None
        if spec is not None:
            spec_axes = {
                label: axes for label, _, axes in spec.expand_cells()
            }
            spec_hash = spec.spec_hash()
            name = name or spec.name
        cells = [
            ResultCell(
                label,
                result,
                {
                    **spec_axes.get(label, {}),
                    **_config_axes(result.config),
                },
                source=sources.get(label, "memory"),
            )
            for label, result in pairs
        ]
        return cls(cells, name=name, spec_hash=spec_hash)

    @classmethod
    @paused_gc()
    def from_artifacts(cls, root: Union[str, Path]) -> "ResultSet":
        """Load a campaign artifact directory.

        With a ``campaign.json`` manifest, cells load in spec-expansion
        order and carry the spec's axis bindings, and anything wrong
        with an expected cell's file raises: an unusable artifact
        (:class:`~repro.runner.store.ArtifactError`), a file recorded
        for another label, or a cell stamped under a different spec
        hash than the manifest.  Without one, every usable cell
        artifact loads in filename order with config-derived tags only;
        stray or unusable files (notes, redirected reports, a cell
        still being written) are skipped.
        """
        root = Path(root)
        if not root.is_dir():
            raise AnalysisError(f"no artifact directory at {root}")
        store = ArtifactStore(root)
        manifest = store.load_manifest()
        cells: List[ResultCell] = []
        if manifest is None:
            for path, _mtime, _size in store.list_cells():
                try:
                    cells.append(artifact_cell(path, store.read_cell(path), {}))
                except ArtifactError:
                    continue
            if not cells:
                raise AnalysisError(
                    f"{root} holds no readable cell artifacts "
                    f"(and no {MANIFEST_NAME} manifest)"
                )
            return cls(cells, name=root.name)
        name, recorded, expected = manifest_cells(manifest, root / MANIFEST_NAME)
        spec_axes = dict(expected)
        missing: List[str] = []
        for label, _axes in expected:
            try:
                payload = store.read(label)
            except ArtifactCollisionError as exc:
                raise AnalysisError(str(exc)) from exc
            if payload is None:
                missing.append(label)
                continue
            cell_hash = payload.get("spec_hash")
            if cell_hash is not None and cell_hash != recorded:
                raise AnalysisError(
                    f"cell {label!r} in {root} was recorded under spec "
                    f"hash {cell_hash!r} but the campaign manifest says "
                    f"{recorded!r} — artifacts from different campaign "
                    "revisions are mixed; re-run the campaign"
                )
            cells.append(artifact_cell(store.path_for(label), payload, spec_axes))
        if not cells:
            raise AnalysisError(
                f"{root} holds no completed cell artifacts for campaign "
                f"{name!r} ({len(missing)} cell(s) missing)"
            )
        out = cls(cells, name=name, spec_hash=recorded)
        out.missing = missing
        return out

    # ------------------------------------------------------------------
    # basics
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.cells)

    def __iter__(self) -> Iterator[ResultCell]:
        return iter(self.cells)

    def labels(self) -> List[str]:
        return [cell.label for cell in self.cells]

    def get(self, label: str) -> ResultCell:
        for cell in self.cells:
            if cell.label == label:
                return cell
        raise AnalysisError(
            f"no cell labelled {label!r} (have: {', '.join(self.labels())})"
        )

    def value(self, label: str, metric: str) -> float:
        return self.get(label).value(metric)

    def axis_values(self, axis: str) -> List[object]:
        """Distinct values of ``axis``, first-seen order; cells without
        the axis are skipped."""
        out: List[object] = []
        for cell in self.cells:
            if axis in cell.axes and cell.axes[axis] not in out:
                out.append(cell.axes[axis])
        return out

    def select(self, **axes) -> "ResultSet":
        """Cells whose tags match every constraint (tuple/list/set
        values mean membership)."""

        def match(cell: ResultCell) -> bool:
            for name, wanted in axes.items():
                if name not in cell.axes:
                    return False
                have = cell.axes[name]
                if isinstance(wanted, (list, tuple, set, frozenset)):
                    if have not in wanted:
                        return False
                elif have != wanted:
                    return False
            return True

        out = ResultSet(
            [c for c in self.cells if match(c)],
            name=self.name,
            spec_hash=self.spec_hash,
        )
        out.missing = list(self.missing)
        return out

    # ------------------------------------------------------------------
    # aggregation
    # ------------------------------------------------------------------
    def group_by(self, *axes: str, metric: str) -> Series:
        """One point per distinct axis-value combination (first-seen
        order), aggregated over the matching cells' replicates."""
        if not axes:
            raise AnalysisError("group_by needs at least one axis")
        groups: Dict[object, List[float]] = {}
        order: List[object] = []
        for cell in self.cells:
            if any(axis not in cell.axes for axis in axes):
                continue
            key = (
                cell.axes[axes[0]]
                if len(axes) == 1
                else tuple(cell.axes[axis] for axis in axes)
            )
            if key not in groups:
                groups[key] = []
                order.append(key)
            groups[key].append(cell.value(metric))
        return Series(
            metric=metric,
            axis=",".join(axes),
            points=[(key, summarize(groups[key])) for key in order],
        )

    def pivot(self, row_axis: str, col_axis: str, metric: str) -> Table:
        """``metric`` over ``row_axis`` x ``col_axis``; both orders are
        first-seen, missing combinations stay NaN."""
        rows: List[object] = []
        cols: List[object] = []
        groups: Dict[Tuple[object, object], List[float]] = {}
        for cell in self.cells:
            if row_axis not in cell.axes or col_axis not in cell.axes:
                continue
            row, col = cell.axes[row_axis], cell.axes[col_axis]
            if row not in rows:
                rows.append(row)
            if col not in cols:
                cols.append(col)
            groups.setdefault((row, col), []).append(cell.value(metric))
        return Table(
            metric=metric,
            row_axis=row_axis,
            col_axis=col_axis,
            rows=tuple(rows),
            cols=tuple(cols),
            cells={key: summarize(values) for key, values in groups.items()},
        )

    def table(
        self,
        metrics: Iterable[str],
        by: Optional[str] = None,
    ) -> Table:
        """Metrics as columns: one row per cell label (default) or per
        value of the ``by`` axis (aggregated)."""
        metrics = tuple(metrics)
        if not metrics:
            raise AnalysisError("table needs at least one metric")
        if by is None:
            rows = tuple(self.labels())
            cells = {
                (cell.label, metric): summarize([cell.value(metric)])
                for cell in self.cells
                for metric in metrics
            }
            row_axis = "cell"
        else:
            series_by_metric = {
                metric: self.group_by(by, metric=metric) for metric in metrics
            }
            rows = tuple(self.axis_values(by))
            cells = {
                (row, metric): series_by_metric[metric].get(row)
                for row in rows
                for metric in metrics
            }
            row_axis = by
        return Table(
            metric="",
            row_axis=row_axis,
            col_axis="metric",
            rows=rows,
            cols=metrics,
            cells=cells,
        )

    # ------------------------------------------------------------------
    # comparison
    # ------------------------------------------------------------------
    def compare(
        self,
        baseline: Dict[str, object],
        candidate: Dict[str, object],
        metrics: Iterable[str],
    ) -> Comparison:
        """Delta table between two selections, paired on every axis the
        selectors don't fix (the protocol-comparison and
        regression-check primitive)."""
        metrics = tuple(metrics)
        base = self.select(**baseline)
        cand = self.select(**candidate)
        if not base.cells:
            raise AnalysisError(f"baseline selection {baseline!r} is empty")
        if not cand.cells:
            raise AnalysisError(f"candidate selection {candidate!r} is empty")
        fixed = set(baseline) | set(candidate)
        # Pair on the axes that vary *within* a selection.  Axes that
        # only differ between the selections (sites for a centralized-
        # vs-replicated comparison, say) are consequences of the
        # selectors, not pairing dimensions — keying on them would
        # match nothing.
        _missing = object()
        varying: set = set()
        for side in (base.cells, cand.cells):
            for name in {axis for cell in side for axis in cell.axes}:
                if name in fixed:
                    continue
                values = {cell.axes.get(name, _missing) for cell in side}
                if len(values) > 1:
                    varying.add(name)

        def pair_key(cell: ResultCell) -> Tuple[Tuple[str, object], ...]:
            return tuple(
                sorted(
                    (name, value)
                    for name, value in cell.axes.items()
                    if name in varying
                )
            )

        def grouped(rs: "ResultSet") -> Dict[Tuple, List[ResultCell]]:
            out: Dict[Tuple, List[ResultCell]] = {}
            for cell in rs.cells:
                out.setdefault(pair_key(cell), []).append(cell)
            return out

        base_groups = grouped(base)
        cand_groups = grouped(cand)
        rows: List[Tuple[str, Dict[str, Delta]]] = []
        unmatched: List[str] = []
        for key, base_cells in base_groups.items():
            label = (
                ", ".join(f"{name}={value}" for name, value in key)
                or "(all)"
            )
            if key not in cand_groups:
                unmatched.append(label)
                continue
            cand_cells = cand_groups[key]
            deltas = {}
            for metric in metrics:
                deltas[metric] = Delta(
                    summarize(c.value(metric) for c in base_cells).mean,
                    summarize(c.value(metric) for c in cand_cells).mean,
                )
            rows.append((label, deltas))
        return Comparison(
            baseline_sel=dict(baseline),
            candidate_sel=dict(candidate),
            metrics=metrics,
            rows=rows,
            unmatched=unmatched,
        )
