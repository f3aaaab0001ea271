"""Declarative campaign specifications: composable sweep axes.

A :class:`CampaignSpec` is a first-class, serializable description of
an experiment grid — the artifact the paper's methodology crosses
workloads, fault-loads and protocols with.  A spec is a small tree:

* a **leaf** carries a ``kind`` (which config builder makes its cells),
  a ``label`` template, fixed ``template`` bindings and swept ``axes``;
  expansion crosses the axes (outermost axis first, in declaration
  order) and yields one labelled
  :class:`~repro.core.experiment.ScenarioConfig` per combination;
* a **group** carries axes and ordered ``children``; its axes are
  crossed *over* the children, so several differently-shaped sub-grids
  can share a sweep (e.g. the smoke campaign's per-protocol block of
  replicated cells plus one recovery cell).

Expansion is deterministic: the same spec produces the same labels and
configs in the same order in any process.  Specs round-trip through
``to_dict``/``from_dict`` JSON, so a campaign can be exported, diffed,
edited and re-run from a file; :meth:`CampaignSpec.spec_hash` gives the
canonical content hash recorded in campaign artifacts for provenance.

**Axes.**  An axis binds one parameter name to a tuple of values.  Any
name a cell kind understands can be swept: ``protocol``, ``sites``,
``cpus_per_site``, ``clients``, ``transactions``, ``seed``, ``fault``
(loss model / fault-load), ``rate``, ``system`` (a Figure-5-style
``[label, sites, cpus_per_site]`` triple) — plus any
:class:`ScenarioConfig` field, which passes through as an override
(e.g. ``sample_interval``).  A ``transactions`` value of ``None``
resolves to the ``REPRO_SCALE``-scaled paper count at expansion time.

**Cell kinds.**

* ``"performance"`` — :func:`repro.core.scenarios.performance_config`;
  the per-cell seed is ``seed + clients`` (decorrelating load points,
  as every legacy grid did) unless ``seed_per_clients`` is bound false;
* ``"fault"`` — :func:`repro.core.scenarios.fault_config`; ``fault``
  names the loss model / fault-load (``none`` / ``random`` / ``bursty``
  / ``crash-recover`` / ``partition-heal``);
* ``"safety"`` — one cell per entry of
  :data:`repro.core.scenarios.SAFETY_FAULT_LOADS`; ``fault`` names the
  fault-load, ``plan_seed`` seeds the plan construction.

**Labels.**  A leaf's ``label`` template formats axis/template bindings
(``"{system} c{clients}"``).  The ``{protocol_prefix}`` placeholder
implements the stable protocol-prefix rule: it is empty when the
effective protocol sweep is exactly the default protocol (so the
built-in specs keep the labels they had before protocols became an
axis), and ``"<protocol> "`` otherwise.  Any swept axis with more
than one value that the template does not mention is appended as
``" name=value"`` automatically, so widening a spec with
:meth:`with_axis` can never silently collide labels — and expansion
rejects duplicates outright.

**Composition.**  A group spec with ``children=(a, b)`` concatenates
grids; :meth:`with_axis` sweeps a parameter wherever the grid binds it
(replacing axes in place, superseding template bindings; a parameter
bound nowhere becomes a new root-level sweep) — slicing or widening a
grid without touching the built-in originals.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from ..core.experiment import ScenarioConfig
from ..core.scenarios import (
    SAFETY_FAULT_LOADS,
    fault_config,
    performance_config,
    scaled_transactions,
)

__all__ = [
    "Axis",
    "CampaignSpec",
    "CampaignSpecError",
    "DEFAULT_PROTOCOL",
    "SPEC_FORMAT",
    "parse_axis_override",
]

#: Serialization format tag; bump when the spec layout changes.
SPEC_FORMAT = "repro.campaign_spec/1"
#: A stored spec node's keys, all optional but ``name``: ``to_dict``'s,
#: and the ``spec_hash`` that ``export`` stamps (recomputed, never read).
_SPEC_KEYS = {"format", "name", "description", "axes", "template", "children",
              "kind", "label", "spec_hash"}

#: The protocol whose lone sweeps keep protocol-free labels.
DEFAULT_PROTOCOL = "dbsm"


class CampaignSpecError(ValueError):
    """A spec cannot be built, parsed, composed or expanded."""


def _freeze(value):
    """Lists → tuples, recursively (hashable, comparable storage)."""
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    return value


def _thaw(value):
    """Tuples → lists, recursively (JSON-ready)."""
    if isinstance(value, tuple):
        return [_thaw(v) for v in value]
    return value


@dataclass(frozen=True)
class Axis:
    """One swept parameter: a name bound to an ordered value tuple."""

    name: str
    values: Tuple[object, ...]

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise CampaignSpecError("axis names must be non-empty strings")
        values = tuple(_freeze(v) for v in self.values)
        if not values:
            raise CampaignSpecError(f"axis {self.name!r} has no values")
        object.__setattr__(self, "values", values)


@dataclass
class CampaignSpec:
    """A declarative, composable, serializable experiment grid."""

    name: str
    description: str = ""
    #: Leaf cell builder: "performance" | "fault" | "safety" (None: group).
    kind: Optional[str] = None
    #: Leaf label template, e.g. ``"{protocol_prefix}{system} c{clients}"``.
    label: Optional[str] = None
    #: Swept parameters, outermost first.  Accepts ``Axis`` instances or
    #: ``(name, values)`` pairs; normalized to a tuple of ``Axis``.
    axes: Tuple[Axis, ...] = ()
    #: Fixed parameter bindings (JSON-scalar values).
    template: Dict[str, object] = field(default_factory=dict)
    #: Ordered sub-grids; a node with children crosses its axes over them.
    children: Tuple["CampaignSpec", ...] = ()

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise CampaignSpecError("campaign names must be non-empty strings")
        self.axes = tuple(
            axis if isinstance(axis, Axis) else Axis(axis[0], tuple(axis[1]))
            for axis in self.axes
        )
        seen = set()
        for axis in self.axes:
            if axis.name in seen:
                raise CampaignSpecError(
                    f"campaign {self.name!r} declares axis {axis.name!r} twice"
                )
            seen.add(axis.name)
        self.template = {
            str(k): _freeze(v) for k, v in dict(self.template).items()
        }
        self.children = tuple(self.children)
        if self.children:
            if self.kind is not None or self.label is not None:
                raise CampaignSpecError(
                    f"campaign {self.name!r} has children and therefore "
                    "cannot carry a cell kind or label itself"
                )
        else:
            if self.kind not in _CELL_KINDS:
                raise CampaignSpecError(
                    f"campaign {self.name!r}: unknown cell kind {self.kind!r} "
                    f"(expected one of {sorted(_CELL_KINDS)})"
                )
            if not self.label or not isinstance(self.label, str):
                raise CampaignSpecError(
                    f"campaign {self.name!r} needs a label template"
                )

    # ------------------------------------------------------------------
    # expansion
    # ------------------------------------------------------------------
    def expand(self) -> List[Tuple[str, ScenarioConfig]]:
        """The grid: ``[(label, ScenarioConfig)]``, deterministic order."""
        return [(label, config) for label, config, _ in self.expand_cells()]

    def expand_cells(self) -> List[Tuple[str, ScenarioConfig, Dict[str, object]]]:
        """The grid with per-cell axis provenance.

        Like :meth:`expand`, but each cell additionally carries the
        display-ready parameter bindings that produced it — every swept
        axis value plus the template bindings, with ``system`` triples
        reduced to their display label and ``None`` values (the
        "resolve at expansion time" markers) omitted.  This is how the
        analysis layer (:mod:`repro.analysis`) recovers campaign-axis
        tags for cells loaded back from an artifact store."""
        cells = list(self._expand({}, {}))
        seen: set = set()
        duplicates = []
        for label, _, _ in cells:
            if label in seen:
                duplicates.append(label)
            seen.add(label)
        if duplicates:
            raise CampaignSpecError(
                f"campaign {self.name!r} expands to duplicate labels: "
                f"{sorted(set(duplicates))} — mention the distinguishing "
                "axis in the label template"
            )
        return cells

    def labels(self) -> List[str]:
        return [label for label, _ in self.expand()]

    def _expand(
        self,
        bindings: Dict[str, object],
        axis_values: Dict[str, Tuple[object, ...]],
    ) -> Iterator[Tuple[str, ScenarioConfig, Dict[str, object]]]:
        bindings = {**bindings, **self.template}

        def sweep(depth, bindings, axis_values):
            if depth == len(self.axes):
                if self.children:
                    for child in self.children:
                        yield from child._expand(bindings, axis_values)
                else:
                    yield self._build_cell(bindings, axis_values)
                return
            axis = self.axes[depth]
            narrowed = {**axis_values, axis.name: axis.values}
            for value in axis.values:
                yield from sweep(
                    depth + 1, {**bindings, axis.name: value}, narrowed
                )

        yield from sweep(0, bindings, axis_values)

    # -- cell construction ---------------------------------------------
    def _build_cell(
        self,
        bindings: Dict[str, object],
        axis_values: Dict[str, Tuple[object, ...]],
    ) -> Tuple[str, ScenarioConfig, Dict[str, object]]:
        label = self._format_label(bindings, axis_values)
        axes = {
            name: _display_value(name, value)
            for name, value in bindings.items()
            if value is not None and name != "seed_per_clients"
        }
        params = dict(bindings)
        if "system" in params:
            system = params.pop("system")
            try:
                _, params["sites"], params["cpus_per_site"] = system
            except (TypeError, ValueError):
                raise CampaignSpecError(
                    f"campaign {self.name!r}: a 'system' value must be a "
                    f"[label, sites, cpus_per_site] triple, got {system!r}"
                ) from None
        try:
            config = _CELL_KINDS[self.kind](params)
        except (KeyError, TypeError, ValueError) as exc:
            raise CampaignSpecError(
                f"campaign {self.name!r}, cell {label!r}: {exc}"
            ) from exc
        return label, config, axes

    def _format_label(
        self,
        bindings: Dict[str, object],
        axis_values: Dict[str, Tuple[object, ...]],
    ) -> str:
        display = {
            name: _display_value(name, value)
            for name, value in bindings.items()
        }
        display["protocol_prefix"] = _protocol_prefix(bindings, axis_values)
        try:
            label = self.label.format(**display)
        except (KeyError, IndexError) as exc:
            raise CampaignSpecError(
                f"campaign {self.name!r}: label template {self.label!r} "
                f"references an unbound parameter ({exc})"
            ) from None
        # Swept-but-unmentioned axes are appended so no sweep can
        # silently fold distinct cells onto one label.
        for name, values in axis_values.items():
            if len(values) > 1 and not self._label_covers(name):
                label += f" {name}={_display_value(name, bindings[name])}"
        return label

    def _label_covers(self, name: str) -> bool:
        assert self.label is not None
        if "{" + name + "}" in self.label:
            return True
        return name == "protocol" and "{protocol_prefix}" in self.label

    # ------------------------------------------------------------------
    # composition
    # ------------------------------------------------------------------
    def with_axis(
        self, name: str, values: Iterable[object]
    ) -> "CampaignSpec":
        """Sweep ``name`` over ``values`` wherever the grid binds it:
        axes of that name are replaced in place (keeping their declared
        sweep position) and fixed ``template`` bindings become the
        swept axis at the node that bound them — so an override can
        never apply to only part of a composed grid.  Parts that never
        mention the parameter stay untouched (a protocol override
        leaves the protocol-free centralized baselines alone); if
        *nothing* mentions it, the axis is added as a new root-level
        sweep crossing the whole grid."""
        values = tuple(_freeze(v) for v in values)
        if not values:
            raise CampaignSpecError(f"axis {name!r} needs at least one value")
        if not self._mentions(name):
            return replace(self, axes=self.axes + (Axis(name, values),))
        return self._apply_axis(name, values, covered=False)

    def _mentions(self, name: str) -> bool:
        return (
            any(axis.name == name for axis in self.axes)
            or name in self.template
            or any(child._mentions(name) for child in self.children)
        )

    def _apply_axis(self, name, values, covered: bool) -> "CampaignSpec":
        has_axis = any(axis.name == name for axis in self.axes)
        axes = tuple(
            Axis(name, values) if axis.name == name else axis
            for axis in self.axes
        )
        template = self.template
        if name in template:
            template = {k: v for k, v in template.items() if k != name}
            if not covered and not has_axis:
                axes = axes + (Axis(name, values),)
                has_axis = True
        covered = covered or has_axis
        return replace(
            self,
            axes=axes,
            template=template,
            children=tuple(
                child._apply_axis(name, values, covered)
                for child in self.children
            ),
        )

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def axis_summary(self) -> Dict[str, Tuple[object, ...]]:
        """Axis name → distinct values across the tree, first-seen order."""
        out: Dict[str, List[object]] = {}
        def walk(node: "CampaignSpec") -> None:
            for axis in node.axes:
                values = out.setdefault(axis.name, [])
                for value in axis.values:
                    if value not in values:
                        values.append(value)
            for child in node.children:
                walk(child)
        walk(self)
        return {name: tuple(values) for name, values in out.items()}

    # ------------------------------------------------------------------
    # serialization & provenance
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """JSON-ready encoding; exact ``from_dict`` round-trip."""
        data: Dict[str, object] = {
            "format": SPEC_FORMAT,
            "name": self.name,
            "description": self.description,
            "axes": [[axis.name, _thaw(axis.values)] for axis in self.axes],
            "template": {k: _thaw(v) for k, v in self.template.items()},
        }
        if self.children:
            data["children"] = [child.to_dict() for child in self.children]
        else:
            data["kind"] = self.kind
            data["label"] = self.label
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "CampaignSpec":
        if not isinstance(data, dict):
            raise CampaignSpecError(
                f"campaign spec must be an object, got {data!r}"
            )
        if data.get("format", SPEC_FORMAT) != SPEC_FORMAT:
            raise CampaignSpecError(
                f"unsupported campaign-spec format {data.get('format')!r} "
                f"(expected {SPEC_FORMAT!r})"
            )
        unknown = set(data) - _SPEC_KEYS
        if unknown:
            raise CampaignSpecError(f"unknown campaign-spec keys {sorted(unknown)}")
        try:
            return cls(
                name=data["name"],
                description=data.get("description", ""),
                kind=data.get("kind"),
                label=data.get("label"),
                axes=tuple(
                    Axis(name, tuple(values))
                    for name, values in data.get("axes", [])
                ),
                template=dict(data.get("template", {})),
                children=tuple(
                    cls.from_dict(child) for child in data.get("children", [])
                ),
            )
        except (KeyError, TypeError) as exc:
            raise CampaignSpecError(f"malformed campaign spec: {exc}") from exc

    def spec_hash(self) -> str:
        """Canonical content hash (stable across processes and runs)."""
        canonical = json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(canonical.encode()).hexdigest()[:16]

    def manifest(self) -> Dict[str, object]:
        """The provenance record stored next to campaign artifacts."""
        return {
            "campaign": self.name,
            "spec_hash": self.spec_hash(),
            "spec": self.to_dict(),
        }


# ----------------------------------------------------------------------
# cell builders
# ----------------------------------------------------------------------
def _pop(params: Dict[str, object], names: Iterable[str]) -> Dict[str, object]:
    return {name: params.pop(name) for name in names if name in params}


def _build_performance(params: Dict[str, object]) -> ScenarioConfig:
    known = _pop(
        params,
        ("sites", "cpus_per_site", "clients", "transactions", "protocol"),
    )
    seed = params.pop("seed", 42)
    if params.pop("seed_per_clients", True):
        seed += known.get("clients", 100)
    return performance_config(
        known.pop("sites", 1),
        known.pop("cpus_per_site", 1),
        known.pop("clients", 100),
        seed=seed,
        **known,
        **params,
    )


def _require_fault(params: Dict[str, object]) -> str:
    try:
        return params.pop("fault")
    except KeyError:
        raise ValueError(
            "this cell kind needs a 'fault' binding (axis or template) "
            "naming the loss model / fault-load"
        ) from None


def _build_fault(params: Dict[str, object]) -> ScenarioConfig:
    kind = _require_fault(params)
    known = _pop(
        params,
        (
            "clients",
            "sites",
            "transactions",
            "seed",
            "rate",
            "protocol",
            "fault_at",
            "repair_after",
        ),
    )
    return fault_config(kind, **known, **params)


def _build_safety(params: Dict[str, object]) -> ScenarioConfig:
    kind = _require_fault(params)
    sites = params.pop("sites", 3)
    if kind not in SAFETY_FAULT_LOADS:
        raise ValueError(
            f"unknown safety fault-load {kind!r} "
            f"(expected one of {sorted(SAFETY_FAULT_LOADS)})"
        )
    faults = SAFETY_FAULT_LOADS[kind](sites, params.pop("plan_seed", 5))
    transactions = params.pop("transactions", None)
    return ScenarioConfig(
        sites=sites,
        cpus_per_site=params.pop("cpus_per_site", 1),
        clients=params.pop("clients", 100),
        transactions=(
            transactions if transactions is not None else scaled_transactions()
        ),
        seed=params.pop("seed", 42),
        protocol=params.pop("protocol", DEFAULT_PROTOCOL),
        faults=faults,
        **params,
    )


_CELL_KINDS = {
    "performance": _build_performance,
    "fault": _build_fault,
    "safety": _build_safety,
}


# ----------------------------------------------------------------------
# label helpers
# ----------------------------------------------------------------------
def _display_value(name: str, value: object) -> object:
    if name == "system" and isinstance(value, (tuple, list)):
        return value[0]
    return value


def _protocol_prefix(
    bindings: Dict[str, object],
    axis_values: Dict[str, Tuple[object, ...]],
) -> str:
    """The stable protocol-prefix rule (ex ``_label_prefix``): empty when
    the effective sweep is exactly the default protocol, so labels stay
    what they were before protocols became an axis; otherwise the cell's
    protocol followed by a space."""
    protocol = bindings.get("protocol", DEFAULT_PROTOCOL)
    sweep = axis_values.get("protocol", (protocol,))
    if tuple(sweep) == (DEFAULT_PROTOCOL,):
        return ""
    return f"{protocol} "


# ----------------------------------------------------------------------
# CLI override parsing (``--set axis=v1,v2``)
# ----------------------------------------------------------------------
def parse_axis_override(text: str) -> Tuple[str, Tuple[object, ...]]:
    """Parse one ``axis=v1,v2,...`` override into ``(name, values)``.

    Values parse as JSON scalars where possible (``120`` → int,
    ``0.05`` → float, ``null`` → None, ``true``/``false`` → bool) and
    fall back to bare strings (``primary-copy``, ``none``); a part
    ``A..B`` of integers is the range A to B inclusive.  A value
    part starting with ``[`` parses the whole right-hand side as one
    JSON array — the escape hatch for structured values such as
    ``system`` triples: ``--set 'system=[["3 Sites", 3, 1]]'``.
    """
    name, sep, raw = text.partition("=")
    name, raw = name.strip(), raw.strip()
    if not sep or not name or not raw:
        raise CampaignSpecError(
            f"expected axis=value[,value...], got {text!r}"
        )
    if raw.startswith("["):
        try:
            values = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise CampaignSpecError(
                f"axis {name!r}: invalid JSON array {raw!r} ({exc})"
            ) from exc
        if not isinstance(values, list) or not values:
            raise CampaignSpecError(
                f"axis {name!r}: {raw!r} must be a non-empty JSON array"
            )
    else:
        values = [v for part in raw.split(",") for v in _parse_part(name, part)]
    return name, tuple(_freeze(v) for v in values)


def _parse_part(name: str, part: str) -> List[object]:
    start, dots, stop = part.strip().partition("..")
    if not dots or not re.fullmatch(r"-?\d+", start):
        return [_parse_scalar(name, part)]
    if not re.fullmatch(r"-?\d+", stop) or int(stop) < int(start):
        raise CampaignSpecError(
            f"axis {name!r}: {part.strip()!r} is not a range A..B of integers A <= B"
        )
    return list(range(int(start), int(stop) + 1))


def _parse_scalar(name: str, part: str) -> object:
    part = part.strip()
    if not part:
        raise CampaignSpecError(f"axis {name!r} has an empty value")
    try:
        return json.loads(part)
    except json.JSONDecodeError:
        return part
