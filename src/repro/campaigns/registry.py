"""The named-campaign registry: ``name -> CampaignSpec``.

Mirrors the replication-protocol registry (:mod:`repro.protocols.base`):
campaigns resolve by name everywhere — the runner CLI (``run smoke``),
the figure suite's grid — and registering a spec is all it takes to make a
new grid runnable, listable, describable and exportable from the
command line.

Built-in campaigns (:mod:`repro.campaigns.builtins`) register lazily on
first lookup.  Registration is per-process, like protocols: a custom
campaign only needs registering in the process that expands it —
worker processes receive already-expanded ``ScenarioConfig`` cells.
"""

from __future__ import annotations

import importlib
from typing import Dict, Tuple

from .spec import CampaignSpec

__all__ = [
    "available_campaigns",
    "get_campaign",
    "register_campaign",
]

_REGISTRY: Dict[str, CampaignSpec] = {}
_BUILTINS_LOADED = False


def _ensure_builtins() -> None:
    global _BUILTINS_LOADED
    if not _BUILTINS_LOADED:
        _BUILTINS_LOADED = True
        importlib.import_module(__package__ + ".builtins")


def register_campaign(spec: CampaignSpec, replace: bool = False) -> None:
    """Register ``spec`` under ``spec.name``.

    Raises :class:`ValueError` on a duplicate name unless ``replace``.
    """
    if not isinstance(spec, CampaignSpec):
        raise ValueError(f"expected a CampaignSpec, got {type(spec).__name__}")
    _ensure_builtins()
    if spec.name in _REGISTRY and not replace:
        raise ValueError(f"campaign {spec.name!r} is already registered")
    _REGISTRY[spec.name] = spec


def get_campaign(name: str) -> CampaignSpec:
    """The registered spec for ``name``; ValueError names the options."""
    _ensure_builtins()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown campaign {name!r} "
            f"(available: {', '.join(available_campaigns())})"
        ) from None


def available_campaigns() -> Tuple[str, ...]:
    """Registered campaign names, sorted."""
    _ensure_builtins()
    return tuple(sorted(_REGISTRY))
