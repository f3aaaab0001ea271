"""Always-on runtime invariant monitors (online §5.3 / §3.4 checking).

A table of cheap observe-only monitors wired into the scenario
event path, selected per cell by ``ScenarioConfig.monitors`` (monitor
names, or ``"all"``):

* ``one-copy-sr`` — streaming one-copy-serializability certifier:
  cross-site commit-sequence agreement checked at delivery time,
  crash-prefix aware like :func:`repro.core.safety.check_consistency`;
* ``view-synchrony`` — same-view members agree on membership and hold
  the same message set before a view change; no delivery from departed
  members beyond their flush targets;
* ``primary-component`` — at most one partition commits: every view
  carries a majority of its predecessor, and nothing commits while
  blocked or outside the primary lineage;
* ``gcs-ordering`` — FIFO and total-order delivery checks on the GCS
  stack, including cross-site agreement on every global number.

Violations are recorded as :class:`InvariantViolation` artifacts on
the :class:`~repro.core.experiment.ScenarioResult` (the ``violations``
metric in the analysis layer).  Disabled monitoring is free: every
production hook is ``if <probe> is not None``-guarded, so results are
bit-identical with monitors off.
"""

from typing import Dict, List, Sequence, Tuple, Type, Union

from .base import (
    ALL_MONITORS,
    InvariantViolation,
    Monitor,
    MonitorHub,
    SiteProbe,
)
from .ordering import GcsOrdering
from .primary import PrimaryComponent
from .serializability import OneCopySerializability
from .viewsync import ViewSynchrony

__all__ = [
    "ALL_MONITORS",
    "MONITORS",
    "InvariantViolation",
    "Monitor",
    "MonitorHub",
    "SiteProbe",
    "OneCopySerializability",
    "ViewSynchrony",
    "PrimaryComponent",
    "GcsOrdering",
    "applicable_monitors",
    "available_monitors",
    "build_hub",
    "resolve_monitors",
]

#: monitor name -> class, in the order the docs table lists them (the
#: order ``"all"`` arms them in).
MONITORS: Dict[str, Type[Monitor]] = {
    cls.name: cls
    for cls in (
        OneCopySerializability,
        ViewSynchrony,
        PrimaryComponent,
        GcsOrdering,
    )
}


def available_monitors() -> Tuple[str, ...]:
    """Monitor names, in table order."""
    return tuple(MONITORS)


def resolve_monitors(names: Union[str, Sequence[str]]) -> Tuple[str, ...]:
    """Expand a monitor selection to concrete table names.

    ``"all"`` expands to every monitor in the table; explicit names keep
    their order, duplicates collapse, unknown names raise ValueError.
    """
    if isinstance(names, str):
        names = (names,)
    resolved: List[str] = []
    for name in names:
        expanded = available_monitors() if name == ALL_MONITORS else (name,)
        for concrete in expanded:
            if concrete not in MONITORS:
                known = ", ".join(MONITORS)
                raise ValueError(
                    f"unknown invariant monitor {concrete!r} "
                    f"(available: {known})"
                )
            if concrete not in resolved:
                resolved.append(concrete)
    return tuple(resolved)


def applicable_monitors(config) -> tuple:
    """The resolved monitor names that actually apply to ``config``.

    This is the single arming decision shared by :func:`build_hub` and
    the ``violations`` metrics: centralized baselines arm nothing, and
    every replicated run — full or partial replication — arms every
    selected monitor.
    """
    if not config.monitors or config.sites < 2:
        return ()
    return resolve_monitors(config.monitors)


def build_hub(config, clock) -> "MonitorHub | None":
    """The run's :class:`MonitorHub`, or None when monitoring is off.

    Centralized baselines (``sites == 1``) have no replication layer to
    observe and run without a hub whatever ``config.monitors`` says —
    mirroring how they ignore ``config.protocol``.  The hub knows the
    site→group mapping, so monitors scope their cross-site comparisons
    to each replica group (full replication is the one group of every
    site).
    """
    names = applicable_monitors(config)
    if not names:
        return None
    from ..placement import fragment_of_site

    return MonitorHub(
        [MONITORS[name]() for name in names],
        config.sites,
        clock,
        site_groups={
            site: fragment_of_site(site, config.sites, config.fragments)
            for site in range(config.sites)
        },
    )
