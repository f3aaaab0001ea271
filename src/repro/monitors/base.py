"""Online invariant monitoring: the hub, the probes, the artifact.

The paper's §5.3 safety argument is checked *after* a run today
(:func:`repro.core.safety.check_consistency`); this package moves the
same guarantees — and the GCS stack's own virtual-synchrony contract —
into the event path, so a broken protocol is flagged at the delivery
that breaks it instead of hours later in a log comparison (the
runtime-checking approach of Shivam et al.'s Derecho work).

Monitors are **observers**: they never schedule events, never draw
random numbers, never charge simulated CPU, and never mutate protocol
state.  Every production hook is guarded by ``if <probe> is not None``,
so a run with monitoring disabled executes the exact pre-monitor code
path — bit-identical results, no per-event overhead.

Wiring: scenario assembly builds one :class:`MonitorHub` per run (only
when ``ScenarioConfig.monitors`` selects at least one monitor and the
configuration is replicated) and hands each site a :class:`SiteProbe`
— a site-tagged fan-out point installed on the replica, the GCS stack,
the total-order session and the view manager.  Probes forward each
event to the monitors that actually override the corresponding hook
(computed once per run), the hub merges the recorded
:class:`InvariantViolation` events at the end, and the scenario result
carries them as first-class serialized artifacts for the analysis
layer (the ``violations`` metric).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

__all__ = [
    "ALL_MONITORS",
    "InvariantViolation",
    "Monitor",
    "MonitorHub",
    "SiteProbe",
]

#: Sentinel accepted in ``ScenarioConfig.monitors``: every monitor in
#: :data:`repro.monitors.MONITORS`, in table order.
ALL_MONITORS = "all"


@dataclass
class InvariantViolation:
    """One observed invariant breach — a first-class result artifact."""

    #: Table name of the monitor that fired.
    monitor: str
    #: Site at which the breach was observed (e.g. ``"site2"``).
    site: str
    #: Simulated seconds at which the breach was *detected* (for checks
    #: confirmed at end of run this is the earliest detection instant).
    sim_time: float
    #: Human-readable description of the breach.
    detail: str
    #: Sequence number involved, ``-1`` when not applicable.
    seq: int = -1

    def to_dict(self) -> Dict[str, object]:
        return {
            "monitor": self.monitor,
            "site": self.site,
            "sim_time": self.sim_time,
            "detail": self.detail,
            "seq": self.seq,
        }

    def tagged(self, label: str) -> Dict[str, object]:
        """The ``to_dict`` payload plus the campaign cell ``label`` that
        produced it — the shape the event journal and the dashboard's
        violations feed carry, where violations from many cells mix."""
        payload = self.to_dict()
        payload["label"] = label
        return payload

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "InvariantViolation":
        return cls(
            monitor=str(data["monitor"]),
            site=str(data["site"]),
            sim_time=float(data["sim_time"]),
            detail=str(data["detail"]),
            seq=int(data.get("seq", -1)),
        )


class Monitor:
    """Base class: the full observation surface, every hook a no-op.

    Subclasses override only the hooks they need; the hub skips a
    monitor entirely on hot paths whose hooks it left untouched.
    Monitors are usable standalone (no hub) — property tests drive the
    hooks directly; ``sim_time`` then falls back to an event counter.
    Every cross-site comparison is scoped to one replica group through
    :meth:`group_of`.
    """

    #: Table name (subclasses set it; it keys ``MONITORS``, the docs
    #: table and the ``violations[monitor]`` metric family).
    name: str = "?"

    def __init__(self) -> None:
        self.violations: List[InvariantViolation] = []
        self._hub: Optional["MonitorHub"] = None
        self._names: Dict[int, str] = {}
        self._ticks = 0

    # -- hub plumbing ---------------------------------------------------
    def attach(self, hub: "MonitorHub") -> None:
        self._hub = hub

    def note_site(self, site: int, name: str) -> None:
        """Record ``site``'s display name (called once per site)."""
        self._names[site] = name

    def site_name(self, site: int) -> str:
        return self._names.get(site, f"site{site}")

    def group_of(self, site: int) -> int:
        """The replica group (fragment) ``site`` belongs to.

        Full replication — and standalone (hub-less) use — is one group:
        everything maps to group 0, which keeps every pre-fragment
        comparison exactly as it was.
        """
        return 0 if self._hub is None else self._hub.group_of(site)

    def _now(self) -> float:
        if self._hub is not None:
            return self._hub.now()
        self._ticks += 1
        return float(self._ticks)

    def emit(
        self,
        site: int,
        detail: str,
        seq: int = -1,
        sim_time: Optional[float] = None,
    ) -> None:
        self.violations.append(
            InvariantViolation(
                monitor=self.name,
                site=self.site_name(site),
                sim_time=self._now() if sim_time is None else sim_time,
                detail=detail,
                seq=seq,
            )
        )

    # -- observation hooks (all optional) -------------------------------
    def on_commit(self, site: int, commit_seq: int, tx_id: int) -> None:
        """``site`` appended ``(commit_seq, tx_id)`` to its commit log."""

    def on_crash(self, site: int) -> None:
        """``site`` was crashed by fault injection."""

    def on_rejoin(self, site: int) -> None:
        """``site`` started a rejoin (non-operational until snapshot)."""

    def on_snapshot_install(
        self, site: int, entries: Sequence[Tuple[int, int]]
    ) -> None:
        """``site`` adopted a donor snapshot; its commit log now equals
        ``entries`` and it is operational again."""

    def on_deliver(self, site: int, global_seq: int, origin: int) -> None:
        """The GCS stack delivered an application message at ``site``."""

    def on_ordered(
        self, site: int, global_seq: int, origin: int, origin_seq: int
    ) -> None:
        """The total-order session delivered ``(origin, origin_seq)``
        as global number ``global_seq`` at ``site``."""

    def on_view_installed(
        self,
        site: int,
        view_id: int,
        members: Tuple[int, ...],
        joined: Tuple[int, ...],
        targets: Dict[int, int],
        contiguous: Dict[int, int],
    ) -> None:
        """``site`` installed view ``view_id`` with ``members`` (of
        which ``joined`` were (re)admitted); ``targets`` are the
        DECIDE's flush targets and ``contiguous`` the site's
        contiguously-received vector at install time."""

    def finalize(self) -> None:
        """End of run: confirm or discard deferred observations."""


#: Hook names the hub builds per-hook dispatch lists for.
_HOOKS = (
    "on_commit",
    "on_crash",
    "on_rejoin",
    "on_snapshot_install",
    "on_deliver",
    "on_ordered",
    "on_view_installed",
)


class SiteProbe:
    """Site-tagged fan-out point installed on one site's components.

    The probe is the only monitor object production code sees; each
    method forwards to the monitors that override the matching hook.
    Observe-only by construction: probes expose no mutators.
    """

    __slots__ = ("hub", "site")

    def __init__(self, hub: "MonitorHub", site: int):
        self.hub = hub
        self.site = site

    def commit(self, commit_seq: int, tx_id: int) -> None:
        for m in self.hub.subscribers["on_commit"]:
            m.on_commit(self.site, commit_seq, tx_id)

    def crash(self) -> None:
        for m in self.hub.subscribers["on_crash"]:
            m.on_crash(self.site)

    def rejoin(self) -> None:
        for m in self.hub.subscribers["on_rejoin"]:
            m.on_rejoin(self.site)

    def snapshot(self, entries: Sequence[Tuple[int, int]]) -> None:
        for m in self.hub.subscribers["on_snapshot_install"]:
            m.on_snapshot_install(self.site, entries)

    def deliver(self, global_seq: int, origin: int) -> None:
        for m in self.hub.subscribers["on_deliver"]:
            m.on_deliver(self.site, global_seq, origin)

    def ordered(self, global_seq: int, origin: int, origin_seq: int) -> None:
        for m in self.hub.subscribers["on_ordered"]:
            m.on_ordered(self.site, global_seq, origin, origin_seq)

    def view(
        self,
        view_id: int,
        members: Tuple[int, ...],
        joined: Tuple[int, ...],
        targets: Dict[int, int],
        contiguous: Dict[int, int],
    ) -> None:
        for m in self.hub.subscribers["on_view_installed"]:
            m.on_view_installed(
                self.site, view_id, members, joined, targets, contiguous
            )


class MonitorHub:
    """One run's monitors: binding, dispatch and violation collection."""

    def __init__(
        self,
        monitors: Sequence[Monitor],
        total_sites: int,
        clock: Callable[[], float],
        site_groups: Optional[Dict[int, int]] = None,
    ):
        self.monitors: List[Monitor] = list(monitors)
        self.total_sites = total_sites
        self._clock = clock
        self._views: Dict[int, object] = {}
        #: site -> replica group (fragment); a site it does not name
        #: is in group 0.
        self._site_groups: Dict[int, int] = dict(site_groups or {})
        for monitor in self.monitors:
            monitor.attach(self)
        #: hook name -> monitors that actually override it, so hot-path
        #: probes never touch a monitor that would no-op the event.
        self.subscribers: Dict[str, Tuple[Monitor, ...]] = {
            hook: tuple(
                m
                for m in self.monitors
                if getattr(type(m), hook) is not getattr(Monitor, hook)
            )
            for hook in _HOOKS
        }

    def now(self) -> float:
        return self._clock()

    def group_of(self, site: int) -> int:
        """The replica group (fragment) ``site`` belongs to (0 under
        full replication)."""
        return self._site_groups.get(site, 0)

    def group_members(self, site: int) -> Tuple[int, ...]:
        """The full (initial) member set of ``site``'s replica group."""
        group = self.group_of(site)
        return tuple(
            s for s in range(self.total_sites) if self.group_of(s) == group
        )

    def views_of(self, site: int):
        """The bound site's :class:`~repro.gcs.views.ViewManager` (the
        primary-component monitor reads its installed view / blocked
        flag at commit time), or None for unbound sites."""
        return self._views.get(site)

    def bind_site(self, site: int, name: str, gcs) -> SiteProbe:
        """Register one site's stack and hand back its probe."""
        self._views[site] = gcs.views
        for monitor in self.monitors:
            monitor.note_site(site, name)
        return SiteProbe(self, site)

    def finish(self) -> List[InvariantViolation]:
        """Finalize every monitor and return the merged violations in a
        deterministic order (detection time, monitor, site)."""
        for monitor in self.monitors:
            monitor.finalize()
        merged = [v for monitor in self.monitors for v in monitor.violations]
        merged.sort(key=lambda v: (v.sim_time, v.monitor, v.site, v.seq))
        return merged
