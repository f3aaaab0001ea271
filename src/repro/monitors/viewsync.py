"""View-synchrony predicates (§3.4 virtual synchrony contract).

Three predicates over view installs and ordered deliveries:

* **view agreement** — every site that installs view *v* installs it
  with the same member set (the first installer fixes it);
* **flush completeness** — a member installs a view only after its
  contiguously-received vector covers every flush target the DECIDE
  carries, i.e. same-view survivors hold the identical message set
  before the change (vacuous for a state-transfer joiner, whose
  missing history is covered by the snapshot, and for origins
  (re)admitted in this very view, whose old stream was reset);
* **no delivery from departed members** — after a view change, a site
  may keep delivering a departed origin's *flushed* messages (at or
  below the highest flush target ever decided for it) but nothing
  beyond them.

Together with the cross-site agreement check of
:class:`~repro.monitors.ordering.GcsOrdering` this realizes the
"same-view members deliver the same message set" obligation: member
sets agree, every survivor reaches the common flush cut before
installing, and nothing outside the cut is ever delivered.
"""

from __future__ import annotations

from typing import Dict, Set, Tuple

from .base import Monitor

__all__ = ["ViewSynchrony"]


class ViewSynchrony(Monitor):
    """Same-view agreement, flush completeness, departed-origin fence.

    View ids are per replica group (each fragment group runs its own
    view manager), so the agreement anchor is keyed by group too."""

    name = "view-synchrony"

    def __init__(self) -> None:
        super().__init__()
        #: (group, view_id) -> (members, first installer) — the
        #: agreement anchor.
        self._views: Dict[
            Tuple[int, int], Tuple[Tuple[int, ...], int]
        ] = {}
        #: site -> members of its currently installed view.
        self._members: Dict[int, Tuple[int, ...]] = {}
        #: site -> origin -> highest flush target ever decided; the
        #: delivery allowance for origins that have since departed
        #: (accumulated max: rapid consecutive view changes must not
        #: shrink a previously granted allowance).
        self._allowance: Dict[int, Dict[int, int]] = {}
        #: sites between a rejoin and their next (merge-view) install.
        self._joining: Set[int] = set()
        self._agree_flagged: Set[int] = set()
        self._departed_flagged: Set[Tuple[int, int]] = set()

    def on_view_installed(
        self,
        site: int,
        view_id: int,
        members: Tuple[int, ...],
        joined: Tuple[int, ...],
        targets: Dict[int, int],
        contiguous: Dict[int, int],
    ) -> None:
        members = tuple(sorted(members))
        anchor = self._views.setdefault(
            (self.group_of(site), view_id), (members, site)
        )
        if anchor[0] != members and site not in self._agree_flagged:
            self._agree_flagged.add(site)
            self.emit(
                site,
                f"view {view_id} installed with members {members} but "
                f"{self.site_name(anchor[1])} installed it with "
                f"{anchor[0]}",
                seq=view_id,
            )
        was_joining = site in self._joining
        self._joining.discard(site)
        if not was_joining:
            for origin, target in sorted(targets.items()):
                if origin in joined:
                    continue  # old stream reset; snapshot covers it
                if contiguous.get(origin, 0) < target:
                    self.emit(
                        site,
                        f"view {view_id} installed before reaching the "
                        f"flush target for origin {origin}: received "
                        f"{contiguous.get(origin, 0)} of {target}",
                        seq=view_id,
                    )
        allowance = self._allowance.setdefault(site, {})
        for origin, target in targets.items():
            if target > allowance.get(origin, 0):
                allowance[origin] = target
        self._members[site] = members

    def on_ordered(
        self, site: int, global_seq: int, origin: int, origin_seq: int
    ) -> None:
        members = self._members.get(site)
        if members is None or origin in members:
            return
        if origin_seq <= self._allowance.get(site, {}).get(origin, 0):
            return  # flushed before the origin departed — legitimate
        key = (site, origin)
        if key not in self._departed_flagged:
            self._departed_flagged.add(key)
            self.emit(
                site,
                f"delivered message {origin_seq} from departed member "
                f"{origin} beyond its flush target",
                seq=global_seq,
            )

    def on_rejoin(self, site: int) -> None:
        # The restarted member's view state is wiped; judge it afresh
        # from the merge view it installs next.
        self._joining.add(site)
        self._members.pop(site, None)
        self._allowance.pop(site, None)
