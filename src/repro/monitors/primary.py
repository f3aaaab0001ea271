"""Primary-component uniqueness (§3.4: at most one partition commits).

The dynamic primary-component rule the view layer enforces by
blocking: a member may only install a view containing a **majority of
its predecessor view** — so of any two disjoint successor components
at most one can continue, and chained majorities keep uniqueness
across cascading failures.  The monitor checks the rule at every
install and tracks the *lineage*: once a site installs a rogue view
(no predecessor majority), every view it chains from it is outside
the primary component until a state-transfer rejoin readmits the site
through the real group.

Commit-time checks close the loop from membership to the database:
nothing may commit while the site is partition-blocked, and nothing
may commit in a view outside the primary lineage — together, "at most
one partition commits".
"""

from __future__ import annotations

from typing import Dict, Optional, Set, Tuple

from .base import Monitor

__all__ = ["PrimaryComponent"]


class PrimaryComponent(Monitor):
    """No minority view installs; no commits outside the primary.

    Majority chains are per replica group: a fragment group's views
    draw from its own member set, so the initial-view fallback is the
    group's members, not all sites."""

    name = "primary-component"

    def __init__(self) -> None:
        super().__init__()
        #: site -> members of its last installed view; a missing key
        #: means "still in the initial view" (all sites), an explicit
        #: ``None`` means "unknown" (state wiped by a rejoin).
        self._members: Dict[int, Optional[Tuple[int, ...]]] = {}
        #: site -> False once the site's view lineage left the primary
        #: component; reset by a state-transfer rejoin.
        self._in_primary: Dict[int, bool] = {}
        self._commit_flagged: Set[Tuple[int, int, str]] = set()

    def _predecessor(self, site: int) -> Optional[Tuple[int, ...]]:
        if site in self._members:
            return self._members[site]
        if self._hub is not None:
            return self._hub.group_members(site)
        return None

    def on_view_installed(
        self,
        site: int,
        view_id: int,
        members: Tuple[int, ...],
        joined: Tuple[int, ...],
        targets: Dict[int, int],
        contiguous: Dict[int, int],
    ) -> None:
        prev = self._predecessor(site)
        if prev is not None:
            need = len(prev) // 2 + 1
            overlap = len(set(members) & set(prev))
            if overlap < need:
                self._in_primary[site] = False
                self.emit(
                    site,
                    f"view {view_id} {tuple(sorted(members))} installed "
                    f"without a majority of its predecessor {prev} "
                    f"({overlap} of the {need} required)",
                    seq=view_id,
                )
            elif self._in_primary.get(site, True):
                self._in_primary[site] = True
            # else: rogue lineage — a majority of a rogue view is still
            # outside the primary component.
        self._members[site] = tuple(sorted(members))

    def on_commit(self, site: int, commit_seq: int, tx_id: int) -> None:
        views = self._hub.views_of(site) if self._hub is not None else None
        view_id = views.view_id if views is not None else -1
        if views is not None and views.blocked:
            key = (site, view_id, "blocked")
            if key not in self._commit_flagged:
                self._commit_flagged.add(key)
                self.emit(
                    site,
                    f"committed tx {tx_id} while partition-blocked "
                    f"(outside any primary component)",
                    seq=commit_seq,
                )
        if not self._in_primary.get(site, True):
            key = (site, view_id, "minority")
            if key not in self._commit_flagged:
                self._commit_flagged.add(key)
                self.emit(
                    site,
                    f"committed tx {tx_id} in view {view_id}, which is "
                    f"outside the primary component",
                    seq=commit_seq,
                )

    def on_rejoin(self, site: int) -> None:
        # State transfer readmits the site through the real primary
        # component; its stale lineage verdict no longer applies.
        self._members[site] = None
        self._in_primary.pop(site, None)
