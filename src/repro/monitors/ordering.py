"""FIFO and total-order delivery checks on the GCS stack (§3.4).

Three predicates over the ordered-delivery stream:

* **per-origin FIFO** — at any one site, the origin sequence numbers of
  delivered messages from a given origin strictly increase (view
  changes may legitimately *drop* a suffix beyond a departed origin's
  flush target, so the check is strict increase, not gap-freedom);
* **global monotonicity** — the global sequence numbers a site delivers
  strictly increase, both at the total-order session and at the stack's
  application delivery (reassembled fragments);
* **cross-site agreement** — a global sequence number denotes the same
  ``(origin, origin_seq)`` message at every site that delivers it (the
  paper's "a message's position never changes once delivered
  anywhere").  Like the streaming 1SR certifier, this check detects a
  disagreement at the delivery that causes it but *confirms* it at end
  of run: a partitioned-away member (typically an old sequencer that
  does not yet know it was excluded) may deliver a short divergent
  window under global numbers the primary component assigns
  differently, and that whole window is wiped — deliveries, commits
  and all — when the member rejoins via state transfer, so the group
  history never contains it.

Each predicate reports at most one violation per site (per origin, for
FIFO) — the first breach is the diagnostic one; repeats after a real
ordering bug would only storm the artifact.
"""

from __future__ import annotations

from typing import Dict, Set, Tuple

from .base import Monitor

__all__ = ["GcsOrdering"]


class GcsOrdering(Monitor):
    """FIFO / total-order delivery invariants of the GCS stack.

    Each fragment group runs its own total-order session with its own
    global-sequence space, so cross-site agreement is checked within
    the group; per-site FIFO/monotonicity need no scoping."""

    name = "gcs-ordering"

    def __init__(self) -> None:
        super().__init__()
        #: (site, origin) -> last origin_seq delivered in total order.
        self._fifo: Dict[Tuple[int, int], int] = {}
        #: site -> last global_seq delivered by the total-order session.
        self._last_ordered: Dict[int, int] = {}
        #: site -> last global_seq delivered by the stack (application).
        self._last_app: Dict[int, int] = {}
        #: site -> global_seq -> (origin, origin_seq): each site's
        #: delivered history, wiped on rejoin (the snapshot replaces the
        #: member's state, so its pre-rejoin window leaves no trace in
        #: the group history — exactly like the commit log).
        self._delivered: Dict[int, Dict[int, Tuple[int, int]]] = {}
        #: site -> first instant one of its deliveries disagreed with
        #: another site's (detection timestamps for finalize()).
        self._conflict_at: Dict[int, float] = {}
        self._fifo_flagged: Set[Tuple[int, int]] = set()
        self._mono_flagged: Set[int] = set()

    def on_ordered(
        self, site: int, global_seq: int, origin: int, origin_seq: int
    ) -> None:
        key = (site, origin)
        last = self._fifo.get(key, 0)
        if origin_seq <= last and key not in self._fifo_flagged:
            self._fifo_flagged.add(key)
            self.emit(
                site,
                f"FIFO order broken for origin {origin}: delivered seq "
                f"{origin_seq} after seq {last}",
                seq=global_seq,
            )
        if origin_seq > last:
            self._fifo[key] = origin_seq
        last_global = self._last_ordered.get(site, 0)
        if global_seq <= last_global and site not in self._mono_flagged:
            self._mono_flagged.add(site)
            self.emit(
                site,
                f"total-order delivery not monotonic: global {global_seq} "
                f"after {last_global}",
                seq=global_seq,
            )
        if global_seq > last_global:
            self._last_ordered[site] = global_seq
        message = (origin, origin_seq)
        self._delivered.setdefault(site, {})[global_seq] = message
        group = self.group_of(site)
        for other, history in self._delivered.items():
            if other == site or self.group_of(other) != group:
                continue
            theirs = history.get(global_seq)
            if theirs is not None and theirs != message:
                now = self._now()
                self._conflict_at.setdefault(site, now)
                self._conflict_at.setdefault(other, now)

    def on_deliver(self, site: int, global_seq: int, origin: int) -> None:
        last = self._last_app.get(site, 0)
        if global_seq <= last and site not in self._mono_flagged:
            self._mono_flagged.add(site)
            self.emit(
                site,
                f"application delivery not monotonic: global {global_seq} "
                f"after {last}",
                seq=global_seq,
            )
        if global_seq > last:
            self._last_app[site] = global_seq

    def on_rejoin(self, site: int) -> None:
        # A restarted member's delivery stream resumes above its
        # snapshot's cut with fresh per-origin state; stale watermarks
        # (and the wiped incarnation's delivered history) would
        # false-positive.
        for key in [k for k in self._fifo if k[0] == site]:
            del self._fifo[key]
        self._last_ordered.pop(site, None)
        self._last_app.pop(site, None)
        self._delivered.pop(site, None)

    def finalize(self) -> None:
        # Confirm cross-site agreement over the surviving delivered
        # histories (divergent windows wiped by a rejoin are gone, like
        # the orphaned commits they carried).  Anchors are per replica
        # group: each group numbers its own delivery sequence.
        authoritative: Dict[
            Tuple[int, int], Tuple[Tuple[int, int], int]
        ] = {}
        for site in sorted(self._delivered):
            history = self._delivered[site]
            group = self.group_of(site)
            for global_seq in sorted(history):
                message = history[global_seq]
                anchor = authoritative.setdefault(
                    (group, global_seq), (message, site)
                )
                if anchor[0] != message:
                    self.emit(
                        site,
                        f"total-order disagreement: global {global_seq} "
                        f"is {message} here but {anchor[0]} at "
                        f"{self.site_name(anchor[1])}",
                        seq=global_seq,
                        sim_time=self._conflict_at.get(site),
                    )
                    break  # first mismatch per site is the diagnostic one
