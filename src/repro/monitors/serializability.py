"""Streaming one-copy-serializability certifier (§5.3, online).

The post-hoc :func:`repro.core.safety.check_consistency` condition,
maintained incrementally: every operational site must commit exactly
the same ``(commit_seq, tx_id)`` sequence, sites whose commit log is
non-operational (crashed, or mid-rejoin) only a *prefix* of it.

The monitor mirrors each site's commit log as decisions stream in and
compares every new entry against the other sites' logs at the same
position — so a disagreement is *detected* at the delivery that causes
it, and the violation artifact carries that simulated instant.
Confirmation is deferred to ``finalize()``: a minority partition may
legitimately commit a short divergent window before the group excludes
it, and those entries are wiped (and counted as *orphaned commits* by
the recovery metrics) when the site rejoins via state transfer — the
post-hoc check never sees them, and neither does this monitor's
verdict.  At end of run the recorded logs go through the same
:func:`~repro.core.safety.agreement_divergences` rule the post-hoc check
applies, so the two certifiers agree verdict for verdict whenever the
streamed mirror equals the real logs (the property suite asserts this
on randomized interleavings); confirmed violations are stamped with the
earliest detection instant involving the offending site.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set, Tuple

from ..core.safety import agreement_divergences, describe_divergence
from .base import Monitor

__all__ = ["OneCopySerializability"]


class OneCopySerializability(Monitor):
    """Cross-site commit-sequence agreement, crash-prefix aware.

    One-copy equivalence holds per replica group: sites of different
    fragments legitimately commit disjoint sequences, so every
    comparison is scoped to the group."""

    name = "one-copy-sr"

    def __init__(self) -> None:
        super().__init__()
        #: site -> mirrored commit log, in decision order.
        self._logs: Dict[int, List[Tuple[int, int]]] = {}
        #: sites whose log is currently non-operational (crashed or
        #: mid-rejoin) — mirrors ``CommitLog.crashed`` exactly.
        self._crashed: Set[int] = set()
        #: (site_a, site_b) -> (sim_time, index) of the first observed
        #: disagreement between the pair (detection timestamps only;
        #: the verdict comes from the final logs).
        self._first_conflict: Dict[Tuple[int, int], Tuple[float, int]] = {}

    # -- streaming observation ------------------------------------------
    def on_commit(self, site: int, commit_seq: int, tx_id: int) -> None:
        entry = (commit_seq, tx_id)
        log = self._logs.setdefault(site, [])
        index = len(log)
        log.append(entry)
        group = self.group_of(site)
        for other, other_log in self._logs.items():
            if (
                other == site
                or len(other_log) <= index
                or self.group_of(other) != group
            ):
                continue
            if other_log[index] != entry:
                pair = (site, other) if site < other else (other, site)
                if pair not in self._first_conflict:
                    self._first_conflict[pair] = (self._now(), index)

    def on_crash(self, site: int) -> None:
        self._crashed.add(site)

    def on_rejoin(self, site: int) -> None:
        # Entries are kept for orphan accounting but the log counts as
        # non-operational until the snapshot installs.
        self._crashed.add(site)

    def on_snapshot_install(
        self, site: int, entries: Sequence[Tuple[int, int]]
    ) -> None:
        self._logs[site] = [tuple(entry) for entry in entries]
        self._crashed.discard(site)

    # -- verdict ---------------------------------------------------------
    def finalize(self) -> None:
        sites = sorted(set(self._names) | set(self._logs))
        groups: Dict[int, List[int]] = {}
        for site in sites:
            groups.setdefault(self.group_of(site), []).append(site)
        for group in sorted(groups):
            self._finalize_group(groups[group])

    def _finalize_group(self, sites: List[int]) -> None:
        """One violation per divergence of the recorded logs from the
        :func:`~repro.core.safety.agreement_divergences` rule."""
        logs = [
            (site, tuple(self._logs.get(site, ())), site not in self._crashed)
            for site in sites
        ]
        for site, seq, operational, ref_site, expected in agreement_divergences(
            logs
        ):
            diff = describe_divergence(expected, seq)
            if operational:
                detail = (
                    f"committed a different sequence than "
                    f"{self.site_name(ref_site)}: {diff}"
                )
            else:
                detail = (
                    f"non-operational log is not a prefix of the agreed "
                    f"sequence: {diff}"
                )
            self._emit_divergence(site, detail, expected, seq)

    def _emit_divergence(
        self,
        site: int,
        detail: str,
        reference: Tuple[Tuple[int, int], ...],
        log: Tuple[Tuple[int, int], ...],
    ) -> None:
        detected = min(
            (
                record
                for pair, record in self._first_conflict.items()
                if site in pair
            ),
            default=None,
        )
        index = next(
            (i for i, (a, b) in enumerate(zip(reference, log)) if a != b),
            min(len(reference), len(log)),
        )
        seq = log[index][0] if index < len(log) else -1
        self.emit(
            site,
            detail,
            seq=seq,
            sim_time=None if detected is None else detected[0],
        )
