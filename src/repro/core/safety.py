"""Off-line safety checking (paper §5.3).

After a simulation finishes, all operational sites must have committed
**exactly the same sequence of transactions**; this is the consistency
condition the DBSM approach guarantees and the property the fault
campaigns verify.  Each replica appends every certified-commit decision
to a :class:`CommitLog`; :func:`check_consistency` compares logs after
the run, tolerating only a *prefix* relationship for sites that crashed.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
from typing import Any, Dict, Iterable, Iterator, List, Sequence, Tuple

__all__ = [
    "VERDICTS",
    "CommitLog",
    "SafetyViolation",
    "agreement_divergences",
    "check_consistency",
    "describe_divergence",
    "verdict",
]

#: What :func:`verdict` can say about a run, the one good word first.
VERDICTS = ("ok", "diverged", "violated", "no-rejoin")


@dataclass
class CommitLog:
    """The ordered commit decisions taken at one site."""

    site: str
    #: (global sequence number, transaction id) in decision order.
    entries: List[Tuple[int, int]] = field(default_factory=list)
    crashed: bool = False

    def append(self, global_seq: int, tx_id: int) -> None:
        if self.entries and global_seq <= self.entries[-1][0]:
            raise SafetyViolation(
                f"{self.site}: commit sequence not monotonic "
                f"({global_seq} after {self.entries[-1][0]})"
            )
        self.entries.append((global_seq, tx_id))

    def sequence(self) -> Tuple[Tuple[int, int], ...]:
        return tuple(self.entries)

    def to_dict(self) -> Dict[str, object]:
        return {
            "site": self.site,
            "entries": [list(entry) for entry in self.entries],
            "crashed": self.crashed,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "CommitLog":
        # validated by column, as metrics rows are: nothing is coerced
        entries = list(map(tuple, data["entries"]))
        if not (
            set(map(len, entries)) <= {2}
            and set(map(type, chain.from_iterable(entries))) <= {int}
        ):
            raise ValueError(f"{data['site']}: commit log entries must be int pairs")
        return cls(str(data["site"]), entries, bool(data["crashed"]))


class SafetyViolation(AssertionError):
    """Raised when replicas disagree on the committed sequence."""


#: One site's committed ``(global sequence number, transaction id)`` run.
CommitSequence = Tuple[Tuple[int, int], ...]


def agreement_divergences(
    logs: Iterable[Tuple[Any, CommitSequence, bool]],
) -> Iterator[Tuple[Any, CommitSequence, bool, Any, CommitSequence]]:
    """The §5.3 agreement rule, stated once for the post-hoc check below
    and the streaming ``one-copy-sr`` monitor.

    ``logs`` are ``(site, committed sequence, operational)`` triples.
    Every operational sequence must equal the reference (the first
    operational one); a non-operational site (crashed, or mid-rejoin)
    stopped mid-stream, so its sequence need only be a *prefix* of it.
    Yields ``(site, sequence, operational, reference site, expected
    sequence)`` for each log that breaks the rule — operational sites
    first — and nothing when no site is operational."""
    logs = list(logs)
    operational = [entry for entry in logs if entry[2]]
    if not operational:
        return
    ref_site, reference, _ = operational[0]
    for site, seq, _ in operational[1:]:
        if seq != reference:
            yield site, seq, True, ref_site, reference
    for site, seq, is_operational in logs:
        if not is_operational and seq != reference[: len(seq)]:
            yield site, seq, False, ref_site, reference[: len(seq)]


def check_consistency(logs: Sequence[CommitLog]) -> Dict[str, int]:
    """Verify all operational sites committed the same sequence
    (:func:`agreement_divergences`).  Returns ``{site: committed_count}``
    on success and raises :class:`SafetyViolation` on the first
    divergence otherwise.
    """
    for site, seq, operational, ref_site, expected in agreement_divergences(
        (log.site, log.sequence(), not log.crashed) for log in logs
    ):
        diff = describe_divergence(expected, seq)
        if operational:
            raise SafetyViolation(
                f"{site} and {ref_site} committed different sequences: {diff}"
            )
        raise SafetyViolation(
            f"crashed site {site} is not a prefix of the agreed sequence: {diff}"
        )
    return {log.site: len(log.entries) for log in logs}


def verdict(result: Any) -> str:
    """Whether a run was correct, as one word of :data:`VERDICTS`; the
    first check that fails names it.  ``diverged``: ``check_safety()``
    raises (§5.3's criterion).  ``violated``: a monitor fired.
    ``no-rejoin``: a site's last ``recover``, or ``heal`` of a
    strict-minority cut (the sites cut at one instant; an equal split
    resumes in place), came before the run ended and no completed rejoin
    at that site went live at or after it.  It reads only what an
    artifact stores, so a live result, its ``from_dict`` copy and its
    artifact get the same verdict."""
    try:
        result.check_safety()
    except SafetyViolation:
        return "diverged"
    if result.violations:
        return "violated"
    faults, end = result.config.faults, result.sim_time
    cuts = Counter(s for plan in faults.values() for s, _ in plan.episodes("partition"))
    live = result.completed_rejoins()
    for site, plan in faults.items():
        due = [t for _, t in plan.episodes("crash") if t < end] + [
            t for s, t in plan.episodes("partition")
            if t < end and 2 * cuts[s] < result.config.sites
        ]
        if due and not any(e.site == site and e.live_at >= max(due) for e in live):
            return "no-rejoin"
    return "ok"


def describe_divergence(
    a: Tuple[Tuple[int, int], ...], b: Tuple[Tuple[int, int], ...]
) -> str:
    """Human-readable first divergence between two commit sequences.

    Shared by the post-hoc check above and the streaming
    ``one-copy-sr`` monitor (:mod:`repro.monitors.serializability`), so
    both report a disagreement in the same vocabulary."""
    for i, (ea, eb) in enumerate(zip(a, b)):
        if ea != eb:
            return f"first divergence at index {i}: {ea} vs {eb}"
    return f"length mismatch: {len(a)} vs {len(b)}"
