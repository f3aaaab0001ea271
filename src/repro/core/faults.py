"""Fault injection (paper §5.3) and the fault-action taxonomy.

Faults are injected by intercepting calls in and out of the centralized
runtime and by manipulating model state.  The five fault types of the
paper's campaign:

* **clock drift** — scheduled events are scaled up (postponed) and
  measured elapsed durations scaled down by the specified rate;
* **scheduling latency** — a randomly generated delay is added to events
  scheduled in the future;
* **random loss** — each message is discarded upon reception with the
  specified probability (transmission errors);
* **bursty loss** — alternating receive/discard periods with random
  durations (network congestion);
* **crash** — a node is stopped at a specified time, ending all
  interaction with other nodes.

Beyond the paper's campaign, a plan schedules the *recover*, *partition*
and *heal* actions that exercise view-synchronous state transfer
(:data:`FAULT_ACTIONS`; ARCHITECTURE.md); :class:`FaultSchedule` reads
what each site's fault is doing at a time t.

All of them compose: one :class:`FaultInjector` guards one site and can
carry any combination.
"""

from __future__ import annotations

import dataclasses
import math
import random
from collections import Counter
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Set, Tuple

from ..net.lossmodels import BurstyLoss, LossProcess, RandomLoss
from .metrics import stored_fields

__all__ = [
    "FAULT_ACTIONS",
    "FaultInjector",
    "FaultPlan",
    "FaultSchedule",
    "clock_drift",
    "scheduling_latency",
    "random_loss",
    "bursty_loss",
    "crash_recover",
    "partition_heal",
]

#: The point-in-time fault actions a plan can schedule, in lifecycle
#: order.  README.md and ARCHITECTURE.md document each of these; the
#: docs-consistency test cross-checks the tables against this tuple.
FAULT_ACTIONS = ("crash", "recover", "partition", "heal")

_CLOSING = {"crash": "recover", "partition": "heal"}


@dataclass
class FaultPlan:
    """Declarative description of the faults afflicting one site.

    The rates act for the whole run; ``actions`` are the point-in-time
    faults, ``(time, action)`` sorted by time.  Crash/recover and
    partition/heal each alternate, opening first, at strictly increasing
    times, so episodes repeat, nest and overlap.  Which closing owes a
    rejoin via state transfer is :class:`FaultSchedule`'s to say; a
    ``recover`` must leave the site down a few
    ``GcsConfig.suspect_after`` periods, so the survivors exclude it."""

    #: Rate r: delays become delay*(1+r), measured durations duration/(1+r).
    clock_drift_rate: float = 0.0
    #: Maximum extra delay added to scheduled events (uniform in [0, max]).
    scheduling_latency_max: float = 0.0
    #: Probability of dropping each received message.
    random_loss_rate: float = 0.0
    #: Bursty loss: overall rate (with bursts of ``bursty_loss_burst``
    #: messages on average).  Mutually exclusive with random loss.
    bursty_loss_rate: float = 0.0
    bursty_loss_burst: float = 5.0
    #: The point-in-time faults, ``(time, action)`` sorted by time.
    actions: Tuple[Tuple[float, str], ...] = ()
    seed: int = 7

    def __post_init__(self) -> None:
        if self.clock_drift_rate <= -1:
            raise ValueError("clock_drift_rate must be greater than -1")
        for name in ("random_loss_rate", "bursty_loss_rate", "scheduling_latency_max"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if self.random_loss_rate > 0 and self.bursty_loss_rate > 0:
            raise ValueError("choose either random or bursty loss, not both")
        for time, action in self.actions:
            if action not in FAULT_ACTIONS or not 0 <= time < math.inf:
                raise ValueError(f"bad fault action {action!r} at time {time}")
        self.actions = tuple(sorted(
            map(tuple, self.actions), key=lambda e: (e[0], FAULT_ACTIONS.index(e[1]))
        ))
        for kind, closing in _CLOSING.items():
            steps = [entry for entry in self.actions if entry[1] in (kind, closing)]
            if any(a != (kind, closing)[i % 2] for i, (_, a) in enumerate(steps)):
                raise ValueError(f"{kind} and {closing} must alternate, from {kind}")
            if any(t0 >= t1 for (t0, _), (t1, _) in zip(steps, steps[1:])):
                raise ValueError(f"{kind} and {closing} times must strictly increase")

    def episodes(self, kind: str) -> Tuple[Tuple[float, float], ...]:
        """``(start, end)`` of each ``kind`` (``"crash"`` or ``"partition"``)
        episode in time order; ``end`` is ``math.inf`` while it is open."""
        closing = _CLOSING[kind]
        times = [time for time, action in self.actions if action in (kind, closing)]
        times.append(math.inf)
        return tuple(zip(times[::2], times[1::2]))

    def has_faults(self) -> bool:
        return (
            self.clock_drift_rate != 0.0
            or self.scheduling_latency_max > 0.0
            or self.random_loss_rate > 0.0
            or self.bursty_loss_rate > 0.0
            or bool(self.actions)
        )

    def to_dict(self) -> dict:
        """The stored encoding: every field, ``actions`` as ``[time, action]``."""
        data = dataclasses.asdict(self)
        data["actions"] = [list(entry) for entry in self.actions]
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        """Read :meth:`to_dict`'s encoding: exactly its keys."""
        return cls(**stored_fields(cls, data))


class FaultSchedule:
    """What each site's fault is doing at time t: the one reading of a
    run's plans (``config.faults`` on ``config.sites`` sites) that
    partition scheduling, :func:`repro.core.safety.verdict` and the
    tests share.  Sites cut at the same instant form one component."""

    def __init__(self, faults: Mapping[int, FaultPlan], sites: int):
        #: ``(kind, site, start, end)`` of every episode, site by site.
        self._episodes = [
            (kind, site, *episode) for site, plan in faults.items()
            for kind in _CLOSING for episode in plan.episodes(kind)
        ]
        cut = Counter(e[2] for e in self._episodes if e[0] == "partition")
        self._minority = {start for start, size in cut.items() if 2 * size < sites}

    def components_at(self, t: float) -> List[Set[int]]:
        """The sites whose cut is open at ``t``, grouped by its start, in
        start order (a cut is closed at its heal's instant)."""
        groups: Dict[float, Set[int]] = {}
        for kind, site, start, end in self._episodes:
            if kind == "partition" and start <= t < end:
                groups.setdefault(start, set()).add(site)
        return [groups[start] for start in sorted(groups)]

    def cut_changes(self) -> List[Tuple[float, List[Set[int]]]]:
        """``(t, components_at(t))`` at each partition or heal instant."""
        instants = {t for e in self._episodes if e[0] == "partition" for t in e[2:]}
        return [(t, self.components_at(t)) for t in sorted(instants - {math.inf})]

    def rejoins(self, site: int) -> List[float]:
        """The instants after which ``site`` owes a live rejoin, in
        order: each ``recover``, and each ``heal`` of a strict-minority
        component.  An equal split resumes in place; a crash with no
        ``recover`` owes nothing."""
        return sorted(
            end for kind, s, start, end in self._episodes
            if s == site and end < math.inf
            and (kind == "crash" or start in self._minority)
        )

    def open_at(self, t: float) -> bool:
        """Whether an episode has begun by ``t`` and its closing action
        falls after ``t`` *or at it*: a heal at the run's last instant
        has not had its effect yet.  A crash with no ``recover`` never
        closes, so it is not open."""
        return any(start <= t <= end < math.inf for _, _, start, end in self._episodes)


class FaultInjector:
    """The hooks on the boundary crossings of one faulty site's runtime
    (its ``interceptor``), realizing a :class:`FaultPlan`."""

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self.rng = random.Random(self.plan.seed)
        #: The loss process, or None when the plan loses nothing.
        self.loss: Optional[LossProcess] = None
        if self.plan.random_loss_rate > 0:
            self.loss = RandomLoss(
                self.plan.random_loss_rate, random.Random(self.plan.seed + 1)
            )
        elif self.plan.bursty_loss_rate > 0:
            self.loss = BurstyLoss.for_rate(
                self.plan.bursty_loss_rate,
                mean_burst=self.plan.bursty_loss_burst,
                rng=random.Random(self.plan.seed + 1),
            )
        self.stats = {"messages_dropped": 0}

    # ------------------------------------------------------------------
    # runtime hooks
    # ------------------------------------------------------------------
    def transform_delay(self, delay: float) -> float:
        """Rewrite a delay requested by real code (drift, sched latency)."""
        plan = self.plan
        if plan.clock_drift_rate:
            delay *= 1.0 + plan.clock_drift_rate
        if plan.scheduling_latency_max > 0 and delay > 0:
            delay += self.rng.uniform(0.0, plan.scheduling_latency_max)
        return delay

    def transform_elapsed(self, elapsed: float) -> float:
        """Rewrite a measured job duration (clock drift scales it down)."""
        if self.plan.clock_drift_rate:
            return elapsed / (1.0 + self.plan.clock_drift_rate)
        return elapsed

    def drop_incoming(self, source: Any, payload: bytes) -> bool:
        """Whether to discard a datagram upon reception (loss models)."""
        if self.loss is not None and self.loss.should_drop():
            self.stats["messages_dropped"] += 1
            return True
        return False


# ----------------------------------------------------------------------
# convenience constructors
# ----------------------------------------------------------------------
def clock_drift(rate: float, seed: int = 7) -> FaultPlan:
    return FaultPlan(clock_drift_rate=rate, seed=seed)


def scheduling_latency(max_delay: float, seed: int = 7) -> FaultPlan:
    return FaultPlan(scheduling_latency_max=max_delay, seed=seed)


def random_loss(rate: float, seed: int = 7) -> FaultPlan:
    return FaultPlan(random_loss_rate=rate, seed=seed)


def bursty_loss(rate: float, burst: float = 5.0, seed: int = 7) -> FaultPlan:
    return FaultPlan(bursty_loss_rate=rate, bursty_loss_burst=burst, seed=seed)


def crash_recover(start: float, end: float, seed: int = 7) -> FaultPlan:
    """Crash at ``start`` and rejoin via state transfer at ``end``."""
    return FaultPlan(actions=((start, "crash"), (end, "recover")), seed=seed)


def partition_heal(start: float, end: float, seed: int = 7) -> FaultPlan:
    """Partition away at ``start``; heal (and, from a minority
    component, rejoin via state transfer) at ``end``."""
    return FaultPlan(actions=((start, "partition"), (end, "heal")), seed=seed)
