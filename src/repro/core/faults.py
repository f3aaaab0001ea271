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

Beyond the paper's campaign, the plan supports the *recovery* fault
actions that exercise the view-synchronous state-transfer subsystem
(see ARCHITECTURE.md):

* **recover** — a previously crashed node restarts with empty volatile
  state and rejoins the group via state transfer;
* **partition** — the node is cut off from the rest of the network
  fabric (nodes partitioned at the same instant form one component and
  keep talking to each other);
* **heal** — the network cut is removed; nodes that sat in a minority
  component rejoin the primary component via state transfer.

All of them compose: one :class:`FaultInjector` guards one site and can
carry any combination.
"""

from __future__ import annotations

import dataclasses
import math
import random
from dataclasses import dataclass
from typing import Any, Optional, Tuple

from ..net.lossmodels import BurstyLoss, LossProcess, RandomLoss

__all__ = [
    "FAULT_ACTIONS",
    "FaultInjector",
    "FaultPlan",
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
    times, so episodes repeat, nest and overlap.  A ``recover``, and the
    ``heal`` of a strict-minority cut, close with a rejoin via state
    transfer; a ``recover`` must leave the site down a few
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
        """Read :meth:`to_dict`'s encoding; an unknown key is a ValueError."""
        unknown = set(data) - {f.name for f in dataclasses.fields(cls)}
        if unknown:
            raise ValueError(f"unknown FaultPlan keys {sorted(unknown)}")
        return cls(**data)


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
        self.stats = {
            "delays_stretched": 0,
            "messages_dropped": 0,
        }

    # ------------------------------------------------------------------
    # runtime hooks
    # ------------------------------------------------------------------
    def transform_delay(self, delay: float) -> float:
        """Rewrite a delay requested by real code (drift, sched latency)."""
        plan = self.plan
        if plan.clock_drift_rate:
            delay *= 1.0 + plan.clock_drift_rate
            self.stats["delays_stretched"] += 1
        if plan.scheduling_latency_max > 0 and delay > 0:
            delay += self.rng.uniform(0.0, plan.scheduling_latency_max)
            self.stats["delays_stretched"] += 1
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
