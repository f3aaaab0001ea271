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
import random
from dataclasses import dataclass, field
from typing import Any, Optional

from ..net.lossmodels import BurstyLoss, LossProcess, NoLoss, RandomLoss
from .csrt import RuntimeInterceptor

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


@dataclass
class FaultPlan:
    """Declarative description of the faults afflicting one site."""

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
    #: Simulated time at which the site crashes (None = never).
    crash_at: Optional[float] = None
    #: Simulated time at which a crashed site restarts and rejoins the
    #: group via state transfer (requires ``crash_at``; must leave the
    #: site down long enough for the survivors to exclude it — a few
    #: ``GcsConfig.suspect_after`` periods).
    recover_at: Optional[float] = None
    #: Simulated time at which the site is partitioned away from every
    #: site not partitioned at the same instant (None = never).
    partition_at: Optional[float] = None
    #: Simulated time at which the partition heals.  A site that sat in
    #: a minority component rejoins via state transfer on heal.
    heal_at: Optional[float] = None
    seed: int = 7

    def __post_init__(self) -> None:
        if self.clock_drift_rate <= -1:
            raise ValueError("clock_drift_rate must be greater than -1")
        for name in (
            "random_loss_rate", "bursty_loss_rate", "scheduling_latency_max",
            "crash_at", "partition_at",
        ):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ValueError(f"{name} must be non-negative")
        if self.recover_at is not None:
            if self.crash_at is None:
                raise ValueError("recover_at requires crash_at")
            if self.recover_at <= self.crash_at:
                raise ValueError("recover_at must be after crash_at")
        if self.heal_at is not None:
            if self.partition_at is None:
                raise ValueError("heal_at requires partition_at")
            if self.heal_at <= self.partition_at:
                raise ValueError("heal_at must be after partition_at")

    def has_faults(self) -> bool:
        return (
            self.clock_drift_rate != 0.0
            or self.scheduling_latency_max > 0.0
            or self.random_loss_rate > 0.0
            or self.bursty_loss_rate > 0.0
            or self.crash_at is not None
            or self.partition_at is not None
        )

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        known = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in known})


class FaultInjector(RuntimeInterceptor):
    """A runtime interceptor realizing a :class:`FaultPlan`."""

    def __init__(self, plan: Optional[FaultPlan] = None):
        self.plan = plan or FaultPlan()
        if self.plan.random_loss_rate > 0 and self.plan.bursty_loss_rate > 0:
            raise ValueError("choose either random or bursty loss, not both")
        self.rng = random.Random(self.plan.seed)
        if self.plan.random_loss_rate > 0:
            self.loss: LossProcess = RandomLoss(
                self.plan.random_loss_rate, random.Random(self.plan.seed + 1)
            )
        elif self.plan.bursty_loss_rate > 0:
            self.loss = BurstyLoss.for_rate(
                self.plan.bursty_loss_rate,
                mean_burst=self.plan.bursty_loss_burst,
                rng=random.Random(self.plan.seed + 1),
            )
        else:
            self.loss = NoLoss()
        self.stats = {
            "delays_stretched": 0,
            "messages_dropped": 0,
        }

    # ------------------------------------------------------------------
    # RuntimeInterceptor hooks
    # ------------------------------------------------------------------
    def transform_delay(self, delay: float) -> float:
        plan = self.plan
        if plan.clock_drift_rate:
            delay *= 1.0 + plan.clock_drift_rate
            self.stats["delays_stretched"] += 1
        if plan.scheduling_latency_max > 0 and delay > 0:
            delay += self.rng.uniform(0.0, plan.scheduling_latency_max)
            self.stats["delays_stretched"] += 1
        return delay

    def transform_elapsed(self, elapsed: float) -> float:
        if self.plan.clock_drift_rate:
            return elapsed / (1.0 + self.plan.clock_drift_rate)
        return elapsed

    def drop_incoming(self, source: Any, payload: bytes) -> bool:
        if self.loss.should_drop():
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


def crash_recover(crash_at: float, recover_at: float, seed: int = 7) -> FaultPlan:
    """Crash at ``crash_at`` and rejoin via state transfer at ``recover_at``."""
    return FaultPlan(crash_at=crash_at, recover_at=recover_at, seed=seed)


def partition_heal(partition_at: float, heal_at: float, seed: int = 7) -> FaultPlan:
    """Partition away at ``partition_at``; heal (and, from a minority
    component, rejoin via state transfer) at ``heal_at``."""
    return FaultPlan(partition_at=partition_at, heal_at=heal_at, seed=seed)
