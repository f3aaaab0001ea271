"""Canonical experiment configurations (paper §5).

Centralizes the exact scenario grid the paper evaluates so the figure
suite, examples and tests all speak the same names:

* **Figure 5/6 grid** — centralized servers with 1, 3 and 6 CPUs and
  replicated databases with 3 and 6 single-CPU sites, driven by 100 to
  2000 clients;
* **Figure 7 / Table 2 fault grid** — 3 sites with no faults, 5 % random
  loss, or 5 % bursty loss (mean burst length 5 messages);
* **§5.3 safety matrix** — clock drift, scheduling latency, both loss
  types, and crash.

``REPRO_SCALE`` (environment) scales the *transaction count* of each
run; client counts are load parameters and stay at paper values.  Scale
1.0 is the paper's 10 000-transaction runs; the default 0.3 keeps the
full figure suite in laptop territory while preserving every shape.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from ..gcs.config import GcsConfig
from .env import env_float
from .faults import (
    FaultPlan,
    bursty_loss,
    clock_drift,
    crash_recover,
    partition_heal,
    random_loss,
    scheduling_latency,
)
from .experiment import ScenarioConfig
from .rng import derive_seed

__all__ = [
    "PAPER_TRANSACTIONS",
    "SYSTEM_CONFIGS",
    "CLIENT_LEVELS",
    "scale",
    "scaled_transactions",
    "performance_config",
    "fault_config",
    "prototype_gcs_config",
    "SAFETY_FAULT_LOADS",
    "safety_fault_plans",
]

#: The paper's per-run transaction count (§5.1).
PAPER_TRANSACTIONS = 10_000

#: The five system configurations of Figures 5 and 6.
SYSTEM_CONFIGS: Tuple[Tuple[str, int, int], ...] = (
    ("1 CPU", 1, 1),  # label, sites, cpus per site
    ("3 CPU", 1, 3),
    ("6 CPU", 1, 6),
    ("3 Sites", 3, 1),
    ("6 Sites", 6, 1),
)

#: Client populations swept on the x-axis (paper: 100 to 2000).
CLIENT_LEVELS: Tuple[int, ...] = (100, 500, 1000, 1500, 2000)


def scale() -> float:
    """The run-size scale factor from ``REPRO_SCALE`` (default 0.3).

    An unparseable value falls back to the default, and an out-of-range
    value is clamped to [0.01, 1.0] — each with a warning (once per
    distinct value, via :mod:`repro.core.env`) instead of silently, so
    a typo like ``REPRO_SCALE=O.5`` cannot quietly shrink a campaign.
    """
    return env_float("REPRO_SCALE", 0.3, 0.01, 1.0)


def scaled_transactions(base: int = PAPER_TRANSACTIONS) -> int:
    return max(300, int(base * scale()))


def performance_config(
    sites: int,
    cpus_per_site: int,
    clients: int,
    transactions: Optional[int] = None,
    seed: int = 42,
    protocol: str = "dbsm",
    **overrides,
) -> ScenarioConfig:
    """One point of the Figure 5/6 grid (per replication protocol)."""
    return ScenarioConfig(
        sites=sites,
        cpus_per_site=cpus_per_site,
        clients=clients,
        transactions=(
            transactions if transactions is not None else scaled_transactions()
        ),
        seed=seed,
        protocol=protocol,
        **overrides,
    )


def prototype_gcs_config() -> GcsConfig:
    """The group-communication configuration of the paper's prototype.

    The §5.3 results characterize the *prototype implementation* — its
    retransmission timer, gossip cadence and buffer shares are part of
    what was measured.  Conservative recovery timers plus a modest
    per-sender share are what let 5 % random loss stall stability
    detection long enough to exhaust the sequencer's share and block
    the group (the limitation the paper pinpoints; the ablation benches
    demonstrate its mitigations).  The library's *default* GcsConfig
    recovers more aggressively and shows correspondingly milder tails.
    """
    return GcsConfig(
        nack_timeout=0.180,
        stability_interval=0.250,
        buffer_share=56,
    )


def fault_config(
    kind: str,
    clients: int = 750,
    sites: int = 3,
    transactions: Optional[int] = None,
    seed: int = 42,
    rate: float = 0.05,
    protocol: str = "dbsm",
    fault_at: float = 20.0,
    repair_after: float = 15.0,
    **overrides,
) -> ScenarioConfig:
    """One cell of the Figure 7 / Table 2 fault grid (per protocol).

    ``kind`` is one of ``"none"``, ``"random"``, ``"bursty"`` — the loss
    is injected at every site, as in the paper (independent loss at each
    participant is what shortens the stable common prefix, §5.3) — or
    one of the recovery fault-loads ``"crash-recover"`` /
    ``"partition-heal"``: the highest-id site leaves at ``fault_at`` and
    rejoins via state transfer ``repair_after`` seconds later.  Runs
    use :func:`prototype_gcs_config` unless ``gcs=...`` overrides it.
    """
    if kind == "none":
        faults: Dict[int, FaultPlan] = {}
    elif kind == "random":
        faults = {
            i: random_loss(rate, seed=derive_seed(seed, "faults", i))
            for i in range(sites)
        }
    elif kind == "bursty":
        faults = {
            i: bursty_loss(rate, seed=derive_seed(seed, "faults", i))
            for i in range(sites)
        }
    elif kind == "crash-recover":
        faults = {sites - 1: crash_recover(fault_at, fault_at + repair_after)}
    elif kind == "partition-heal":
        faults = {sites - 1: partition_heal(fault_at, fault_at + repair_after)}
    else:
        raise ValueError(f"unknown fault kind {kind!r}")
    overrides.setdefault("gcs", prototype_gcs_config())
    return ScenarioConfig(
        sites=sites,
        cpus_per_site=1,
        clients=clients,
        transactions=(
            transactions if transactions is not None else scaled_transactions()
        ),
        seed=seed,
        protocol=protocol,
        faults=faults,
        **overrides,
    )


#: The §5.3 fault matrix: fault-load name -> builder of its per-site
#: plans from ``(sites, seed)``.  Beyond the paper's five fault types,
#: the recovery fault-loads (crash→recover and partition→heal, for both
#: an ordinary member and the site that is sequencer *and* initial
#: primary) verify the same condition across leave/rejoin cycles: a
#: rejoined replica must end bit-identical to the survivors.
SAFETY_FAULT_LOADS: Dict[str, Callable[[int, int], Dict[int, FaultPlan]]] = {
    "clock-drift": lambda sites, seed: {1: clock_drift(0.10, seed=seed)},
    "scheduling-latency": lambda sites, seed: {
        1: scheduling_latency(0.010, seed=seed)
    },
    "random-loss": lambda sites, seed: {
        i: random_loss(0.05, seed=seed + i) for i in range(sites)
    },
    "bursty-loss": lambda sites, seed: {
        i: bursty_loss(0.05, seed=seed + i) for i in range(sites)
    },
    "crash-member": lambda sites, seed: {
        sites - 1: FaultPlan(actions=((20.0, "crash"),))
    },
    "crash-sequencer": lambda sites, seed: {0: FaultPlan(actions=((20.0, "crash"),))},
    "crash-recover-member": lambda sites, seed: {
        sites - 1: crash_recover(20.0, 35.0, seed=seed)
    },
    "crash-recover-sequencer": lambda sites, seed: {
        0: crash_recover(20.0, 35.0, seed=seed)
    },
    "partition-heal-member": lambda sites, seed: {
        sites - 1: partition_heal(20.0, 40.0, seed=seed)
    },
    "partition-heal-sequencer": lambda sites, seed: {
        0: partition_heal(20.0, 40.0, seed=seed)
    },
}


def safety_fault_plans(sites: int = 3, seed: int = 5) -> Dict[str, Dict[int, FaultPlan]]:
    """Every fault-load of :data:`SAFETY_FAULT_LOADS`, built: the §5.3
    matrix under which the committed sequence must be identical at all
    operational sites."""
    return {name: build(sites, seed) for name, build in SAFETY_FAULT_LOADS.items()}
