"""Per-class CPU-time profiles — the stand-in for profiling PostgreSQL.

The paper obtains, by instrumenting PostgreSQL with virtualized cycle
counters under a TPC-C run (§4.1), an **empirical distribution of CPU
time per transaction class**, with two published anchor facts: commit
processing costs roughly the same for every class (< 2 ms), and classes
with conditional code paths (payment, orderstatus) are bimodal and get
split into separate long/short classes.

We cannot profile a 2001-era PostgreSQL on a Pentium III, so this module
stands in for that calibration with one fixed table: log-normal profiles
whose means (:data:`DEFAULT_CPU_MEANS`) are chosen to reproduce the
paper's saturation points (a single 1 GHz CPU saturates near 500
clients, §5.1).  As in the paper, every experiment runs on this one
calibration; a different profile is a change to the table.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, Optional

__all__ = [
    "CLASSES",
    "UPDATE_CLASSES",
    "READONLY_CLASSES",
    "LogNormalProfile",
    "ProfileSet",
    "default_profiles",
]

#: The seven transaction classes of the paper's tables (bimodal classes
#: split into long/short, §4.1).
CLASSES = (
    "neworder",
    "payment-long",
    "payment-short",
    "orderstatus-long",
    "orderstatus-short",
    "delivery",
    "stocklevel",
)

UPDATE_CLASSES = ("neworder", "payment-long", "payment-short", "delivery")
READONLY_CLASSES = ("orderstatus-short", "stocklevel")
# NOTE: orderstatus-long is modeled with a SELECT FOR UPDATE on the
# customer row (see workload.py), so it participates in certification.


class LogNormalProfile:
    """Log-normal CPU time: right-skewed like real query timings."""

    def __init__(self, mean: float, sigma: float = 0.25):
        if mean <= 0:
            raise ValueError("mean must be positive")
        self._mean = mean
        self.sigma = sigma
        #: mu chosen so that exp(mu + sigma^2/2) == mean.
        self.mu = math.log(mean) - sigma * sigma / 2.0

    def sample(self, rng: random.Random) -> float:
        return rng.lognormvariate(self.mu, self.sigma)

    def mean(self) -> float:
        return self._mean

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LogNormalProfile(mean={self._mean:.6f}, sigma={self.sigma})"


@dataclass
class ProfileSet:
    """Everything the workload generator needs about timing and I/O.

    ``cpu`` maps class name → log-normal CPU time for the execution
    stage.  ``commit_cpu`` is the near-constant commit cost;
    ``commit_sectors`` maps class → storage sectors (pages) flushed at
    commit, which together with the 9.486 MB/s device reproduces the
    disk-bandwidth ceiling of Figure 6(b).
    """

    cpu: Dict[str, LogNormalProfile]
    commit_cpu: float = 1.8e-3
    commit_sectors: Optional[Dict[str, int]] = None
    #: Mean client think time between transactions, seconds (§3.2).
    think_time_mean: float = 12.0

    def __post_init__(self) -> None:
        missing = [cls for cls in CLASSES if cls not in self.cpu]
        if missing:
            raise ValueError(f"profiles missing for classes: {missing}")
        if self.commit_sectors is None:
            self.commit_sectors = dict(DEFAULT_COMMIT_SECTORS)

    def sample_cpu(self, tx_class: str, rng: random.Random) -> float:
        return self.cpu[tx_class].sample(rng)

    def sectors(self, tx_class: str) -> int:
        assert self.commit_sectors is not None
        return self.commit_sectors.get(tx_class, 0)


#: CPU means (seconds) reproducing the paper's saturation points on the
#: reference 1 GHz CPU: ~22 ms weighted mean per transaction, so one CPU
#: saturates around 45 tx/s ~ 500 clients at 12 s think time (§5.1).
DEFAULT_CPU_MEANS = {
    "neworder": 22e-3,
    "payment-long": 8e-3,
    "payment-short": 5e-3,
    "orderstatus-long": 7e-3,
    "orderstatus-short": 4e-3,
    "delivery": 140e-3,
    "stocklevel": 45e-3,
}

#: Pages flushed at commit (4 KB sectors): stock rows are random access
#: (one page each); order lines cluster; read-only classes flush nothing.
DEFAULT_COMMIT_SECTORS = {
    "neworder": 24,
    "payment-long": 5,
    "payment-short": 5,
    "orderstatus-long": 0,
    "orderstatus-short": 0,
    "delivery": 34,
    "stocklevel": 0,
}


def default_profiles() -> ProfileSet:
    """The calibrated profile set used by all paper experiments."""
    return ProfileSet(
        cpu={cls: LogNormalProfile(DEFAULT_CPU_MEANS[cls]) for cls in CLASSES}
    )
