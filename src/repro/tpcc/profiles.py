"""Per-class CPU-time profiles — the stand-in for profiling PostgreSQL.

The paper obtains, by instrumenting PostgreSQL with virtualized cycle
counters under a TPC-C run (§4.1), an **empirical distribution of CPU
time per transaction class**, with two published anchor facts: commit
processing costs roughly the same for every class (< 2 ms), and classes
with conditional code paths (payment, orderstatus) are bimodal and get
split into separate long/short classes.

We cannot profile a 2001-era PostgreSQL on a Pentium III, so this module
stands in for that calibration with one fixed table: log-normal CPU
times whose means (:data:`DEFAULT_CPU_MEANS`) are chosen to reproduce
the paper's saturation points (a single 1 GHz CPU saturates near 500
clients, §5.1).  As in the paper, every experiment runs on this one
calibration; a different profile is a change to these constants.
"""

from __future__ import annotations

import math

__all__ = [
    "CLASSES",
    "UPDATE_CLASSES",
    "READONLY_CLASSES",
    "DEFAULT_CPU_MEANS",
    "SIGMA",
    "COMMIT_CPU",
    "COMMIT_SECTORS",
    "THINK_TIME_MEAN",
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

#: Shape of every class's log-normal CPU time: right-skewed like real
#: query timings.  A class's execution CPU is drawn as
#: ``rng.lognormvariate(_MU[cls], SIGMA)``.
SIGMA = 0.25

#: Per-class mu, chosen so that exp(mu + SIGMA^2/2) is the class's mean.
_MU = {
    cls: math.log(mean) - SIGMA * SIGMA / 2.0
    for cls, mean in DEFAULT_CPU_MEANS.items()
}

#: Commit processing CPU, seconds: near-constant, < 2 ms for every
#: class (§4.1).
COMMIT_CPU = 1.8e-3

#: Pages flushed at commit (4 KB sectors): stock rows are random access
#: (one page each); order lines cluster; read-only classes flush nothing.
#: With the 9.486 MB/s device they reproduce Figure 6(b)'s disk ceiling.
COMMIT_SECTORS = {
    "neworder": 24,
    "payment-long": 5,
    "payment-short": 5,
    "orderstatus-long": 0,
    "orderstatus-short": 0,
    "delivery": 34,
    "stocklevel": 0,
}

#: Mean client think time between transactions, seconds (§3.2).
THINK_TIME_MEAN = 12.0
