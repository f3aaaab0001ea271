"""Simulation core: kernel, centralized runtime, faults, observation.

The SSF-style discrete-event kernel, the centralized simulation runtime
that executes real protocol code on simulated CPUs (the paper's §2
contribution), the runtime abstraction protocol code is written against,
fault injection, metrics, safety checking and scenario assembly.

**Contract.** Build an experiment from a declarative
:class:`ScenarioConfig`, run it to completion, and return a
:class:`ScenarioResult` carrying every observable the paper's figures
need — with faults (crash / recover / partition / heal plus the rate
faults) injected only through the runtime boundary.

**Invariants.**

* *Determinism* — under the modeled clock, a run is a pure function of
  ``(config, seed)``: bit-identical timings, outcomes and commit logs
  on every execution path (direct, ``workers=1``, process pool);
* *Faithful accounting* — real protocol code is charged to the
  simulated CPU it ran on, with the Δ1 correction for events it
  schedules (Figure 1(b));
* *Safety checkable* — every commit decision of every site is in the
  result's commit logs, so §5.3 consistency (operational sites
  identical; crashed sites a prefix; rejoined sites bit-identical) is
  decidable off-line.
"""

from .clock import CpuCostModel
from .cpu import CpuPool, REAL_JOB, SIM_JOB, SimulatedCpu
from .csrt import MEASURED, MODELED, SiteRuntime
from .experiment import Scenario, ScenarioConfig, ScenarioResult, Site
from .faults import (
    FAULT_ACTIONS,
    FaultInjector,
    FaultPlan,
    bursty_loss,
    clock_drift,
    crash_recover,
    partition_heal,
    random_loss,
    scheduling_latency,
)
from .kernel import MS, US, Entity, Event, Process, Signal, SimulationError, Simulator
from .metrics import (
    MetricsCollector,
    ResourceSampler,
    SampleSeries,
    TxRecord,
    ecdf,
    qq_points,
    quantiles,
)
from .regression import Regression, RegressionSuite
from .runtime_api import NativeProtocolRuntime, ProtocolRuntime
from .safety import CommitLog, SafetyViolation, check_consistency

__all__ = [
    "CpuCostModel",
    "CpuPool",
    "REAL_JOB",
    "SIM_JOB",
    "SimulatedCpu",
    "MEASURED",
    "MODELED",
    "SiteRuntime",
    "Scenario",
    "ScenarioConfig",
    "ScenarioResult",
    "Site",
    "FAULT_ACTIONS",
    "FaultInjector",
    "FaultPlan",
    "bursty_loss",
    "clock_drift",
    "crash_recover",
    "partition_heal",
    "random_loss",
    "scheduling_latency",
    "MS",
    "US",
    "Entity",
    "Event",
    "Process",
    "Signal",
    "SimulationError",
    "Simulator",
    "MetricsCollector",
    "ResourceSampler",
    "SampleSeries",
    "TxRecord",
    "ecdf",
    "qq_points",
    "quantiles",
    "NativeProtocolRuntime",
    "ProtocolRuntime",
    "CommitLog",
    "SafetyViolation",
    "check_consistency",
    "Regression",
    "RegressionSuite",
]
