"""repro — reproduction of "Testing the Dependability and Performance of
Group Communication Based Database Replication Protocols" (Sousa,
Pereira, Soares, Correia Jr., Rocha, Oliveira, Moura — DSN 2005).

The package implements the paper's testing tool end to end: a
centralized simulation runtime executing **real** certification and
group-communication protocol code inside a simulated environment —
network, database engine and TPC-C traffic generator — with global
observation, control, and fault injection.

Quick start::

    from repro import Scenario, ScenarioConfig, metric_value

    result = Scenario(ScenarioConfig(sites=3, clients=300,
                                     transactions=2000)).run()
    print(metric_value(result, "throughput_tpm"),
          metric_value(result, "abort_rate"))
    result.check_safety()   # all replicas committed the same sequence

See ARCHITECTURE.md for the layer map, the per-protocol message-flow
walkthroughs and the crash → partition → heal → state transfer → live
recovery lifecycle, and README.md for the fault-action taxonomy and
the consolidated ``REPRO_*`` knob table.
"""

from .core import (
    CommitLog,
    CpuCostModel,
    FaultPlan,
    MetricsCollector,
    Scenario,
    ScenarioConfig,
    ScenarioResult,
    SimulationError,
    Simulator,
    bursty_loss,
    check_consistency,
    clock_drift,
    crash_recover,
    ecdf,
    partition_heal,
    qq_points,
    random_loss,
    scheduling_latency,
)
from .analysis import (
    AnalysisError,
    ResultSet,
    available_metrics,
    metric_value,
)
from .campaigns import (
    CampaignSpec,
    available_campaigns,
    get_campaign,
)
from .gcs import GcsConfig, RecoveryEvent
from .protocols import (
    ReplicationProtocol,
    available_protocols,
)
from .runner import CampaignError, CampaignResult, run_campaign
from .tpcc import TpccWorkload

__version__ = "1.0.0"

__all__ = [
    "CommitLog",
    "CpuCostModel",
    "FaultPlan",
    "MetricsCollector",
    "Scenario",
    "ScenarioConfig",
    "ScenarioResult",
    "SimulationError",
    "Simulator",
    "bursty_loss",
    "check_consistency",
    "clock_drift",
    "crash_recover",
    "ecdf",
    "partition_heal",
    "qq_points",
    "random_loss",
    "scheduling_latency",
    "AnalysisError",
    "ResultSet",
    "available_metrics",
    "metric_value",
    "CampaignSpec",
    "available_campaigns",
    "get_campaign",
    "GcsConfig",
    "RecoveryEvent",
    "ReplicationProtocol",
    "available_protocols",
    "CampaignError",
    "CampaignResult",
    "run_campaign",
    "TpccWorkload",
    "__version__",
]
