"""TPC-C traffic generation: schema, profiles, workload, clients.

The industry-standard TPC-C benchmark provides the realistic OLTP load
the paper drives its prototypes with (§3.2); only the workload matters —
throughput/screen constraints of the benchmark do not apply.

**Contract.** Closed-loop terminals: each client issues one
transaction, blocks until the reply, thinks, repeats — producing the
paper's five-class mix with profiled per-class CPU/storage costs and
read/write sets over the TPC-C schema.  The CPU and think-time profile
is one fixed table, the paper's §4.1 calibration
(:data:`~repro.tpcc.profiles.DEFAULT_CPU_MEANS`).

**Invariants.**

* *Per-client determinism* — a client's request stream is a pure
  function of its id and the workload seed, independent of protocol,
  fault plan, or a mid-run restart of the client pool;
* *Load-mix stability* — class frequencies follow the TPC-C mix
  regardless of how requests are routed or how many sites exist;
* *Closed loop* — a client never has more than one transaction in
  flight (so blocked clients of a dead site throttle only themselves).
"""

from .client import Client, ClientPool
from .profiles import CLASSES
from .schema import TpccLayout, warehouses_for_clients
from .workload import MIX, TpccWorkload

__all__ = [
    "Client",
    "ClientPool",
    "CLASSES",
    "TpccLayout",
    "warehouses_for_clients",
    "MIX",
    "TpccWorkload",
]
