"""The transaction model of the simulated database server (paper §3.1).

A transaction is a sequence of operations, each one of: fetch a data
item, do some processing, or write back a data item.  All items accessed
are known before execution starts (which is what lets the lock manager
acquire locks atomically and skip deadlock detection), and per-operation
processing times come from profiling a real database engine.

:class:`Operation` and :class:`TransactionSpec` are validated rows:
tuples with named fields, checked once in ``__new__`` and immutable
after — the workload builds two to four of them per transaction.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from enum import Enum
from operator import gt as _gt
from typing import Dict, Optional, Tuple

__all__ = [
    "OpKind",
    "Operation",
    "TransactionSpec",
    "Transaction",
    "TxStatus",
    "Outcome",
    "reset_tx_counter",
]


class OpKind(Enum):
    """The three operation kinds of the server model."""

    FETCH = "fetch"
    PROCESS = "process"
    WRITE = "write"


class Operation(namedtuple("Operation", "kind item cpu_time nbytes")):
    """One step of a transaction: a validated, immutable row.

    ``item`` identifies the tuple for FETCH/WRITE; ``cpu_time`` is the
    profiled processing duration for PROCESS (seconds of the reference
    CPU); ``nbytes`` sizes the storage transfer for FETCH/WRITE.
    """

    __slots__ = ()

    def __new__(
        cls,
        kind: OpKind,
        item: Optional[int] = None,
        cpu_time: float = 0.0,
        nbytes: int = 0,
    ) -> "Operation":
        if kind is _PROCESS and cpu_time < 0:
            raise ValueError("cpu_time must be non-negative")
        if (kind is _FETCH or kind is _WRITE) and item is None:
            raise ValueError(f"{kind.value} requires an item")
        return tuple.__new__(cls, (kind, item, cpu_time, nbytes))


class TransactionSpec(
    namedtuple(
        "TransactionSpec",
        "tx_class operations read_set write_set write_sizes"
        " commit_cpu commit_sectors intrinsic_abort",
    )
):
    """The full, pre-known description of one transaction: a validated,
    immutable row.

    ``read_set`` and ``write_set`` are sorted tuples of 64-bit item ids
    (the representation the certification prototype marshals);
    ``write_sizes`` maps written items to their value sizes in bytes so
    messages and storage transfers match real traffic volumes.
    ``commit_cpu`` is the profiled CPU cost of the commit operation
    (observed to be < 2 ms and near-constant across classes, §4.1);
    ``commit_sectors`` is the number of storage sectors flushed at commit
    (0 for read-only transactions, whose commits do no I/O).
    ``intrinsic_abort``: the transaction rolls itself back at the end of
    execution (e.g. TPC-C's mandated 1 % of neworders hitting an unused
    item id, and the constant per-class offsets observed in the paper's
    Table 1 — see repro.tpcc.workload for the calibration rationale).
    """

    __slots__ = ()

    def __new__(
        cls,
        tx_class: str,
        operations: Tuple[Operation, ...],
        read_set: Tuple[int, ...],
        write_set: Tuple[int, ...],
        write_sizes: Optional[Dict[int, int]] = None,
        commit_cpu: float = 2e-3,
        commit_sectors: int = 1,
        intrinsic_abort: bool = False,
    ) -> "TransactionSpec":
        # Non-decreasing tuples: compared pairwise in C, not by sorting a copy.
        if not isinstance(read_set, tuple) or any(map(_gt, read_set, read_set[1:])):
            raise ValueError("read_set must be sorted")
        if not isinstance(write_set, tuple) or any(map(_gt, write_set, write_set[1:])):
            raise ValueError("write_set must be sorted")
        if write_sizes is None:
            write_sizes = {}
        row = (tx_class, operations, read_set, write_set, write_sizes)
        return tuple.__new__(cls, row + (commit_cpu, commit_sectors, intrinsic_abort))

    @property
    def readonly(self) -> bool:
        return not self.write_set

    def total_cpu(self) -> float:
        """Profiled processing time, excluding commit."""
        return sum(op.cpu_time for op in self.operations if op.kind is _PROCESS)

    def write_bytes(self) -> int:
        return sum(self.write_sizes.get(item, 0) for item in self.write_set)


class TxStatus(Enum):
    """Lifecycle stages of a transaction at a replica (paper §1, §3.1)."""

    PENDING = "pending"
    EXECUTING = "executing"
    COMMITTING = "committing"  # submitted to the distributed termination protocol
    APPLYING = "applying"  # certified; writing back
    COMMITTED = "committed"
    ABORTED = "aborted"


class Outcome(Enum):
    COMMIT = "commit"
    ABORT = "abort"


# Members the transaction path loads, bound once: on 3.11 an Enum member
# load runs ``EnumType.__getattr__`` (≈ 150 ns), a global load ≈ 15 ns.
_FETCH, _PROCESS, _WRITE = OpKind.FETCH, OpKind.PROCESS, OpKind.WRITE
_PENDING = TxStatus.PENDING

_tx_counter = itertools.count(1)


def reset_tx_counter() -> None:
    """Restart transaction ids at 1.

    Called by :class:`~repro.core.experiment.Scenario` before each run so
    a cell's transaction ids — which appear in its metrics records — are
    a pure function of the cell's config, not of how many cells ran
    earlier in the process.  That is what makes campaign results
    bit-identical between sequential execution and a worker pool.
    """
    global _tx_counter
    _tx_counter = itertools.count(1)


class Transaction:
    """Mutable runtime state of a transaction instance at one site."""

    __slots__ = (
        "tx_id",
        "spec",
        "site",
        "remote",
        "status",
        "start_seq",
        "global_seq",
        "submit_time",
        "end_time",
        "certify_submit_time",
        "certify_end_time",
        "abort_reason",
    )

    def __init__(self, spec: TransactionSpec, site: str, remote: bool = False):
        self.tx_id: int = next(_tx_counter)
        self.spec = spec
        self.site = site
        self.remote = remote
        self.status = _PENDING
        #: Global commit sequence number observed when execution started —
        #: certification compares against write sets committed after this.
        self.start_seq: int = -1
        #: Global commit order assigned by certification (committed only).
        self.global_seq: int = -1
        self.submit_time: float = -1.0
        self.end_time: float = -1.0
        self.certify_submit_time: float = -1.0
        self.certify_end_time: float = -1.0
        self.abort_reason: str = ""

    @property
    def latency(self) -> float:
        return self.end_time - self.submit_time

    @property
    def certification_latency(self) -> float:
        """Time from multicast submission to certification outcome."""
        if self.certify_submit_time < 0 or self.certify_end_time < 0:
            return 0.0
        return self.certify_end_time - self.certify_submit_time

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Tx {self.tx_id} {self.spec.tx_class} @{self.site} "
            f"{self.status.value}>"
        )
