"""The pluggable replication-protocol layer.

The paper's testbed exists to evaluate group-communication-based
replication *protocols* — plural.  This module is the seam that makes
the protocol a first-class experiment axis: a table maps a protocol
name (``ScenarioConfig.protocol``) to a builder that wires one site's
database server, group-communication stack and runtime into a
:class:`ReplicationProtocol` instance.  Scenario assembly looks the
protocol up by name, so the same performance and fault grids run under
any protocol in the table and compare side by side.

Adding a protocol:

1. subclass :class:`ReplicationProtocol` — implement the server-facing
   ``submit`` (inherited from
   :class:`~repro.db.server.TerminationProtocol`), the total-order
   delivery handler ``_on_deliver`` and ``protocol_stats``, and
   override ``client_submit`` if client requests need routing (see
   ``primary_copy``).  The *termination core* is inherited: the
   constructor wires server and GCS, ``_resolve_local`` wakes the
   waiting origin transaction, ``_apply_remote`` schedules a delivered
   write-set, and ``_on_applied`` / ``applied_watermark`` track what
   has finished applying — a protocol only decides *what* commits and
   in which sequence;
2. implement the **state-transfer hook** — ``protocol_snapshot`` /
   ``install_protocol_snapshot`` (the protocol metadata a donor ships
   to a rejoining replica: certification position, commit counters);
   the base class handles the commit log, the apply watermark, the
   ``live`` gate and orphan accounting;
3. add its builder to the :data:`repro.protocols.PROTOCOLS` table:
   ``build(ctx: ProtocolContext)`` returns the per-site instance;
4. give it a smoke cell: the runner's smoke grid enumerates the table
   automatically, and a unit test fails any protocol in the table that
   has no smoke cell.

The table is a module-level literal, so every process that imports
``repro`` — campaign pool workers included — sees the same protocols.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, Tuple

from ..core.clock import CpuCostModel
from ..core.kernel import Signal
from ..core.safety import CommitLog
from ..db.server import DatabaseServer, TerminationProtocol, WatermarkTracker
from ..db.transactions import Outcome, Transaction, TransactionSpec

if TYPE_CHECKING:  # a module-level import would cycle through repro.dbsm
    from ..dbsm.marshal import CommitRequest

__all__ = [
    "REMOTE_APPLY_CPU_FACTOR",
    "ReplicationProtocol",
    "ProtocolContext",
    "ProtocolGroup",
]

_COMMIT, _ABORT = Outcome.COMMIT, Outcome.ABORT  # bound once: see db.transactions
OnDone = Callable[[Transaction], None]

#: CPU fraction of the profiled commit cost charged when applying a
#: remote transaction: the apply path only installs already-computed
#: write values and runs the commit record — no parsing, planning or
#: execution.  Calibrated so 6-site CPU usage tracks the 6-CPU
#: centralized curve as in Figure 6(a).
REMOTE_APPLY_CPU_FACTOR = 0.4


class ReplicationProtocol(TerminationProtocol):
    """One site's replication-protocol instance.

    The server sees it as its :class:`TerminationProtocol`; the scenario
    additionally uses it to route client requests, to crash the site,
    and to collect the commit log and protocol counters after the run.
    """

    #: Table name of the protocol this instance implements.
    name: str = "?"
    #: The site's ordered commit decisions (§5.3 safety checking).
    commit_log: CommitLog
    #: Set once the site has been crashed by fault injection.
    crashed: bool = False
    #: False between a rejoin and the completion of its state transfer:
    #: the site orders traffic but must not serve update requests.
    live: bool = True
    #: The site's database server.
    server: DatabaseServer
    #: The site's :class:`~repro.gcs.stack.GroupCommunication` and its
    #: runtime, the :class:`~repro.core.csrt.SiteRuntime` (typed loosely
    #: to keep this module import-light).
    gcs: Any
    runtime: Any
    #: The site's :class:`~repro.monitors.base.SiteProbe` when runtime
    #: invariant monitoring is enabled, else None.  Every protocol gets
    #: monitored through this one binding: commits must flow through
    #: :meth:`log_commit` and the base class notifies the lifecycle
    #: events (crash / rejoin / snapshot install) itself, so a new
    #: protocol is covered without writing any monitor code.
    monitor: Any = None

    def __init__(self, site_id: int, server: DatabaseServer, gcs: Any):
        self.site_id = site_id
        self.server = server
        self.gcs = gcs
        self.runtime = gcs.runtime
        self.commit_log = CommitLog(site=server.name)
        self.crashed = False
        self._watermark = WatermarkTracker()
        #: tx_id -> (transaction, outcome signal) of the local
        #: transactions whose termination is in flight.
        self._pending: Dict[int, Tuple[Transaction, Signal]] = {}
        server.termination = self
        server.on_applied = self._on_applied
        gcs.on_deliver = self._on_deliver
        gcs.snapshot_provider = self.state_snapshot
        gcs.snapshot_installer = self.install_snapshot

    # ------------------------------------------------------------------
    def client_submit(self, spec: TransactionSpec, on_done: OnDone) -> None:
        """Route one client transaction request.

        The default is what every symmetric (update-everywhere) protocol
        wants: execute on the client's own site.  Asymmetric protocols
        override this — primary-copy sends updates to the primary.
        """
        self.server.submit(spec, on_done=on_done)

    def crash(self) -> None:
        """Stop the site (fault injection §5.3): the runtime boundary is
        sealed and the commit log freezes exactly at the crash point.
        Every protocol needs exactly this; forgetting ``commit_log.crashed``
        would silently break the §5.3 prefix check, so it lives here."""
        self.crashed = True
        self.commit_log.crashed = True
        self.runtime.crash()
        if self.monitor is not None:
            self.monitor.crash()

    def log_commit(self, commit_seq: int, tx_id: int) -> None:
        """Record one commit decision (the §5.3 log) and notify the
        site's monitor probe.  Protocols append through here, never
        directly to ``commit_log``, so the streaming certifier sees
        every decision the post-hoc check would."""
        self.commit_log.append(commit_seq, tx_id)
        if self.monitor is not None:
            self.monitor.commit(commit_seq, tx_id)

    def protocol_stats(self) -> Dict[str, int]:
        """Flat per-site protocol counters for
        :attr:`~repro.core.experiment.ScenarioResult.site_stats` —
        the per-protocol resource breakdowns of Figures 6/7."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # termination core: what every protocol does around its decision
    # ------------------------------------------------------------------
    def multicast(self, payload: bytes) -> None:
        """Atomically multicast ``payload`` in this site's group, as a
        marshal job charged to this site's CPU."""
        self.runtime.submit_real(
            self.gcs.multicast,
            tag=CpuCostModel.MARSHAL,
            nbytes=len(payload),
            args=(payload,),
        )

    def _on_deliver(self, global_seq: int, origin: int, payload: bytes) -> None:
        """Total-order delivery of one multicast payload: decide, then
        :meth:`log_commit` and :meth:`_resolve_local` (own transaction)
        or :meth:`_apply_remote` (someone else's)."""
        raise NotImplementedError

    def _resolve_local(
        self, request: CommitRequest, committed: bool, commit_seq: int
    ) -> bool:
        """Wake the local transaction waiting on ``request`` with the
        decision.  False when nothing is waiting — a request delivered
        after a rejoin dropped the pending table — so callers count only
        resolutions that happened."""
        entry = self._pending.pop(request.tx_id, None)
        if entry is None:
            return False
        tx, outcome_signal = entry
        if committed:
            tx.global_seq = commit_seq
        value = _COMMIT if committed else _ABORT
        # Fire through the runtime so the wake-up lands after the CPU
        # time consumed so far by this delivery job (Figure 1(b)).
        self.runtime.schedule(0.0, outcome_signal.fire, value)
        return True

    def _apply_remote(self, request: CommitRequest, commit_seq: int) -> None:
        """Schedule another site's committed write-set on the local
        server (locks acquired before writing, local holders preempted)."""
        spec = request.remote_spec(REMOTE_APPLY_CPU_FACTOR)
        tx = Transaction(spec, self.server.name, remote=True)
        tx.global_seq = commit_seq
        tx.submit_time = self.runtime.now()
        self.runtime.schedule(0.0, self.server.apply_remote, tx)

    def _on_applied(self, tx: Transaction, global_seq: int) -> None:
        if global_seq > 0:
            self._watermark.mark(global_seq)

    def applied_watermark(self) -> int:
        return self._watermark.watermark

    # ------------------------------------------------------------------
    # state transfer (recovery §ARCHITECTURE.md; hooks for gcs/statetransfer)
    # ------------------------------------------------------------------
    def begin_rejoin(self) -> None:
        """Reset protocol volatile state ahead of a rejoin.

        The commit log keeps its entries for orphan accounting (they are
        replaced when the snapshot installs) but stays marked
        non-operational until then — a §5.3 check on a run that ends
        mid-rejoin treats the site like a stopped one."""
        was_crashed = self.crashed
        self.crashed = False
        self.live = False
        self.commit_log.crashed = True
        self.reset_protocol_state(was_crashed)
        if self.monitor is not None:
            self.monitor.rejoin()

    def reset_protocol_state(self, was_crashed: bool) -> None:
        """Drop in-flight protocol state a restarted process would not
        have.  ``was_crashed`` is False for a partition-heal rejoin: the
        process survived, so client requests parked inside it may be
        preserved and re-routed once live."""
        self._pending.clear()

    def state_snapshot(self) -> Dict[str, object]:
        """The protocol metadata a donor ships to a rejoining replica:
        the committed sequence plus whatever :meth:`protocol_snapshot`
        contributes (certification position, apply watermark, ...)."""
        snap: Dict[str, object] = {
            "commit_log": [list(entry) for entry in self.commit_log.entries]
        }
        snap.update(self.protocol_snapshot())
        return snap

    def install_snapshot(self, snap: Dict[str, object]) -> int:
        """Adopt a donor's snapshot and go live.

        The joiner's committed state becomes bit-identical to the
        donor's cut; entries of the previous incarnation missing from
        the adopted sequence (a minority partition's divergence window)
        are counted and returned as *orphaned commits*."""
        adopted = [tuple(entry) for entry in snap["commit_log"]]
        old = self.commit_log.entries
        common = 0
        for mine, theirs in zip(old, adopted):
            if mine != theirs:
                break
            common += 1
        orphans = len(old) - common
        self.commit_log.commit_seq[:] = [seq for seq, _ in adopted]
        self.commit_log.tx_id[:] = [tx for _, tx in adopted]
        self.commit_log.crashed = False
        # Everything in the adopted commit log counts as applied: the
        # snapshot *is* the applied state.
        self._watermark = WatermarkTracker()
        self._watermark.watermark = adopted[-1][0] if adopted else 0
        self.install_protocol_snapshot(snap)
        self.live = True
        if self.monitor is not None:
            self.monitor.snapshot(adopted)
        return orphans

    def protocol_snapshot(self) -> Dict[str, object]:
        """Protocol-specific snapshot fields (see :meth:`state_snapshot`)."""
        return {}

    def install_protocol_snapshot(self, snap: Dict[str, object]) -> None:
        """Adopt the :meth:`protocol_snapshot` fields."""


class ProtocolGroup:
    """Directory of the per-site protocol instances of one run.

    Protocols that route requests across sites (primary-copy) resolve
    their peers here; symmetric protocols never need it.  The scenario
    registers each instance as it is built.
    """

    def __init__(self) -> None:
        self._instances: Dict[int, ReplicationProtocol] = {}

    def register(self, site_id: int, instance: ReplicationProtocol) -> None:
        self._instances[site_id] = instance

    def instance(self, site_id: int) -> ReplicationProtocol:
        return self._instances[site_id]

    def site_ids(self) -> Tuple[int, ...]:
        return tuple(sorted(self._instances))


@dataclass
class ProtocolContext:
    """Everything a protocol builder may wire against for one site.

    ``gcs``/``config`` are typed loosely to keep this module
    import-light; they are the site's
    :class:`~repro.gcs.stack.GroupCommunication` (whose ``runtime`` is
    the site's :class:`~repro.core.csrt.SiteRuntime`) and the run's
    :class:`~repro.core.experiment.ScenarioConfig`.
    """

    site_id: int
    server: DatabaseServer
    gcs: Any
    config: Any
    group: ProtocolGroup


Builder = Callable[[ProtocolContext], ReplicationProtocol]
