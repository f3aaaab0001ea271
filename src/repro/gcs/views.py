"""View synchrony: failure detection, consensus-style view agreement,
and the flush that preserves virtual synchrony across membership change
(paper §3.4: "View synchrony uses a consensus protocol and imposes a
negligible overhead during stable operation").

Protocol sketch (coordinator = lowest live member id):

1. heartbeats run continuously; silence beyond ``suspect_after`` marks a
   member suspected;
2. the coordinator multicasts ``PROPOSE(view+1, live members)`` and
   retransmits until every proposed member answers ``FLUSH_ACK`` with
   its per-origin contiguous reception vector and known total-order
   assignments;
3. the coordinator computes per-origin flush **targets** (element-wise
   max of the vectors — everything anyone FIFO-delivered) and multicasts
   ``DECIDE``;
4. each member gap-fills to the targets via NACKs served from peers'
   stability buffers, then installs the view deterministically (see
   :meth:`repro.gcs.sequencer.TotalOrder.install_view`).

A coordinator crash mid-change is survived: the next lowest live member
re-proposes the same (or a higher) view id and members re-answer.  The
implementation targets crash faults — the paper's §5.3 campaign — and
assumes suspicion timeouts are set above injected scheduling delays so
live members are never excluded (see GcsConfig.suspect_after).

Beyond the paper's crash-only model, the manager supports **rejoin**
(recovery and partition-heal fault actions):

* a restarted member announces itself by heartbeating ``view_id 0``
  after a silence period that guarantees its previous incarnation has
  been excluded; the coordinator proposes a merge view naming it in
  ``DECIDE.joined``;
* a joining member skips the flush gap-fill (history is garbage
  collected — unrecoverable by retransmission) and instead
  fast-forwards its receive windows to the flush targets, installs the
  view *gated*, and acquires a state-transfer snapshot before going
  live (:mod:`repro.gcs.statetransfer`);
* every member resumes the joiner's FIFO numbering above everything any
  previous incarnation ever used, so incarnations cannot collide in
  windows, buffers or total-order assignments;
* a **primary-component rule** guards partitions: views may only shrink
  to a majority of the previous view, and a member that cannot see a
  majority blocks (multicast frozen, delivery gated) until the
  partition heals — so a minority component can never commit.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from ..core.runtime_api import ProtocolRuntime
from .config import GcsConfig
from .messages import (
    DecideMsg,
    FlushAckMsg,
    HeartbeatMsg,
    ProposeMsg,
    marshal,
)
from .reliable import ReliableMulticast
from .sequencer import TotalOrder

__all__ = ["ViewManager"]

ViewChange = Callable[[int, Tuple[int, ...], Tuple[int, ...]], None]


class ViewManager:
    """One member's membership state machine."""

    STABLE = "stable"
    FLUSHING = "flushing"  # answered a proposal, waiting for DECIDE
    SYNCING = "syncing"  # gap-filling towards the decided targets
    JOINING = "joining"  # restarted; announcing for readmission

    def __init__(
        self,
        runtime: ProtocolRuntime,
        member_id: int,
        members: Dict[int, object],
        reliable: ReliableMulticast,
        total_order: TotalOrder,
        group_dest: object,
        config: GcsConfig,
        on_view_change: ViewChange,
    ):
        self.runtime = runtime
        self.member_id = member_id
        self.addresses = dict(members)
        self.reliable = reliable
        self.total_order = total_order
        self.group_dest = group_dest
        self.config = config
        self.on_view_change = on_view_change
        self.view_id = 1
        self.members: Tuple[int, ...] = tuple(sorted(members))
        self.state = self.STABLE
        #: True between a rejoin reset and the install of the merge view.
        self.joining = False
        #: True while this member cannot see a primary component (it
        #: froze multicast and gated delivery; heals on reconnection).
        self.blocked = False
        self.last_heard: Dict[int, float] = {}
        self.peer_view: Dict[int, int] = {m: 1 for m in self.members}
        #: view id stamped on the latest *heartbeat* from each member —
        #: a heartbeat stamped 0 announces a restarted member asking to
        #: be (re)admitted with empty state.
        self._heard_view: Dict[int, int] = {}
        self._silent_until = 0.0
        #: Invariant-monitoring probe (observe-only; None when off).
        self.monitor = None
        # coordinator-side proposal state
        self._proposal_view = 0
        self._proposal_members: Tuple[int, ...] = ()
        self._proposal_joined: Tuple[int, ...] = ()
        self._acks: Dict[int, FlushAckMsg] = {}
        # member-side decided state
        self._decided: Optional[DecideMsg] = None
        self._started = False
        #: Tick-chain generation: bumped on rejoin so timer chains from a
        #: previous incarnation (still pending when the site never
        #: crashed, e.g. partition heal) die instead of doubling up.
        self._epoch = 0
        self.stats = {
            "view_changes": 0,
            "proposals_sent": 0,
            "false_alarms": 0,
            "rejoins": 0,
            "blocked_periods": 0,
        }

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._started:
            return
        self._started = True
        self._epoch += 1
        now = self.runtime.now()
        for member in self.members:
            self.last_heard[member] = now
        self.runtime.schedule(
            self.config.heartbeat_interval, self._heartbeat_tick, self._epoch
        )
        self.runtime.schedule(
            self.config.heartbeat_interval, self._suspicion_tick, self._epoch
        )

    def reset_for_rejoin(self, silent: bool = True) -> None:
        """Restart after a crash/partition with empty membership state.

        The member re-enters as an outsider: view id 0, no members, and
        (unless the caller *knows* the group already excluded us — e.g.
        the stack detected persistent higher-view traffic) a silence
        window long enough that the survivors are guaranteed to have
        excluded the previous incarnation before the first announcement
        heartbeat goes out (otherwise the old incarnation's windows at
        the survivors would collide with the fresh state).  Ticks
        restart via :meth:`start` — a crash killed the previous timer
        chains, and the epoch guard retires them otherwise.
        """
        self.view_id = 0
        self.members = ()
        self.state = self.JOINING
        self.joining = True
        self.blocked = False
        self.last_heard = {}
        self.peer_view = {}
        self._heard_view = {}
        self._silent_until = self.runtime.now() + (
            self.config.suspect_after + 4 * self.config.view_retransmit
            if silent
            else 0.0
        )
        self._proposal_view = 0
        self._proposal_members = ()
        self._proposal_joined = ()
        self._acks = {}
        self._decided = None
        self._started = False
        self.stats["rejoins"] += 1
        self.start()

    def note_heard(
        self, member: int, view_id: int, heartbeat: bool = False
    ) -> None:
        """Called by the stack on any reception physically from ``member``."""
        self.last_heard[member] = self.runtime.now()
        if view_id > self.peer_view.get(member, 0):
            self.peer_view[member] = view_id
        if heartbeat:
            self._heard_view[member] = view_id

    def alive_members(self) -> Tuple[int, ...]:
        threshold = self.runtime.now() - self.config.suspect_after
        return tuple(
            m
            for m in self.members
            if m == self.member_id or self.last_heard.get(m, 0.0) >= threshold
        )

    def majority(self) -> int:
        """Primary-component threshold: a majority of the current view."""
        return len(self.members) // 2 + 1

    def _join_candidates(self, alive: Tuple[int, ...]) -> Tuple[int, ...]:
        """Members announcing themselves for (re)admission with empty
        state: recently heard heartbeats stamped with view id 0, from a
        configured address, that the installed view does not already
        account for."""
        threshold = self.runtime.now() - self.config.suspect_after
        candidates = []
        for member, heard_at in self.last_heard.items():
            if member == self.member_id or heard_at < threshold:
                continue
            if member not in self.addresses:
                continue
            if self._heard_view.get(member) != 0:
                continue
            if member in self.members and self.peer_view.get(member, 0) >= self.view_id:
                continue  # already readmitted; stale heartbeat in flight
            candidates.append(member)
        return tuple(sorted(candidates))

    # ------------------------------------------------------------------
    # failure detection
    # ------------------------------------------------------------------
    def _heartbeat_tick(self, epoch: int = 0) -> None:
        if epoch and epoch != self._epoch:
            return  # superseded incarnation's chain
        if self.runtime.now() >= self._silent_until:
            beat = HeartbeatMsg(self.member_id, self.view_id)
            self.runtime.send(self.group_dest, marshal(beat))
        self.runtime.schedule(
            self.config.heartbeat_interval, self._heartbeat_tick, epoch
        )

    def _suspicion_tick(self, epoch: int = 0) -> None:
        if epoch and epoch != self._epoch:
            return  # superseded incarnation's chain
        self.runtime.schedule(
            self.config.heartbeat_interval, self._suspicion_tick, epoch
        )
        if self.joining:
            return  # nothing to detect: we are outside the membership
        alive = self.alive_members()
        suspected = set(self.members) - set(alive)
        self.reliable.suspected = set(suspected)
        if len(alive) < self.majority():
            # Minority side of a partition: block until it heals — a
            # non-primary component must not commit anything.
            if not self.blocked:
                self.blocked = True
                self.stats["blocked_periods"] += 1
                self.reliable.freeze()
                self.total_order.gated = True
            return
        if self.blocked:
            # Regained a primary component without a view change (the
            # cut healed before anyone was excluded): resume.
            self.blocked = False
            self.total_order.gated = False
            if self.state == self.STABLE:
                self.reliable.thaw()
            self.total_order._try_deliver()
        joiners = self._join_candidates(alive)
        if (suspected or joiners) and self.member_id == min(alive):
            self._initiate(alive, joiners)

    # ------------------------------------------------------------------
    # coordinator role
    # ------------------------------------------------------------------
    def _initiate(
        self, alive: Tuple[int, ...], joiners: Tuple[int, ...] = ()
    ) -> None:
        members = tuple(sorted(set(alive) | set(joiners)))
        proposed = max(self.view_id, self._proposal_view) + (
            0 if self._proposal_view > self.view_id else 1
        )
        if self._proposal_view >= proposed and self._proposal_members == members:
            return  # proposal already in flight
        self._proposal_view = proposed
        self._proposal_members = members
        self._proposal_joined = joiners
        self._acks = {self.member_id: self._own_ack(proposed)}
        self.reliable.freeze()
        self.state = self.FLUSHING
        self._send_propose()

    def _send_propose(self) -> None:
        if self._proposal_view <= self.view_id:
            return
        missing = [m for m in self._proposal_members if m not in self._acks]
        if not missing:
            return
        msg = ProposeMsg(self.member_id, self._proposal_view, self._proposal_members)
        self.runtime.send(self.group_dest, marshal(msg))
        self.stats["proposals_sent"] += 1
        self.runtime.schedule(self.config.view_retransmit, self._send_propose)

    def handle_flush_ack(self, msg: FlushAckMsg) -> None:
        if msg.view_id != self._proposal_view:
            return
        self._acks[msg.sender] = msg
        if all(m in self._acks for m in self._proposal_members):
            self._decide()

    def _decide(self) -> None:
        targets: Dict[int, int] = {}
        assignments: Dict[Tuple[int, int, int], None] = {}
        pending: Dict[Tuple[int, int], None] = {}
        for ack in self._acks.values():
            # A joiner's empty-state vector must not pull targets up or
            # down — it reports zeros, and max() ignores them.
            for origin, contiguous in ack.contiguous:
                if contiguous > targets.get(origin, 0):
                    targets[origin] = contiguous
            for triple in ack.assignments:
                assignments[triple] = None
            for key in ack.pending:
                pending[key] = None
        assigned_keys = {(origin, seq) for _, origin, seq in assignments}
        decide = DecideMsg(
            self.member_id,
            self._proposal_view,
            self._proposal_members,
            tuple(sorted(targets.items())),
            tuple(sorted(assignments)),
            tuple(sorted(k for k in pending if k not in assigned_keys)),
            self._proposal_joined,
        )
        self._decided = decide
        self.state = self.SYNCING
        self._broadcast_decide()
        self._sync_tick()

    def _broadcast_decide(self) -> None:
        decide = self._decided
        if decide is None or self.view_id >= decide.view_id and self._all_adopted():
            return
        self.runtime.send(self.group_dest, marshal(decide))
        self.runtime.schedule(self.config.view_retransmit, self._broadcast_decide)

    def _all_adopted(self) -> bool:
        decide = self._decided
        if decide is None:
            return True
        return all(
            self.peer_view.get(m, 0) >= decide.view_id for m in decide.members
        )

    # ------------------------------------------------------------------
    # member role
    # ------------------------------------------------------------------
    def handle_propose(self, msg: ProposeMsg) -> None:
        if msg.view_id <= self.view_id:
            return
        if self.member_id not in msg.members:
            return  # being excluded: wait it out, rejoin via state transfer
        self.reliable.freeze()
        if self.state == self.STABLE:
            self.state = self.FLUSHING
        ack = self._own_ack(msg.view_id)
        coordinator = self.addresses.get(msg.sender)
        if coordinator is not None:
            self.runtime.send(coordinator, marshal(ack))

    def handle_decide(self, msg: DecideMsg) -> None:
        if msg.view_id <= self.view_id:
            return
        if self.member_id not in msg.members:
            return
        self._decided = msg
        if self.joining:
            # A joiner has no history to gap-fill (it is unrecoverable by
            # retransmission anyway): fast-forward to the targets and
            # install gated; the state-transfer snapshot replaces the
            # skipped history.
            self._install(msg)
            return
        self.state = self.SYNCING
        # Redirect retransmission requests away from freshly (re)joined
        # origins: their new incarnation cannot serve its predecessor's
        # stream, but every survivor's stability buffer can.
        self.reliable.suspected |= set(msg.joined) - {self.member_id}
        self.total_order._adopt_assignments(msg.assignments)
        self._sync_tick()

    def _own_ack(self, proposed_view: int) -> FlushAckMsg:
        contiguous = tuple(sorted(self.reliable.contiguous_vector().items()))
        assignments = tuple(
            sorted(
                (g, origin, seq)
                for g, (origin, seq) in self.total_order.assignments.items()
            )
        )
        pending = tuple(
            sorted(
                key
                for key in self.total_order.held
                if key not in self.total_order._assigned
            )
        )
        return FlushAckMsg(
            self.member_id, proposed_view, contiguous, assignments, pending
        )

    # ------------------------------------------------------------------
    # sync phase
    # ------------------------------------------------------------------
    def _sync_tick(self) -> None:
        decide = self._decided
        if decide is None or self.state != self.SYNCING:
            return
        vector = self.reliable.contiguous_vector()
        behind = [
            (origin, target)
            for origin, target in decide.targets
            if vector.get(origin, 0) < target
        ]
        if not behind:
            self._install(decide)
            return
        for origin, target in behind:
            self.reliable.request_catchup(origin, target)
        self.runtime.schedule(self.config.view_retransmit, self._sync_tick)

    def maybe_complete_sync(self) -> None:
        """Cheap completion probe the stack calls on DATA receptions."""
        decide = self._decided
        if decide is None or self.state != self.SYNCING:
            return
        vector = self.reliable.contiguous_vector()
        if all(vector.get(o, 0) >= t for o, t in decide.targets):
            self._install(decide)

    def _install(self, decide: DecideMsg) -> None:
        if decide.view_id <= self.view_id:
            return
        was_joining = self.joining
        targets = dict(decide.targets)
        joined = tuple(m for m in decide.joined if m in decide.members)
        resume = self._resume_points(decide, joined)
        departed = set(self.members) - set(decide.members)
        self.view_id = decide.view_id
        self.members = tuple(sorted(decide.members))
        self.joining = False
        self.peer_view[self.member_id] = self.view_id
        addresses = {
            m: self.addresses[m] for m in self.members if m in self.addresses
        }
        for origin in departed:
            self.reliable.note_departed_top(origin, targets.get(origin, 0))
        self.reliable.reset_membership(addresses)
        if was_joining:
            # Our windows are empty: skip every origin's garbage-collected
            # history (the snapshot covers its effects) and resume our own
            # numbering above anything our previous incarnations used.
            for origin in self.members:
                self.reliable.fast_forward_origin(
                    origin, resume.get(origin, targets.get(origin, 0))
                )
        else:
            for origin in joined:
                # A (re)admitted origin restarts with empty state: drop
                # its old stream's window and expect its new incarnation
                # to number from above everything the group ever saw.
                self.reliable.reset_origin(origin)
                self.reliable.fast_forward_origin(origin, resume[origin])
                self.reliable.pool.purge_origin_above(origin, resume[origin])
            self.reliable.suspected -= set(joined)
        self.total_order.install_view(
            decide.view_id,
            self.members,
            targets,
            decide.assignments,
            decide.pending,
        )
        self.state = self.STABLE
        self._proposal_view = max(self._proposal_view, self.view_id)
        if not self.blocked:
            self.reliable.thaw()
        self.stats["view_changes"] += 1
        if self.monitor is not None:
            self.monitor.view(
                self.view_id,
                self.members,
                joined,
                targets,
                self.reliable.contiguous_vector(),
            )
        self.on_view_change(self.view_id, self.members, joined)

    @staticmethod
    def _resume_points(
        decide: DecideMsg, joined: Tuple[int, ...]
    ) -> Dict[int, int]:
        """Where a (re)joined origin's FIFO numbering resumes: above its
        flush target *and* above every sequence number any assignment
        ever referenced — deterministic from the DECIDE alone, so every
        member (including the joiner itself) computes the same point."""
        resume = {j: 0 for j in joined}
        targets = dict(decide.targets)
        for j in joined:
            resume[j] = targets.get(j, 0)
        for _, origin, seq in decide.assignments:
            if origin in resume and seq > resume[origin]:
                resume[origin] = seq
        return resume
