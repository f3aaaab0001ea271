"""Fixed-sequencer total order (paper §3.4, top layer).

One site — the lowest member id of the current view — issues sequence
numbers for messages; other sites buffer FIFO-delivered messages and
deliver them in the assigned global order.  View synchrony ensures a
single sequencer is easily chosen and replaced when it fails.

Assignments travel as SEQUENCE messages *through the reliable multicast
itself* (batched over a small window), which is exactly why the
sequencer multicasts far more messages than anyone else and is the first
to exhaust its buffer share when stability detection stalls under
random loss — the paper's §5.3 diagnosis, reproduced here measurably via
:attr:`ReliableMulticast.stats` and :attr:`TotalOrder.stats`.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from ..core.runtime_api import ProtocolRuntime
from .config import GcsConfig
from .messages import SequenceMsg, marshal, unmarshal_cached
from .reliable import ReliableMulticast

__all__ = ["TotalOrder", "TAG_APP", "TAG_SEQ"]

#: Inner-payload tags: application data vs. sequencer assignments.
TAG_APP = 0
TAG_SEQ = 1

ToDeliver = Callable[[int, int, int, bytes], None]


class TotalOrder:
    """Total-order session on top of :class:`ReliableMulticast`."""

    def __init__(
        self,
        runtime: ProtocolRuntime,
        member_id: int,
        members: Tuple[int, ...],
        reliable: ReliableMulticast,
        config: GcsConfig,
    ):
        self.runtime = runtime
        self.member_id = member_id
        self.members = tuple(sorted(members))
        self.reliable = reliable
        self.config = config
        reliable.on_fifo_deliver = self._on_fifo
        #: Callback: (global_seq, origin, origin_seq, app_payload).
        self.on_to_deliver: Optional[ToDeliver] = None
        #: The installed view this session is operating in; SEQUENCE
        #: messages are stamped with it so assignments racing a view
        #: change cannot leak stale global numbers into the new view.
        self.view_id = 1
        #: global_seq -> (origin, origin_seq); authoritative order.
        self.assignments: Dict[int, Tuple[int, int]] = {}
        #: (origin, origin_seq) -> app payload, held until ordered.
        self.held: Dict[Tuple[int, int], bytes] = {}
        self._assigned: set = set()  # (origin, seq) pairs already ordered
        self._next_deliver = 1
        self._next_global = 1
        #: While True (a state-transfer joiner before its snapshot is
        #: installed, or a member blocked in a minority partition) no
        #: message is delivered to the application; everything keeps
        #: accumulating in ``held``/``assignments``.
        self.gated = False
        self._batch: List[Tuple[int, int, int]] = []
        self._batch_timer_armed = False
        #: Invariant-monitoring probe (observe-only; None when off).
        self.monitor = None
        self.stats = {
            "to_delivered": 0,
            "sequence_msgs": 0,
            "max_hold": 0,
            "install_assigned": 0,
        }

    # ------------------------------------------------------------------
    @property
    def sequencer_id(self) -> int:
        return self.members[0]

    @property
    def is_sequencer(self) -> bool:
        return self.member_id == self.sequencer_id

    def multicast(self, payload: bytes) -> None:
        """Atomically multicast ``payload``: reliable + totally ordered."""
        self.reliable.multicast(bytes([TAG_APP]) + payload)

    # ------------------------------------------------------------------
    # FIFO stream from the reliable layer
    # ------------------------------------------------------------------
    def _on_fifo(self, origin: int, seq: int, payload: bytes) -> None:
        tag = payload[0]
        body = payload[1:]
        if tag == TAG_APP:
            key = (origin, seq)
            self.held[key] = body
            if len(self.held) > self.stats["max_hold"]:
                self.stats["max_hold"] = len(self.held)
            # is_sequencer, in place
            if self.member_id == self.members[0] and key not in self._assigned:
                self._queue_assignment(origin, seq)
            self._try_deliver()
        elif tag == TAG_SEQ:
            # Every member decodes the same assignment batch; the memo
            # makes all but the first decode a dict probe.
            msg = unmarshal_cached(body)
            if msg.view_id < self.view_id:
                return  # stale assignments from a superseded view
            self._adopt_assignments(msg.assignments)
            self._try_deliver()

    # ------------------------------------------------------------------
    # sequencer role
    # ------------------------------------------------------------------
    def _queue_assignment(self, origin: int, seq: int) -> None:
        # _record_assignment advances _next_global past the new global.
        self._batch.append((self._next_global, origin, seq))
        self._record_assignment(self._next_global, origin, seq)
        if not self._batch_timer_armed:
            self._batch_timer_armed = True
            self.runtime.schedule(
                self.config.sequence_batch_interval, self._flush_batch
            )

    def _flush_batch(self) -> None:
        self._batch_timer_armed = False
        if not self._batch:
            return
        batch, self._batch = self._batch, []
        msg = SequenceMsg(self.member_id, self.view_id, tuple(batch))
        self.reliable.multicast(bytes([TAG_SEQ]) + marshal(msg))
        self.stats["sequence_msgs"] += 1

    # ------------------------------------------------------------------
    # ordered delivery
    # ------------------------------------------------------------------
    def _adopt_assignments(
        self, triples: Tuple[Tuple[int, int, int], ...]
    ) -> None:
        for global_seq, origin, seq in triples:
            self._record_assignment(global_seq, origin, seq)

    def _record_assignment(self, global_seq: int, origin: int, seq: int) -> None:
        existing = self.assignments.get(global_seq)
        if existing is not None and existing != (origin, seq):
            raise AssertionError(
                f"member {self.member_id}: conflicting assignment for "
                f"global {global_seq}: {existing} vs {(origin, seq)}"
            )
        self.assignments[global_seq] = (origin, seq)
        self._assigned.add((origin, seq))
        # Non-sequencer members track the global counter so a later
        # sequencer handoff continues from the right number.
        if global_seq >= self._next_global:
            self._next_global = global_seq + 1

    def _try_deliver(self) -> None:
        if self.gated:
            return
        while True:
            key = self.assignments.get(self._next_deliver)
            if key is None:
                return
            payload = self.held.get(key)
            if payload is None:
                return
            del self.held[key]
            global_seq = self._next_deliver
            self._next_deliver += 1
            self.stats["to_delivered"] += 1
            if self.monitor is not None:
                self.monitor.ordered(global_seq, key[0], key[1])
            if self.on_to_deliver is not None:
                self.on_to_deliver(global_seq, key[0], key[1], payload)

    # ------------------------------------------------------------------
    # view-change hooks
    # ------------------------------------------------------------------
    def install_view(
        self,
        view_id: int,
        members: Tuple[int, ...],
        targets: Dict[int, int],
        decided: Tuple[Tuple[int, int, int], ...] = (),
        pending: Tuple[Tuple[int, int], ...] = (),
    ) -> None:
        """Adopt the new view after the flush completed.

        The flush guarantees every survivor holds the identical set of
        messages up to ``targets``, and ``decided`` — the DECIDE's
        assignment union — is the authoritative assignment knowledge of
        the new view.  Four deterministic steps run identically at every
        member (including a state-transfer joiner, whose only assignment
        knowledge *is* the DECIDE):

        1. **reconcile** — locally adopted assignments above the
           delivered prefix that are missing from the union (SEQUENCE
           messages racing the flush) are discarded, and the union is
           (re-)adopted, so every member's assignment state equals the
           union exactly;
        2. **drop** — assignments referencing messages beyond a departed
           origin's target are unrecoverable (nobody buffers the
           message) and are dropped;
        3. **compact** — global numbers above the delivered prefix are
           renumbered gap-free;
        4. **assign** — the flushed application messages the union left
           unassigned (the DECIDE's ``pending`` set) receive the next
           global numbers in (origin, seq) order, *locally at every
           member* — no SEQUENCE round-trip, and a joiner that cannot
           see the payloads still computes the same numbering.
        """
        departed = set(self.members) - set(members)
        self.members = tuple(sorted(members))
        self.view_id = view_id
        # 1. Reconcile with the authoritative union.
        union = set(decided)
        if decided:
            stale = [
                g
                for g, (origin, seq) in self.assignments.items()
                if g >= self._next_deliver and (g, origin, seq) not in union
            ]
            for g in stale:
                self._assigned.discard(self.assignments.pop(g))
            for g, origin, seq in decided:
                self._record_assignment(g, origin, seq)
        # 2. Drop assignments that can never be satisfied.
        droppable = [
            g
            for g, (origin, seq) in self.assignments.items()
            if origin in departed and seq > targets.get(origin, 0)
        ]
        for g in droppable:
            origin_seq = self.assignments.pop(g)
            self._assigned.discard(origin_seq)
        # 3. Compact global numbers above the delivered prefix.
        kept = sorted(g for g in self.assignments if g >= self._next_deliver)
        remap: Dict[int, Tuple[int, int]] = {}
        next_global = self._next_deliver
        for g in kept:
            remap[next_global] = self.assignments.pop(g)
            next_global += 1
        self.assignments.update(remap)
        self._next_global = next_global
        # Forget held messages from departed origins beyond their target.
        for (origin, seq) in list(self.held):
            if origin in departed and seq > targets.get(origin, 0):
                del self.held[(origin, seq)]
        # 4. Deterministic assignment of flushed-but-unassigned app
        #    messages.  Unrecoverable ones (departed origin beyond its
        #    target) are skipped like step 2 skips their assignments.
        for origin, seq in sorted(pending):
            if origin in departed and seq > targets.get(origin, 0):
                continue
            if (origin, seq) not in self._assigned:
                self._record_assignment(self._next_global, origin, seq)
                self.stats["install_assigned"] += 1
        self._try_deliver()

    # ------------------------------------------------------------------
    # rejoin (state transfer)
    # ------------------------------------------------------------------
    def reset_for_rejoin(self) -> None:
        """Restart with empty volatile state, gated: assignments and
        payloads accumulate from the merge view's DECIDE onwards, but
        nothing is delivered until :meth:`open_gate` replays the backlog
        above the snapshot's cut."""
        self.view_id = 0
        self.assignments = {}
        self.held = {}
        self._assigned = set()
        self._next_deliver = 1
        self._next_global = 1
        self.gated = True
        self._batch = []
        self._batch_timer_armed = False

    def open_gate(self, next_deliver: int) -> int:
        """Adopt the snapshot's delivery cut and replay the backlog.

        Everything the group delivered before ``next_deliver`` is
        covered by the snapshot; buffered traffic at or above it is
        delivered now, in order.  Returns the number of backlog
        messages replayed."""
        before = self.stats["to_delivered"]
        if next_deliver > self._next_deliver:
            # Payloads at globals below the cut were delivered inside
            # the snapshot; drop them from the hold buffer.
            for g in range(self._next_deliver, next_deliver):
                key = self.assignments.get(g)
                if key is not None:
                    self.held.pop(key, None)
            self._next_deliver = next_deliver
        if self._next_global < self._next_deliver:
            self._next_global = self._next_deliver
        self.gated = False
        self._try_deliver()
        return self.stats["to_delivered"] - before
