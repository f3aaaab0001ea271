"""View-synchronous reliable multicast (paper §3.4, bottom layer).

Message flow follows the paper's two-phase design:

1. **dissemination** — messages go out over IP multicast on the LAN,
   or as a unicast to each entry of a destination list where the
   runtime has no IP multicast (the native runtime); initial
   transmissions are paced by the rate-based flow control;
2. **reliability** — a window-based, receiver-initiated mechanism:
   receivers detect sequence gaps and NACK the origin (or any live
   member once the origin is suspected); every member buffers every
   message until the gossip-based stability detector declares it
   received by all, so anyone can serve a retransmission.

Fairness gives each origin a fixed share of the buffer pool; a sender
whose share is full must wait for garbage collection before transmitting
new messages — this queue is observable via :attr:`ReliableMulticast.blocked_sends`
and is the bottleneck the paper exposes under random loss (§5.3).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Tuple

from ..core.runtime_api import ProtocolRuntime
from .config import (
    NACK_BATCH,
    NACK_PER_MESSAGE_COST,
    NACK_PROCESSING_COST,
    RETRANSMIT_PROCESSING_COST,
    SEND_BURST,
    SEND_RATE,
    GcsConfig,
)
from .flowcontrol import TokenBucket
from .messages import DataMsg, NackMsg, marshal, pack_data
from .window import BufferPool, ReceiveWindow

__all__ = ["ReliableMulticast"]

FifoDeliver = Callable[[int, int, bytes], None]


class ReliableMulticast:
    """One member's reliable-multicast endpoint.

    The stack above registers ``on_fifo_deliver(origin, seq, payload)``;
    deliveries are per-origin FIFO with no cross-origin ordering (total
    order is the next layer up).  Incoming wire messages are dispatched
    to :meth:`handle_data` / :meth:`handle_nack` by the stack.
    """

    def __init__(
        self,
        runtime: ProtocolRuntime,
        member_id: int,
        members: Dict[int, object],
        group_dest: object,
        config: GcsConfig,
    ):
        self.runtime = runtime
        self.member_id = member_id
        self.group_dest = group_dest
        self.config = config
        self.pool = BufferPool(share=self.config.buffer_share)
        self.bucket = TokenBucket(SEND_RATE, SEND_BURST)
        self.windows: Dict[int, ReceiveWindow] = {}
        self._delivered_up_to: Dict[int, int] = {}
        self._install_members(members, fresh=True)
        self.on_fifo_deliver: Optional[FifoDeliver] = None
        #: Origins currently considered crashed: NACKs for their messages
        #: are redirected to live members.
        self.suspected: set = set()
        #: Final flush target of each departed origin (from the DECIDE,
        #: so identical at every member).  Folded into the contiguous
        #: vector so a later merge view resumes the origin's numbering
        #: above its *entire* old stream — assigned or not.
        self._departed_tops: Dict[int, int] = {}
        self._next_seq = 0
        self._blocked: Deque[bytes] = deque()
        self._frozen = False
        self._nack_timers: Dict[int, object] = {}
        self.stats = {
            "sent": 0,
            "retransmits_served": 0,
            "nacks_sent": 0,
            "duplicates": 0,
            "blocked_events": 0,
            "blocked_time": 0.0,
        }
        self._blocked_since: Optional[float] = None

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------
    def _install_members(self, members: Dict[int, object], fresh: bool) -> None:
        """Adopt ``members`` as the current membership view.

        The single place the membership map is copied and the per-origin
        windows/delivery cursors are kept in step with it.  With
        ``fresh`` every window is rebuilt from scratch (initial start,
        rejoin with empty state); otherwise surviving origins keep their
        windows, departed ones are dropped (their flushed messages were
        already delivered) and newcomers start clean.
        """
        self.members = dict(members)
        if fresh:
            self.windows = {m: ReceiveWindow() for m in self.members}
            self._delivered_up_to = {m: 0 for m in self.members}
            return
        for origin in list(self.windows):
            if origin not in members:
                del self.windows[origin]
                self._delivered_up_to.pop(origin, None)
        for origin in members:
            self.windows.setdefault(origin, ReceiveWindow())
            self._delivered_up_to.setdefault(origin, 0)

    # ------------------------------------------------------------------
    # sending
    # ------------------------------------------------------------------
    def multicast(self, payload: bytes) -> None:
        """Reliably multicast ``payload`` to the group (including self).

        If the member's buffer share is exhausted or a view change is in
        progress the message is queued and sent when space/thaw arrives.
        """
        if self._frozen or self._blocked or not self.pool.has_room(self.member_id):
            if self._blocked_since is None:
                self._blocked_since = self.runtime.now()
                self.stats["blocked_events"] += 1
            self._blocked.append(payload)
            return
        self._transmit(payload)

    @property
    def blocked_sends(self) -> int:
        return len(self._blocked)

    def _transmit(self, payload: bytes) -> None:
        self._next_seq += 1
        seq = self._next_seq
        self.pool.store(self.member_id, seq, payload)
        wire = pack_data(self.member_id, 0, seq, payload)
        delay = self.bucket.reserve(self.runtime.now())
        if delay > 0:
            self.runtime.schedule(delay, self._send_wire, wire)
        else:
            self._send_wire(wire)
        self.stats["sent"] += 1
        # Self-delivery: our own message joins the FIFO stream directly.
        self._accept(self.member_id, seq, payload)

    def _send_wire(self, wire: bytes) -> None:
        self.runtime.send(self.group_dest, wire)

    def _drain_blocked(self) -> None:
        while (
            self._blocked
            and not self._frozen
            and self.pool.has_room(self.member_id)
        ):
            self._transmit(self._blocked.popleft())
        if not self._blocked and self._blocked_since is not None:
            self.stats["blocked_time"] += self.runtime.now() - self._blocked_since
            self._blocked_since = None

    # ------------------------------------------------------------------
    # receiving
    # ------------------------------------------------------------------
    def handle_data(self, msg: DataMsg) -> None:
        origin = msg.sender
        window = self.windows.get(origin)
        if window is None:
            return  # departed member: view synchrony discards its traffic
        if msg.retransmit:
            # the out-of-order recovery path is measurably heavier than
            # the fast path in the prototype (Figure 7(c))
            self.runtime.charge(RETRANSMIT_PROCESSING_COST)
        if not window.receive(msg.seq):
            self.stats["duplicates"] += 1
            return
        self.pool.store(origin, msg.seq, msg.payload)
        self._deliver_ready(origin)
        # Only an out-of-order arrival can have a gap below it.
        if window.pending and window.gaps():
            self._arm_nack_timer(origin)

    def handle_nack(self, msg: NackMsg) -> None:
        """Serve a retransmission request from our buffer pool.

        Any member holding the message may serve it (buffers hold all
        unstable messages), which keeps recovery working after the
        origin crashes."""
        requester = self.members.get(msg.sender)
        if requester is None:
            return
        self.runtime.charge(
            NACK_PROCESSING_COST + NACK_PER_MESSAGE_COST * len(msg.missing)
        )
        for seq in msg.missing:
            payload = self.pool.get(msg.origin, seq)
            if payload is None:
                continue
            again = pack_data(msg.origin, 0, seq, payload, retransmit=True)
            self.runtime.send(requester, again)
            self.stats["retransmits_served"] += 1

    def _accept(self, origin: int, seq: int, payload: bytes) -> None:
        window = self.windows[origin]
        window.receive(seq)
        self.pool.store(origin, seq, payload)
        self._deliver_ready(origin)

    def _deliver_ready(self, origin: int) -> None:
        window = self.windows[origin]
        while self._delivered_up_to[origin] < window.contiguous:
            seq = self._delivered_up_to[origin] + 1
            payload = self.pool.get(origin, seq)
            assert payload is not None, (
                f"member {self.member_id}: message ({origin}, {seq}) "
                "reached the contiguous prefix but is not buffered — "
                "stability must never collect undelivered messages"
            )
            self._delivered_up_to[origin] = seq
            if self.on_fifo_deliver is not None:
                self.on_fifo_deliver(origin, seq, payload)

    # ------------------------------------------------------------------
    # gap recovery
    # ------------------------------------------------------------------
    def _arm_nack_timer(self, origin: int) -> None:
        if origin in self._nack_timers:
            return
        handle = self.runtime.schedule(
            self.config.nack_timeout, self._nack_fire, origin
        )
        self._nack_timers[origin] = handle

    def _nack_fire(self, origin: int) -> None:
        self._nack_timers.pop(origin, None)
        window = self.windows.get(origin)
        if window is None:
            return
        missing = window.gaps(NACK_BATCH)
        if not missing:
            return
        target = self._retransmission_source(origin)
        if target is not None:
            nack = NackMsg(self.member_id, 0, origin, tuple(missing))
            self.runtime.send(target, marshal(nack))
            self.stats["nacks_sent"] += 1
        self._arm_nack_timer(origin)

    def request_catchup(self, origin: int, up_to: int) -> None:
        """Explicitly request everything missing from ``origin`` up to
        ``up_to`` (used by the view-change flush)."""
        window = self.windows.get(origin)
        if window is None:
            return
        missing = [
            seq
            for seq in range(window.contiguous + 1, up_to + 1)
            if not window.has(seq)
        ]
        for start in range(0, len(missing), NACK_BATCH):
            chunk = tuple(missing[start : start + NACK_BATCH])
            target = self._retransmission_source(origin)
            if target is not None and chunk:
                self.runtime.send(
                    target, marshal(NackMsg(self.member_id, 0, origin, chunk))
                )
                self.stats["nacks_sent"] += 1
        if missing:
            self._arm_nack_timer(origin)

    def _retransmission_source(self, origin: int):
        """The origin itself, or — once it is suspected — the next live
        member (rotating by NACK count so load spreads)."""
        if origin not in self.suspected and origin in self.members:
            return self.members[origin]
        live = [
            m
            for m in sorted(self.members)
            if m != self.member_id and m not in self.suspected
        ]
        if not live:
            return None
        return self.members[live[self.stats["nacks_sent"] % len(live)]]

    # ------------------------------------------------------------------
    # stability integration
    # ------------------------------------------------------------------
    def contiguous_vector(self) -> Dict[int, int]:
        """Per-origin contiguous reception prefix (the stability vote).

        Departed origins report their final flush top: their history is
        fully received as far as the group is concerned, and a merge
        view's targets must resume above it."""
        vector = {m: w.contiguous for m, w in self.windows.items()}
        for origin, top in self._departed_tops.items():
            if vector.get(origin, 0) < top:
                vector[origin] = top
        return vector

    def departed_top(self, origin: int) -> int:
        """Final flush target of ``origin`` if it departed, else 0."""
        return self._departed_tops.get(origin, 0)

    def collect_stable(self, stable: Dict[int, int]) -> int:
        """Garbage-collect messages stable at all members; unblocks
        senders waiting on their buffer share."""
        freed = self.pool.collect(stable)
        if freed:
            self._drain_blocked()
        return freed

    # ------------------------------------------------------------------
    # rejoin (state transfer)
    # ------------------------------------------------------------------
    def reset_for_rejoin(self, members: Dict[int, object]) -> None:
        """Restart with empty volatile state ahead of a rejoin.

        Frozen until the merge view installs; the windows are recreated
        and fast-forwarded at install time, and our own FIFO numbering
        restarts at zero to be resumed above everything the group ever
        saw from our previous incarnations (see
        :meth:`fast_forward_origin`)."""
        self._install_members(members, fresh=True)
        self.pool = BufferPool(share=self.config.buffer_share)
        self.suspected = set()
        self._departed_tops = {}
        self._next_seq = 0
        self._blocked.clear()
        self._blocked_since = None
        self._frozen = True
        for handle in self._nack_timers.values():
            handle.cancel()
        self._nack_timers = {}

    def fast_forward_origin(self, origin: int, seq: int) -> None:
        """Skip ``origin``'s stream up to ``seq``: received-but-undeliverable
        history whose effects arrive via state transfer instead.  For our
        own origin this also moves the send numbering past every sequence
        number any previous incarnation ever used, so incarnations can
        never collide in windows, buffers or assignments."""
        window = self.windows.setdefault(origin, ReceiveWindow())
        window.fast_forward(seq)
        self._departed_tops.pop(origin, None)
        if self._delivered_up_to.get(origin, 0) < seq:
            self._delivered_up_to[origin] = seq
        if origin == self.member_id and self._next_seq < seq:
            self._next_seq = seq

    def reset_origin(self, origin: int) -> None:
        """Forget everything about ``origin``'s stream (a member
        readmitted with empty state restarts its numbering above its
        flush target, so the old window must not NACK the gap)."""
        self.windows[origin] = ReceiveWindow()
        self._delivered_up_to[origin] = 0
        timer = self._nack_timers.pop(origin, None)
        if timer is not None:
            timer.cancel()

    # ------------------------------------------------------------------
    # view-change hooks
    # ------------------------------------------------------------------
    def freeze(self) -> None:
        """Stop initiating new multicasts (view change in progress)."""
        self._frozen = True

    def thaw(self) -> None:
        self._frozen = False
        self._drain_blocked()

    def note_departed_top(self, origin: int, top: int) -> None:
        """Record a departed origin's final flush target (from the
        DECIDE — deterministic) ahead of :meth:`reset_membership`."""
        if top > self._departed_tops.get(origin, 0):
            self._departed_tops[origin] = top

    def reset_membership(self, members: Dict[int, object]) -> None:
        """Install the new view's membership: departed origins' windows
        are dropped (their flushed messages were already delivered)."""
        self._install_members(members, fresh=False)
        # Suspicions about departed members are moot once the view drops
        # them; members retained by the view get a clean slate too.
        self.suspected &= set(members)
