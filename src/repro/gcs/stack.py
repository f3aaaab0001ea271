"""The assembled group communication stack (paper §3.4).

:class:`GroupCommunication` is the facade the replication protocols
use: an **atomic multicast** primitive (reliable + totally ordered),
view change notifications, and the rejoin/state-transfer machinery.  It
wires together the reliable multicast, the fixed-sequencer total order,
gossip stability detection, the view manager and the state-transfer
endpoint, and dispatches incoming datagrams by wire type.

Application messages larger than the protocol's safe packet size are
fragmented here and reassembled after total-order delivery: fragments
receive consecutive positions in the global order, and since every
member sees the same order, every member completes each message at the
same point in the delivery sequence — atomicity is preserved.

Rejoin support (see :mod:`repro.gcs.statetransfer`): :meth:`rejoin`
resets the stack to an empty-state outsider that announces itself and
re-enters through a merge view; the snapshot a donor serves is composed
here (the total-order delivery cut) plus whatever the replication
protocol contributes through :attr:`snapshot_provider` /
:attr:`snapshot_installer`.
"""

from __future__ import annotations

import pickle
import struct
from typing import Callable, Dict, Optional, Tuple

from ..core.runtime_api import ProtocolRuntime
from .config import GcsConfig
from .messages import (
    DATA,
    DECIDE,
    FLUSH_ACK,
    HEARTBEAT,
    NACK,
    PROPOSE,
    SEQUENCE,
    STABILITY,
    STATE,
    STATE_REQ,
    MarshalError,
    marshal,
    unmarshal_cached,
)
from .reliable import ReliableMulticast
from .sequencer import TotalOrder
from .stability import StabilityState
from .statetransfer import StateTransfer
from .views import ViewManager

__all__ = ["GroupCommunication"]

#: Fragment header: message group id, fragment index, fragment count.
_FRAG = struct.Struct("<QHH")

Deliver = Callable[[int, int, bytes], None]
ViewChange = Callable[[int, Tuple[int, ...]], None]


class GroupCommunication:
    """Atomic multicast endpoint for one group member."""

    def __init__(
        self,
        runtime: ProtocolRuntime,
        member_id: int,
        members: Dict[int, object],
        group_dest: object,
        config: Optional[GcsConfig] = None,
    ):
        self.runtime = runtime
        self.member_id = member_id
        self.config = config or GcsConfig()
        self.reliable = ReliableMulticast(
            runtime, member_id, members, group_dest, self.config
        )
        self.total_order = TotalOrder(
            runtime, member_id, tuple(members), self.reliable, self.config
        )
        self.stability = StabilityState(member_id, tuple(members))
        self.views = ViewManager(
            runtime,
            member_id,
            members,
            self.reliable,
            self.total_order,
            group_dest,
            self.config,
            on_view_change=self._view_installed,
        )
        self.transfer = StateTransfer(
            runtime, member_id, members, self.config
        )
        self.transfer.capture = self._capture_snapshot
        self.transfer.install = self._install_snapshot
        self.transfer.candidates = self._donor_candidates
        self.transfer.on_live = self._on_live
        #: Application callback: (global_seq, origin, payload).
        self.on_deliver: Optional[Deliver] = None
        #: Invariant-monitoring probe (observe-only; None when off).
        self.monitor = None
        #: Application callback: (view_id, members).
        self.on_view_change: Optional[ViewChange] = None
        #: Replication-protocol hooks for state transfer: the provider
        #: returns the protocol's snapshot metadata (a plain dict), the
        #: installer adopts one and returns its orphaned-commit count.
        self.snapshot_provider: Optional[Callable[[], Dict[str, object]]] = None
        self.snapshot_installer: Optional[
            Callable[[Dict[str, object]], int]
        ] = None
        #: Fired when a rejoin completes (snapshot installed, backlog
        #: replayed, member live).
        self.on_live: Optional[Callable[[], None]] = None
        #: Fired when the stack discovers the group excluded this member
        #: while it was alive (partition healed, false suspicion): the
        #: owner must reset the replication protocol and call
        #: ``rejoin(silent=False)``.
        self.on_excluded: Optional[Callable[[], None]] = None
        self._outdated_since: Optional[float] = None
        #: Wire source address -> member id: whom a datagram was heard from.
        self._endpoint_ids = {addr: i for i, addr in members.items()}
        self._frag_group = 0
        self._reassembly: Dict[Tuple[int, int], list] = {}
        self._started = False
        self._epoch = 0
        self._last_joined: Tuple[int, ...] = ()
        self.stats = {
            "fragments_sent": 0,
            "messages_multicast": 0,
            "delivered": 0,
            "rejoins": 0,
        }
        self.total_order.on_to_deliver = self._on_ordered
        runtime.set_receiver(self._on_wire)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin heartbeats and stability gossip."""
        if self._started:
            return
        self._started = True
        self._epoch += 1
        self.views.start()
        self.runtime.schedule(
            self.config.stability_interval, self._stability_tick, self._epoch
        )

    def rejoin(self, silent: bool = True) -> None:
        """Reset to an empty-state outsider and re-enter the group.

        The volatile protocol state of the previous incarnation —
        windows, buffers, held messages, assignments, membership — is
        discarded (a restarted process has none of it); the member
        announces itself, re-enters through a merge view with its
        receive windows fast-forwarded past the garbage-collected
        history, and goes live once a state-transfer snapshot covers
        that history's effects.  ``silent=False`` skips the announcement
        silence window — only valid when the group has provably already
        excluded this member (the exclusion-detection path).
        """
        self.stats["rejoins"] += 1
        self._reassembly.clear()
        self._outdated_since = None
        self.reliable.reset_for_rejoin(self.views.addresses)
        self.total_order.reset_for_rejoin()
        self.stability = StabilityState(self.member_id, (self.member_id,))
        self.transfer.begin_rejoin()
        self.views.reset_for_rejoin(silent=silent)
        self._started = False
        self.start()

    @property
    def view_id(self) -> int:
        return self.views.view_id

    @property
    def members(self) -> Tuple[int, ...]:
        return self.views.members

    @property
    def is_sequencer(self) -> bool:
        return self.total_order.is_sequencer

    @property
    def live(self) -> bool:
        """False while this member is (re)joining: between a
        :meth:`rejoin` and the completion of its state transfer the
        stack orders traffic but delivers nothing."""
        return not (self.views.joining or self.transfer.transferring)

    # ------------------------------------------------------------------
    # sending
    # ------------------------------------------------------------------
    def multicast(self, payload: bytes) -> None:
        """Atomically multicast ``payload`` to the group.

        Large payloads are fragmented below the safe packet size; the
        group delivers the reassembled message exactly once, in total
        order, at every operational member."""
        self.stats["messages_multicast"] += 1
        limit = self.config.max_packet
        if len(payload) <= limit:
            self.total_order.multicast(_FRAG.pack(0, 0, 1) + payload)
            return
        self._frag_group += 1
        chunks = [payload[i : i + limit] for i in range(0, len(payload), limit)]
        for index, chunk in enumerate(chunks):
            header = _FRAG.pack(self._frag_group, index, len(chunks))
            self.total_order.multicast(header + chunk)
            self.stats["fragments_sent"] += 1

    # ------------------------------------------------------------------
    # receiving
    # ------------------------------------------------------------------
    def _on_wire(self, source: object, buffer: bytes) -> None:
        try:
            # Cached decode: the same multicast buffer arrives at every
            # member, so only the first receiver pays for the parse.
            msg = unmarshal_cached(buffer)
        except MarshalError:
            return  # corrupt datagram: drop, reliability recovers
        kind = msg.msg_type
        views = self.views
        physical = self._endpoint_ids.get(source)
        if physical is not None:
            views.note_heard(physical, msg.view_id, kind == HEARTBEAT)
            # _detect_exclusion's own first test: most traffic stops here.
            if msg.view_id > views.view_id and self._detect_exclusion(msg.view_id):
                return  # traffic from a view we are not part of
        if views.joining and kind in (DATA, NACK, STABILITY):
            # An outsider has no window/round context for group traffic;
            # it only speaks the membership and state-transfer protocols
            # until the merge view installs.
            return
        if kind == DATA:
            self.reliable.handle_data(msg)
            # maybe_complete_sync's own first test: a sync to complete?
            if views.state == ViewManager.SYNCING:
                views.maybe_complete_sync()
        elif kind == NACK:
            self.reliable.handle_nack(msg)
        elif kind == STABILITY:
            self.stability.merge(msg)
            self.reliable.collect_stable(self.stability.stable)
            self._catchup_from_gossip(msg)
        elif kind == HEARTBEAT:
            pass  # note_heard above is the whole effect
        elif kind == PROPOSE:
            self.views.handle_propose(msg)
        elif kind == FLUSH_ACK:
            self.views.handle_flush_ack(msg)
        elif kind == DECIDE:
            self.views.handle_decide(msg)
        elif kind == STATE_REQ:
            self.transfer.handle_request(msg)
        elif kind == STATE:
            self.transfer.handle_state(msg)

    def _detect_exclusion(self, peer_view_id: int) -> bool:
        """Exclusion detection: a *member* of a higher view always ends
        up installing it (the coordinator retransmits the DECIDE until
        every member adopts), so persistently hearing higher-view
        traffic while stable — with no view change of our own in
        progress — proves the group excluded us while we were alive
        (partition healed, false suspicion).  Triggers ``on_excluded``
        so the owner resets us into the rejoin path."""
        views = self.views
        if (
            peer_view_id <= views.view_id
            or views.joining
            or views.state != ViewManager.STABLE
        ):
            return False
        now = self.runtime.now()
        if self._outdated_since is None:
            self._outdated_since = now
            return False
        if now - self._outdated_since <= self.config.suspect_after:
            return False
        self._outdated_since = None
        if self.on_excluded is not None:
            self.on_excluded()
            return True
        return False

    def _on_ordered(self, global_seq: int, origin: int, seq: int, payload: bytes) -> None:
        group, index, count = _FRAG.unpack_from(payload)
        body = payload[_FRAG.size :]
        if count == 1:
            self._deliver(global_seq, origin, body)
            return
        key = (origin, group)
        parts = self._reassembly.get(key)
        if parts is None:
            parts = self._reassembly[key] = [None] * count
        parts[index] = body
        if None not in parts:
            del self._reassembly[key]
            self._deliver(global_seq, origin, b"".join(parts))

    def _deliver(self, global_seq: int, origin: int, payload: bytes) -> None:
        self.stats["delivered"] += 1
        if self.monitor is not None:
            self.monitor.deliver(global_seq, origin)
        if self.on_deliver is not None:
            self.on_deliver(global_seq, origin, payload)

    # ------------------------------------------------------------------
    # stability gossip
    # ------------------------------------------------------------------
    def _stability_tick(self, epoch: int = 0) -> None:
        if epoch and epoch != self._epoch:
            return  # superseded incarnation's chain
        self.runtime.schedule(
            self.config.stability_interval, self._stability_tick, epoch
        )
        if self.views.joining:
            return  # outsiders have no reception state to gossip
        self.stability.vote(self.reliable.contiguous_vector())
        self.reliable.collect_stable(self.stability.stable)
        self.runtime.send(
            self.reliable.group_dest,
            marshal(self.stability.snapshot(self.views.view_id)),
        )

    def _catchup_from_gossip(self, msg) -> None:
        """Tail-loss detection: gossip reveals sequence numbers peers
        have received that we never saw.  Gap-driven NACKs only cover
        holes *below* a later arrival; when the newest messages from an
        origin are lost there is no later arrival, and this — learning
        reception state from the stability rounds — is what recovers
        them (Guo's protocol uses its gossip the same way)."""
        reliable = self.reliable
        windows = reliable.windows
        for origin, peer_has in zip(self.stability.members, msg.mins):
            window = windows.get(origin)
            if (
                (window is None or peer_has > window.contiguous)
                and peer_has < (1 << 62)  # neutral element: peer not voted
                and peer_has > reliable.departed_top(origin)
            ):
                reliable.request_catchup(origin, peer_has)

    # ------------------------------------------------------------------
    def _view_installed(
        self, view_id: int, members: Tuple[int, ...], joined: Tuple[int, ...]
    ) -> None:
        self._last_joined = joined
        self._outdated_since = None
        self.stability.reset_membership(members)
        if self.member_id in joined:
            self.transfer.start_transfer()
        if self.on_view_change is not None:
            self.on_view_change(view_id, members)

    # ------------------------------------------------------------------
    # state transfer (rejoin)
    # ------------------------------------------------------------------
    def _donor_candidates(self) -> Tuple[int, ...]:
        """Donor preference order: established members first, freshly
        joined ones (who would refuse) last."""
        members = [m for m in self.views.members if m != self.member_id]
        established = [m for m in members if m not in self._last_joined]
        joined = [m for m in members if m in self._last_joined]
        return tuple(established + joined)

    def _capture_snapshot(self) -> Optional[bytes]:
        """Donor side: a consistent cut of this member's delivered state.

        Runs synchronously inside the STATE_REQ receive job — between
        total-order deliveries — so the protocol metadata corresponds
        exactly to the delivery position.  A member that is itself
        (re)joining refuses (returns None)."""
        if self.views.joining or self.total_order.gated:
            return None
        if self.snapshot_provider is None:
            return None
        state = {
            "next_deliver": self.total_order._next_deliver,
            "protocol": self.snapshot_provider(),
        }
        return pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)

    def _install_snapshot(self, blob: bytes) -> Tuple[int, int]:
        """Joiner side: adopt the snapshot, open the delivery gate and
        replay the buffered backlog.  Returns (backlog, orphans)."""
        state = pickle.loads(blob)
        orphans = 0
        if self.snapshot_installer is not None:
            orphans = self.snapshot_installer(state["protocol"])
        backlog = self.total_order.open_gate(int(state["next_deliver"]))
        return backlog, orphans

    def _on_live(self) -> None:
        if self.on_live is not None:
            self.on_live()
