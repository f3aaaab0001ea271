"""View-synchronous state transfer: how a (re)joined member goes live.

A member admitted into a view with empty volatile state (named in
``DECIDE.joined``) cannot recover the group's history through
retransmission — stability detection garbage-collected it long ago.
Instead it acquires a **snapshot** from an established member and
replays only the traffic delivered after the snapshot's cut:

1. on installing the merge view the joiner's stack runs *gated*: the
   reliable and total-order layers accept and order new traffic
   normally (windows were fast-forwarded past the history), but nothing
   is delivered to the replication protocol;
2. the joiner unicasts ``STATE_REQ`` to the lowest established member
   and retries on a timer, rotating donors, until a complete snapshot
   arrives — so a donor crash mid-transfer only delays the rejoin;
3. the donor captures its snapshot synchronously inside the request's
   receive job (between total-order deliveries, so the cut is a
   consistent prefix), fragments it below the safe packet size and
   unicasts the ``STATE`` fragments;
4. the joiner reassembles, installs the snapshot (protocol metadata:
   commit log, certification position, apply watermark — plus the
   total-order delivery cut), opens the delivery gate, replays the
   buffered backlog in order, and reports itself **live**.

Fragments of one capture share a ``snapshot_id``; a retry triggers a
fresh capture and the joiner discards the stale partial one, which
keeps the protocol correct under message loss without per-fragment
acknowledgements.

Invariant: after the replay, the joiner's committed sequence is
bit-identical to the donor's at the cut plus the group's deliveries
after it — exactly what §5.3 demands of an operational site.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ..core.metrics import stored_fields
from ..core.runtime_api import ProtocolRuntime
from .config import STATE_RETRY, GcsConfig
from .messages import StateMsg, StateReqMsg, marshal

__all__ = ["StateTransfer", "RecoveryEvent"]


@dataclass
class RecoveryEvent:
    """One rejoin's timeline and volume, for recovery-time metrics."""

    site: int
    #: Simulated time the rejoin was initiated (stack reset).
    started_at: float
    #: When the merge view installed at the joiner (-1: never happened).
    view_installed_at: float = -1.0
    #: When the snapshot finished installing and the member went live.
    live_at: float = -1.0
    snapshot_bytes: int = 0
    requests_sent: int = 0
    #: Ordered messages buffered while gated and replayed at install.
    backlog_replayed: int = 0
    #: Commits from the previous incarnation absent from the adopted
    #: snapshot (non-zero only for minority-partition rejoins).
    orphaned_commits: int = 0

    def time_to_rejoin(self) -> Optional[float]:
        if self.live_at < 0:
            return None
        return self.live_at - self.started_at

    def to_dict(self) -> Dict[str, object]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "RecoveryEvent":
        return cls(**stored_fields(cls, data))


class StateTransfer:
    """One member's state-transfer endpoint (joiner and donor roles)."""

    def __init__(
        self,
        runtime: ProtocolRuntime,
        member_id: int,
        addresses: Dict[int, object],
        config: GcsConfig,
    ):
        self.runtime = runtime
        self.member_id = member_id
        self.addresses = dict(addresses)
        self.config = config
        #: Donor side: returns the marshaled snapshot blob (None while
        #: we are not established — a joiner must refuse to donate).
        self.capture: Optional[Callable[[], Optional[bytes]]] = None
        #: Joiner side: installs a snapshot blob, returns the number of
        #: backlog messages replayed and the orphaned-commit count.
        self.install: Optional[Callable[[bytes], Tuple[int, int]]] = None
        #: Joiner side: ordered donor candidates (established first).
        self.candidates: Callable[[], Tuple[int, ...]] = lambda: ()
        #: Fired once the member is live again.
        self.on_live: Optional[Callable[[], None]] = None
        self.transferring = False
        self._epoch = 0
        self._next_snapshot_id = 0
        #: (donor, snapshot_id) -> fragment slots.  Keyed by donor too:
        #: every donor numbers its captures independently, and a retry
        #: that rotated donors must not mix two donors' fragments.
        self._fragments: Dict[Tuple[int, int], List[Optional[bytes]]] = {}
        self._event: Optional[RecoveryEvent] = None
        #: Completed rejoin timelines (recovery-time metrics).
        self.events: List[RecoveryEvent] = []
        self.stats = {
            "snapshots_served": 0,
            "snapshots_installed": 0,
            "fragments_sent": 0,
            "requests_refused": 0,
        }

    # ------------------------------------------------------------------
    # joiner role
    # ------------------------------------------------------------------
    def begin_rejoin(self) -> RecoveryEvent:
        """Open a rejoin timeline (called at the stack reset)."""
        self._epoch += 1
        self.transferring = False
        self._fragments.clear()
        self._event = RecoveryEvent(
            site=self.member_id, started_at=self.runtime.now()
        )
        self.events.append(self._event)
        return self._event

    def start_transfer(self) -> None:
        """Start requesting a snapshot (called at merge-view install)."""
        if self.transferring:
            return
        self.transferring = True
        if self._event is not None:
            self._event.view_installed_at = self.runtime.now()
        self._request_tick(self._epoch)

    def _request_tick(self, epoch: int) -> None:
        if epoch != self._epoch or not self.transferring:
            return
        candidates = self.candidates()
        if candidates:
            event = self._event
            donor = candidates[
                (event.requests_sent if event else 0) % len(candidates)
            ]
            address = self.addresses.get(donor)
            if address is not None:
                self.runtime.send(
                    address, marshal(StateReqMsg(self.member_id, 0))
                )
                if event is not None:
                    event.requests_sent += 1
        self.runtime.schedule(STATE_RETRY, self._request_tick, epoch)

    def handle_state(self, msg: StateMsg) -> None:
        """Collect one snapshot fragment; install when complete."""
        if not self.transferring:
            return
        key = (msg.sender, msg.snapshot_id)
        parts = self._fragments.get(key)
        if parts is None:
            # A fresh capture supersedes any stale partial one.
            self._fragments = {key: [None] * msg.frag_count}
            parts = self._fragments[key]
        if msg.frag_index >= len(parts):
            return  # corrupt/foreign fragment
        parts[msg.frag_index] = msg.payload
        if any(part is None for part in parts):
            return
        blob = b"".join(parts)
        self._fragments.clear()
        self.transferring = False
        self._epoch += 1  # stops the request tick
        assert self.install is not None, "no snapshot installer wired"
        backlog, orphans = self.install(blob)
        self.stats["snapshots_installed"] += 1
        if self._event is not None:
            self._event.live_at = self.runtime.now()
            self._event.snapshot_bytes = len(blob)
            self._event.backlog_replayed = backlog
            self._event.orphaned_commits = orphans
            self._event = None
        if self.on_live is not None:
            self.on_live()

    # ------------------------------------------------------------------
    # donor role
    # ------------------------------------------------------------------
    def handle_request(self, msg: StateReqMsg) -> None:
        """Serve a snapshot to a joiner (refused while not established)."""
        requester = self.addresses.get(msg.sender)
        if requester is None:
            return
        blob = self.capture() if self.capture is not None else None
        if blob is None:
            self.stats["requests_refused"] += 1
            return
        self._next_snapshot_id += 1
        snapshot_id = self._next_snapshot_id
        limit = self.config.max_packet
        chunks = [blob[i : i + limit] for i in range(0, len(blob), limit)] or [b""]
        for index, chunk in enumerate(chunks):
            self.runtime.send(
                requester,
                marshal(
                    StateMsg(
                        self.member_id,
                        0,
                        snapshot_id,
                        index,
                        len(chunks),
                        chunk,
                    )
                ),
            )
            self.stats["fragments_sent"] += 1
        self.stats["snapshots_served"] += 1
