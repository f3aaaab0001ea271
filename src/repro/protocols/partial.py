"""Partial replication with per-fragment groups (table name ``"partial"``).

Each data fragment (a warehouse range, see :mod:`repro.placement`) is
replicated by its own group with its own GCS stack.  A transaction whose
read/write sets touch a single fragment certifies through that group's
total order exactly like a DBSM transaction — paying one small group's
broadcast instead of the whole system's.  A transaction touching several
fragments is *genuinely* multicast to exactly the touched groups (Sutra
& Shapiro, *Fault-Tolerant Partial Replication in Large-Scale Database
Systems*) and commits through a cross-group agreement step:

1. the origin sends the commit request to every touched group; each
   group runs it through its own total order;
2. at delivery every member of a touched group computes the same
   deterministic **vote** — no conflict with that group's in-flight
   cross-transaction reservations, plus (in the origin's own group,
   where the transaction's ``start_seq`` horizon is meaningful) the
   regular certification test — and *reserves* the transaction's
   footprint;
3. each group's delegate (lowest-id member of its current view) reports
   the vote to the origin; the origin commits iff every touched group
   voted yes, and multicasts the decision back into each group;
4. at decision delivery every member atomically releases the
   reservation and, on commit, assigns the group-local commit sequence
   and applies the writes.

Reads against fragments the origin never executed on are certified
*at delivery* ("read at delivery"): they conflict-check only against
concurrently reserved cross transactions, since the group's total order
is the first point where they have a meaningful position.  Reserved
footprints block conflicting single-fragment commits in between — a
conservative, deterministic stand-in for the prototype's cross-group
locks, so every member of a group still takes identical decisions at
identical delivery positions and the per-group one-copy-serializability
check holds unchanged.

With ``fragments == 1`` every transaction takes the single-group fast
path and the protocol degenerates to DBSM certification — the scale-out
campaign's baseline cell.
"""

from __future__ import annotations

import struct
from typing import Dict, Optional, Tuple

from ..core.kernel import Signal
from ..db.server import DatabaseServer
from ..db.transactions import Outcome, Transaction
from ..dbsm.certification import PER_ITEM_COST, Certifier, sets_conflict
from ..dbsm.marshal import (
    CommitRequest,
    marshal_request,
    unmarshal_request_cached,
)
from ..dbsm.replica import open_commit_request
from ..gcs.stack import GroupCommunication
from ..net.network import LAN_LINK_LATENCY
from ..placement import (
    FragmentMap,
    TransactionRouter,
    fragment_of_site,
    sites_of_fragment,
)
from .base import (
    ProtocolContext,
    ProtocolGroup,
    ReplicationProtocol,
)

__all__ = ["PartialReplica"]

#: In-group wire prefixes: commit requests vs cross-group decisions.
_MSG_REQUEST = 0
_MSG_DECIDE = 1
_REQUEST_PREFIX = bytes([_MSG_REQUEST])
_DECIDE_PREFIX = bytes([_MSG_DECIDE])
_DECIDE_BODY = struct.Struct("<QB")  # tx_id, commit flag
_COMMIT, _ABORT = Outcome.COMMIT, Outcome.ABORT  # bound once: see db.transactions


class PartialReplica(ReplicationProtocol):
    """One site of the partially replicated database."""

    name = "partial"

    def __init__(
        self,
        site_id: int,
        server: DatabaseServer,
        gcs: GroupCommunication,
        group: ProtocolGroup,
        config,
    ):
        super().__init__(site_id, server, gcs)
        self.group = group
        self.sites = config.sites
        self.fragments = config.fragments
        #: This site's fragment (= its GCS group).
        self.fragment = fragment_of_site(site_id, self.sites, self.fragments)
        self.fragment_map = FragmentMap.for_clients(
            config.clients, self.fragments, config.placement
        )
        self.router = TransactionRouter(self.fragment_map)
        self.link_latency = LAN_LINK_LATENCY
        self._group_sites: Dict[int, Tuple[int, ...]] = {
            f: sites_of_fragment(f, self.sites, self.fragments)
            for f in range(self.fragments)
        }
        self.certifier = Certifier(charge=gcs.runtime.charge)
        self._view_members: Tuple[int, ...] = tuple(gcs.members)
        #: Reservations: tx_id -> (request, vote) for every cross
        #: transaction delivered in this group and not yet decided, in
        #: delivery order.  Vote-yes entries block conflicting commits.
        self._cross: Dict[int, Tuple[CommitRequest, bool]] = {}
        #: Origin side of the agreement: tx_id -> outstanding vote state.
        self._await: Dict[int, Dict[str, object]] = {}
        self.stats = {
            "submitted": 0,
            "single_fragment": 0,
            "cross_fragment": 0,
            "votes_sent": 0,
            "decisions": 0,
            "reserved_aborts": 0,
            "remote_applies": 0,
        }
        gcs.on_view_change = self._on_view_change

    # ------------------------------------------------------------------
    # state transfer (recovery/rejoin)
    # ------------------------------------------------------------------
    def reset_protocol_state(self, was_crashed: bool) -> None:
        super().reset_protocol_state(was_crashed)
        self._await.clear()
        # Reservations are re-adopted from the donor's snapshot — they
        # are group-replicated state, not this process's volatile state.
        self._cross.clear()

    def protocol_snapshot(self) -> Dict[str, object]:
        """Certification position plus the open cross-transaction
        reservations — both are functions of the group's delivery
        sequence, so a joiner must adopt them to stay in lock-step."""
        return {
            "certifier": self.certifier.snapshot_state(),
            "cross": [
                [marshal_request(request), vote]
                for request, vote in self._cross.values()
            ],
        }

    def install_protocol_snapshot(self, snap: Dict[str, object]) -> None:
        self.certifier.restore_state(snap["certifier"])
        self._cross = {}
        for payload, vote in snap["cross"]:
            request = unmarshal_request_cached(bytes(payload))
            self._cross[request.tx_id] = (request, bool(vote))

    # ------------------------------------------------------------------
    # TerminationProtocol (called from server transaction processes)
    # ------------------------------------------------------------------
    def submit(self, tx: Transaction) -> Signal:
        """Route the committing transaction to the groups it touches."""
        spec = tx.spec
        outcome, body = open_commit_request(self, tx, spec.read_set)
        if not body:
            return outcome
        decision = self.router.route(spec.read_set, spec.write_set, self.fragment)
        payload = _REQUEST_PREFIX + body
        self.stats["submitted"] += 1
        if decision.fragments == (self.fragment,):
            # Single-fragment fast path: this group's total order alone.
            self.stats["single_fragment"] += 1
            self.multicast(payload)
            return outcome
        # Genuine atomic multicast: exactly the touched groups see it.
        self.stats["cross_fragment"] += 1
        self._await[tx.tx_id] = {
            "needed": frozenset(decision.fragments),
            "votes": {},
        }
        for fragment in decision.fragments:
            if fragment == self.fragment:
                self.multicast(payload)
            else:
                self.server.sim.call(
                    self.link_latency, self._inject, fragment, payload
                )
        return outcome

    # ------------------------------------------------------------------
    # cross-group transport (the inter-group links of the fabric)
    # ------------------------------------------------------------------
    def _inject(self, fragment: int, payload: bytes) -> None:
        """Hand a message to some operational member of ``fragment``'s
        group for multicast through that group's total order.  Like a
        request forwarded to a dead primary, a message whose whole
        target group is down is lost and its clients block."""
        relay = self._first_operational(fragment)
        if relay is None:
            return
        relay.multicast(payload)

    def _first_operational(self, fragment: int) -> Optional["PartialReplica"]:
        for site_id in self._group_sites[fragment]:
            instance = self.group.instance(site_id)
            if not instance.crashed and instance.live:
                return instance
        return None

    # ------------------------------------------------------------------
    # total-order delivery (runs inside the real receive job)
    # ------------------------------------------------------------------
    def _on_deliver(self, global_seq: int, origin: int, payload: bytes) -> None:
        if self.crashed:
            return
        if payload[0] == _MSG_REQUEST:
            self._on_request(payload[1:])
        else:
            self._on_decide(payload[1:])

    def _on_request(self, body: bytes) -> None:
        request = unmarshal_request_cached(body)
        home = fragment_of_site(request.origin, self.sites, self.fragments)
        decision = self.router.route_request(request, home)
        if decision.fragments == (self.fragment,) and home == self.fragment:
            self._certify_local(request)
        else:
            self._vote(request, home)

    def _certify_local(self, request: CommitRequest) -> None:
        """The DBSM path: this group alone decides, at delivery."""
        if self._reservation_conflict(request):
            # A reserved cross transaction holds part of the footprint;
            # committing under it could invalidate a vote already cast.
            self.certifier.stats["certified"] += 1
            self.certifier.stats["aborted"] += 1
            self.stats["reserved_aborts"] += 1
            committed, commit_seq = False, -1
        else:
            committed, commit_seq = self.certifier.certify(request)
        if committed:
            self.log_commit(commit_seq, request.tx_id)
        if request.origin == self.site_id:
            self._resolve_local(request, committed, commit_seq)
        elif committed:
            self.stats["remote_applies"] += 1
            self._apply_remote(request, commit_seq)

    def _vote(self, request: CommitRequest, home: int) -> None:
        """Deterministic vote + reservation for a cross-group request.

        Every member of the group computes the same vote at the same
        delivery position; only the delegate reports it to the origin.
        """
        vote = not self._reservation_conflict(request)
        if vote and home == self.fragment:
            # The origin executed against this group's data: its
            # start_seq horizon is meaningful here, so run the full
            # certification test too.
            vote = self.certifier.would_commit(request)
        elif home != self.fragment:
            # Read-at-delivery semantics: position in this group's order
            # is the read point, only reservations can conflict.
            self.certifier.stats["certified"] += 1
        self._cross[request.tx_id] = (request, vote)
        if self._is_delegate():
            self._send_vote(request, vote)

    def _on_decide(self, body: bytes) -> None:
        tx_id, commit = _DECIDE_BODY.unpack(body)
        entry = self._cross.pop(tx_id, None)
        if entry is None:
            return
        request, vote = entry
        if commit:
            commit_seq = self.certifier.force_commit(request)
            self.log_commit(commit_seq, request.tx_id)
            if request.origin == self.site_id:
                self._resolve_local(request, True, commit_seq)
            else:
                self.stats["remote_applies"] += 1
                self._apply_remote(request, commit_seq)
        else:
            if vote:
                # Another touched group vetoed a transaction this group
                # had accepted.
                self.certifier.stats["aborted"] += 1
            if request.origin == self.site_id:
                self._resolve_local(request, False, -1)

    # ------------------------------------------------------------------
    # agreement plumbing (delegate votes, origin decision)
    # ------------------------------------------------------------------
    def _is_delegate(self) -> bool:
        return self._view_members and self.site_id == min(self._view_members)

    def _send_vote(self, request: CommitRequest, vote: bool) -> None:
        self.stats["votes_sent"] += 1
        self.server.sim.call(
            self.link_latency,
            self._deliver_vote,
            request.origin,
            request.tx_id,
            self.fragment,
            vote,
        )

    def _deliver_vote(
        self, origin_id: int, tx_id: int, fragment: int, vote: bool
    ) -> None:
        origin = self.group.instance(origin_id)
        if origin.crashed:
            return
        origin._receive_vote(tx_id, fragment, vote)

    def _receive_vote(self, tx_id: int, fragment: int, vote: bool) -> None:
        """Origin side: collect one group's vote; decide when all are in.

        Duplicate votes (a delegate failover re-reporting) are ignored —
        the first vote per group is the group's deterministic answer.
        """
        if self.crashed:
            return
        entry = self._await.get(tx_id)
        if entry is None or fragment in entry["votes"]:
            return
        entry["votes"][fragment] = vote
        if frozenset(entry["votes"]) != entry["needed"]:
            return
        del self._await[tx_id]
        commit = all(entry["votes"].values())
        self.stats["decisions"] += 1
        payload = _DECIDE_PREFIX + _DECIDE_BODY.pack(tx_id, 1 if commit else 0)
        for target in sorted(entry["needed"]):
            if target == self.fragment:
                self.multicast(payload)
            else:
                self.server.sim.call(
                    self.link_latency, self._inject, target, payload
                )
        if self.fragment not in entry["needed"]:
            # This site's own group never saw the transaction: resolve
            # the waiting client directly from the decision (its commit
            # is sequenced — and applied — in the touched groups).
            pending = self._pending.pop(tx_id, None)
            if pending is not None:
                _tx, outcome_signal = pending
                self.runtime.schedule(
                    0.0,
                    outcome_signal.fire,
                    _COMMIT if commit else _ABORT,
                )

    def _on_view_change(self, view_id: int, members: Tuple[int, ...]) -> None:
        self._view_members = members
        if members and self.site_id == min(members):
            # Newly responsible delegate (or re-confirmed): re-report the
            # votes of every undecided reservation so a vote lost with
            # the previous delegate cannot wedge the agreement.
            for request, vote in list(self._cross.values()):
                self._send_vote(request, vote)

    # ------------------------------------------------------------------
    # conflict checking against open reservations
    # ------------------------------------------------------------------
    def _reservation_conflict(self, request: CommitRequest) -> bool:
        """Does ``request`` overlap a vote-yes reservation's footprint?

        Reserved reads are protected from incoming writes (a commit
        would invalidate the already-cast vote) and reserved writes from
        incoming reads and writes — 2PC-style conservative locking over
        the window between vote and decision.
        """
        conflict = False
        visited = 0
        reads = request.read_set
        writes = request.write_set
        for other, vote in self._cross.values():
            if not vote or other.tx_id == request.tx_id:
                continue
            visited += len(reads) + len(writes)
            visited += len(other.read_set) + len(other.write_set)
            if (
                sets_conflict(reads, other.write_set)
                or sets_conflict(other.read_set, writes)
                or sets_conflict(writes, other.write_set)
            ):
                conflict = True
                break
        if visited:
            self.runtime.charge(visited * PER_ITEM_COST)
        return conflict

    def protocol_stats(self) -> Dict[str, int]:
        return {**self.certifier.stats, **self.stats}


def build(ctx: ProtocolContext) -> PartialReplica:
    return PartialReplica(
        ctx.site_id,
        ctx.server,
        ctx.gcs,
        ctx.group,
        ctx.config,
    )
