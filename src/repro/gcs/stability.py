"""Gossip-based stability detection (paper §3.4, after Guo's protocol).

The goal is to determine which messages have been received by **all**
operational processes so they can be discarded from buffers — the key
element in the performance of reliable multicast.  Detection works in
asynchronous rounds by gossiping:

* ``S`` — a vector of sequence numbers of known-stable messages;
* ``W`` — the set of processes that have voted in the current round;
* ``M`` — a vector of sequence numbers already received by the voters.

Each process adds its vote to ``W`` and lowers ``M`` to its own
*contiguous* reception prefix.  When ``W`` contains all operational
processes, ``S`` is raised to ``M`` and a new round starts.  Because a
round can only garbage-collect the **contiguous common prefix**, loss
injected independently at each participant dramatically shortens that
prefix and slows collection — the root cause of the sequencer blocking
the paper diagnoses in §5.3.

While a round is open, the merge operation (union of W, element-wise
min of M, element-wise max of S) is a join-semilattice, so gossip order
cannot matter.  Round *completion* — raising S when W covers the
membership — is a monotone side effect whose timing depends on arrival
order; any outcome is safe (S never exceeds true stability) and all
members reconverge through the max-merge of S carried by every later
gossip message.  Hypothesis tests assert exactly these properties.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

from .messages import StabilityMsg

__all__ = ["StabilityState"]

_INFINITY = (1 << 62)


class StabilityState:
    """One member's view of the current stability round.

    Wire vectors are indexed by member *rank* (slot in the sorted
    membership) and fold in with one ``zip`` each.  A peer vector of
    another length (mid view change) needs no padding: missing slots are
    the fold's neutral element, extra ones are members this view lacks.
    """

    def __init__(self, member_id: int, members: Sequence[int]):
        if member_id not in members:
            raise ValueError("member_id must be one of members")
        self.member_id = member_id
        self.round_id = 1
        self.stable: Dict[int, int] = {}
        self.rounds_completed = 0
        self._install(members)

    # ------------------------------------------------------------------
    def reset_membership(self, members: Sequence[int]) -> None:
        """Install a new view: departed members leave the vectors, new
        rounds restart, accumulated stability survives."""
        self._install(members)
        self.round_id += 1

    def vote(self, contiguous: Dict[int, int]) -> None:
        """Add the local vote: our contiguous reception prefix per origin."""
        self.voted.add(self.member_id)
        mins = self.mins
        for origin in self.members:
            own = contiguous.get(origin, 0)
            if own < mins[origin]:
                mins[origin] = own
        if self._everyone <= self.voted:
            self._complete_round()

    def merge(self, msg: StabilityMsg) -> None:
        """Fold a peer's gossip into the local state (semilattice join)."""
        members = self.members
        if msg.round_id > self.round_id:
            # The peer is ahead: adopt its round wholesale, then re-vote.
            self.round_id = msg.round_id
            self.voted = set(msg.voted) & self._everyone
            self.mins = dict.fromkeys(members, _INFINITY)
            self.mins.update(zip(members, msg.mins))
        elif msg.round_id == self.round_id:
            self.voted |= self._everyone.intersection(msg.voted)
            mins = self.mins
            for origin, floor in zip(members, msg.mins):
                if floor < mins[origin]:
                    mins[origin] = floor
        # Stability knowledge is monotonic: take the max regardless of round.
        stable = self.stable
        for origin, known in zip(members, msg.stable):
            if known > stable[origin]:
                stable[origin] = known
        if self._everyone <= self.voted:
            self._complete_round()

    def snapshot(self, view_id: int = 0) -> StabilityMsg:
        """The gossip message describing the local state."""
        members = self.members
        return StabilityMsg(
            sender=self.member_id,
            view_id=view_id,
            round_id=self.round_id,
            stable=tuple(map(self.stable.__getitem__, members)),
            voted=tuple(sorted(self.voted)),
            mins=tuple([min(self.mins[m], _INFINITY) for m in members]),
        )

    # ------------------------------------------------------------------
    def _install(self, members: Sequence[int]) -> None:
        self.members: Tuple[int, ...] = tuple(sorted(members))
        self._everyone = frozenset(self.members)
        self.stable = {m: self.stable.get(m, 0) for m in self.members}
        self._new_round()

    def _complete_round(self) -> None:
        stable = self.stable
        for origin, floor in self.mins.items():
            if floor < _INFINITY and floor > stable[origin]:
                stable[origin] = floor
        self.rounds_completed += 1
        self.round_id += 1
        self._new_round()

    def _new_round(self) -> None:
        self.voted = set()
        self.mins = dict.fromkeys(self.members, _INFINITY)
