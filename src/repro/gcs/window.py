"""Receive windows and the shared message buffer pool.

Two pieces of bookkeeping underpin the reliable multicast layer:

* :class:`ReceiveWindow` — per-origin tracking of which sequence numbers
  have arrived: the highest *contiguous* prefix (what stability
  detection can vote on) plus the set of out-of-order arrivals (whose
  gaps drive receiver-initiated NACKs);
* :class:`BufferPool` — every member buffers every message it has seen
  until stability detection declares it received-by-all.  Fairness is
  enforced by giving each origin a fixed **share** of the pool (§5.3);
  when an origin's share is exhausted its new sends must wait for
  garbage collection — the exact mechanism whose interaction with the
  fixed sequencer the paper exposes under random loss.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

__all__ = ["ReceiveWindow", "BufferPool"]


class ReceiveWindow:
    """Tracks received sequence numbers from one origin (seqs start at 1)."""

    __slots__ = ("contiguous", "pending")

    def __init__(self) -> None:
        #: Highest n such that every sequence in [1, n] has arrived.
        self.contiguous = 0
        #: Out-of-order arrivals; empty on the in-order path.
        self.pending: set = set()

    def receive(self, seq: int) -> bool:
        """Record arrival of ``seq``.  Returns False for duplicates."""
        if seq <= self.contiguous or seq in self.pending:
            return False
        self.pending.add(seq)
        while self.contiguous + 1 in self.pending:
            self.pending.discard(self.contiguous + 1)
            self.contiguous += 1
        return True

    def has(self, seq: int) -> bool:
        return seq <= self.contiguous or seq in self.pending

    def fast_forward(self, seq: int) -> None:
        """Mark everything up to ``seq`` as received without holding the
        payloads (state transfer covers their effects).  Out-of-order
        arrivals at or below ``seq`` are absorbed."""
        if seq <= self.contiguous:
            return
        self.contiguous = seq
        self.pending = {s for s in self.pending if s > seq}
        while self.contiguous + 1 in self.pending:
            self.pending.discard(self.contiguous + 1)
            self.contiguous += 1

    def gaps(self, limit: int = 64) -> List[int]:
        """Missing sequence numbers below the highest arrival (at most
        ``limit`` of them) — the NACK candidates."""
        if not self.pending:
            return []
        top = max(self.pending)
        missing = []
        for seq in range(self.contiguous + 1, top):
            if seq not in self.pending:
                missing.append(seq)
                if len(missing) >= limit:
                    break
        return missing

    def highest_seen(self) -> int:
        return max(self.pending) if self.pending else self.contiguous


class BufferPool:
    """Unstable-message store with per-origin shares.

    ``share`` is the maximum number of unstable messages a single origin
    may occupy (the paper's fairness rule).  Messages are keyed by
    (origin, seq); :meth:`collect` releases everything at or below the
    per-origin stable watermark, returning how many were freed.
    """

    def __init__(self, share: int = 64):
        if share < 1:
            raise ValueError("share must be >= 1")
        self.share = share
        self._messages: Dict[Tuple[int, int], bytes] = {}
        self._per_origin: Dict[int, int] = {}
        #: Per origin, a lower bound on its lowest buffered sequence
        #: number: possibly stale-low (``purge_origin_above`` and
        #: duplicates never raise it), never high.  Lets :meth:`collect`
        #: prove there is nothing to drop without scanning.
        self._lowest: Dict[int, int] = {}
        self.stats = {"stored": 0, "collected": 0, "peak_occupancy": 0}

    def occupancy(self, origin: int) -> int:
        return self._per_origin.get(origin, 0)

    def has_room(self, origin: int) -> bool:
        """Can ``origin`` buffer one more message within its share?"""
        return self.occupancy(origin) < self.share

    def store(self, origin: int, seq: int, payload: bytes) -> None:
        key = (origin, seq)
        if key in self._messages:
            return
        self._messages[key] = payload
        if seq < self._lowest.get(origin, seq + 1):
            self._lowest[origin] = seq
        count = self._per_origin.get(origin, 0) + 1
        self._per_origin[origin] = count
        self.stats["stored"] += 1
        if count > self.stats["peak_occupancy"]:
            self.stats["peak_occupancy"] = count

    def get(self, origin: int, seq: int) -> Optional[bytes]:
        return self._messages.get((origin, seq))

    def purge_origin_above(self, origin: int, seq: int) -> int:
        """Drop ``origin``'s buffered messages with sequence above
        ``seq`` — out-of-order remnants of a dead incarnation whose gaps
        will never fill (sequences at or below ``seq`` stay: lagging
        survivors may still gap-fill the old stream from us)."""
        doomed = [
            key for key in self._messages if key[0] == origin and key[1] > seq
        ]
        for key in doomed:
            del self._messages[key]
            self._per_origin[origin] -= 1
        return len(doomed)

    def collect(self, stable: Dict[int, int]) -> int:
        """Drop every buffered (origin, seq) with seq <= stable[origin]."""
        get = stable.get
        for origin, bound in self._lowest.items():
            if get(origin, 0) >= bound:
                break
        else:
            return 0  # every watermark is below everything buffered
        doomed = []
        lowest: Dict[int, int] = {}
        for key in self._messages:
            origin, seq = key
            if seq <= get(origin, 0):
                doomed.append(key)
            elif seq < lowest.get(origin, seq + 1):
                lowest[origin] = seq
        for key in doomed:
            del self._messages[key]
            self._per_origin[key[0]] -= 1
        self._lowest = lowest
        self.stats["collected"] += len(doomed)
        return len(doomed)

    def total_buffered(self) -> int:
        return len(self._messages)

    def origins(self) -> Iterable[int]:
        return tuple(o for o, n in self._per_origin.items() if n > 0)
