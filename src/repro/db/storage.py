"""The storage element of the database server model (paper §3.1, §4.1).

A storage device is defined by its per-request latency and the number of
concurrent requests it can serve; each request moves a single sector, so
peak bandwidth is configured indirectly as
``concurrency * SECTOR_BYTES / sector_latency``.

The paper's testbed — a fibre-channel RAID-5 box — measured 9.486 MB/s
of synchronous 4 KB writes under IOzone, and PostgreSQL showed a ≥ 98 %
cache-hit ratio, so the model was configured with a 100 % hit ratio
and the write path sized to 9.486 MB/s.  Every read is therefore a
cache hit, served at its own instant without touching the device, and
only writes occupy sectors.  The write calibration is the module
constants below, and the defaults of :class:`Storage`.
"""

from __future__ import annotations

from collections import deque
from heapq import heappush as _heappush
from typing import Deque

from ..core.kernel import Entity, Signal, Simulator

__all__ = ["Storage", "StorageStats"]

#: The paper's storage calibration (§4.1): four concurrent 4 KB sectors
#: of 1.727 ms each give the 9.486 MB/s measured by IOzone, and reads
#: are fully cached.
SECTOR_LATENCY = 1.727e-3
SECTOR_CONCURRENCY = 4
SECTOR_BYTES = 4096


class StorageStats:
    """Counters for bandwidth and utilization reporting (Figure 6(b)).

    ``sectors_read`` stays 0: every read is a cache hit."""

    __slots__ = (
        "sectors_read",
        "sectors_written",
        "cache_hits",
        "busy_time",
        "bytes_transferred",
    )

    def __init__(self) -> None:
        self.sectors_read = 0
        self.sectors_written = 0
        self.cache_hits = 0
        self.busy_time = 0.0
        self.bytes_transferred = 0


class Storage(Entity):
    """Fixed-latency, bounded-concurrency sector store, in closed form.

    With ``concurrency`` interchangeable slots, FIFO service and one
    constant service time, the *i*-th sector ever submitted starts at
    ``max(submission instant, finish of sector i - concurrency)``: the
    slot it gets is the one the sector ``concurrency`` places ahead of it
    frees.  So a request is served by arithmetic at submission — a walk
    over the ring of the last ``concurrency`` finish instants, one
    ``start + sector_latency`` per sector — and costs the kernel **one**
    event, at its last sector's finish, that fires the ``done`` signal.
    What the device has done *by now* (``stats``, ``utilization()``,
    ``queue_depth()``) is settled on read: a sector counts once its
    start instant has been reached.

    **Order at equal instants.**  Replicas applying the same commits
    keep their disks in lock-step, so completions of *different*
    devices at the same float instant are routine, and the kernel breaks
    the tie by sequence number.  In a chain of per-sector events each
    completion schedules the next one of its slot, so two busy slots
    keep, tie after tie, the order in which they were last taken idle.
    The closed form keeps that order explicitly: a sector that finds its
    slot idle draws a fresh sequence number, one that queues inherits
    its slot's, and the request's event is pushed under the number of
    its last sector's slot (:mod:`repro.core.cpu` pushes late under a
    reserved number the same way).  A number drawn at submission instead
    would let the request submitted first win the tie, which is a
    different simulated result.  (What is not kept: two chains whose
    instants differed by an ulp and were rounded together by a later
    addition; equal instants computed by the same additions, as
    replicas compute them, are.)
    """

    def __init__(
        self,
        sim: Simulator,
        name: str = "disk",
        sector_latency: float = SECTOR_LATENCY,
        concurrency: int = SECTOR_CONCURRENCY,
    ):
        super().__init__(sim, name)
        if sector_latency <= 0 or concurrency < 1:
            raise ValueError("invalid storage parameters")
        self.sector_latency = sector_latency
        self.concurrency = concurrency
        self._stats = StorageStats()
        #: Finish instants of the last ``concurrency`` sectors submitted,
        #: oldest first: ``_finish[0]`` is when the next sector's slot
        #: frees (0.0: never used).
        self._finish: Deque[float] = deque([0.0] * concurrency, maxlen=concurrency)
        #: Per slot, in the same order, the sequence number its
        #: completions run under (see "Order at equal instants").
        self._order: Deque[int] = deque([0] * concurrency, maxlen=concurrency)
        #: Start instants of the written sectors not yet counted in
        #: ``_stats``; ascending, because service is FIFO.
        self._writes: Deque[float] = deque()

    # ------------------------------------------------------------------
    # derived configuration
    # ------------------------------------------------------------------
    @property
    def max_bandwidth_bps(self) -> float:
        """Peak transfer rate in bytes/second (the indirect configuration
        knob the paper calibrates against IOzone)."""
        return self.concurrency * SECTOR_BYTES / self.sector_latency

    # ------------------------------------------------------------------
    # requests
    # ------------------------------------------------------------------
    def read(self, nbytes: int) -> Signal:
        """Fetch ``nbytes``; returns a signal fired on completion.

        Every read is a cache hit (§4.1): it completes at this instant,
        on a zero-delay hop, without touching the device.
        """
        self._stats.cache_hits += 1
        return self.sim.fired_signal()

    def write_sectors(self, sectors: int) -> Signal:
        """Write ``sectors`` (at least one) whole sectors through to the
        device: the commit-time page flushes, never cached (the paper's
        workload uses synchronous commit writes)."""
        self._settle()  # keeps the uncounted no longer than the queue
        sim = self.sim
        now = sim._now
        lat = self.sector_latency
        finish, order, uncounted = self._finish, self._order, self._writes
        for _ in range(sectors):
            start = finish[0]
            if start > now:
                seq = order[0]
            else:
                start = now
                sim._seq += 1
                seq = sim._seq
            uncounted.append(start)
            # ``start + lat`` per sector, never ``now + n * lat``: these
            # are the additions a chain of per-sector events performs,
            # and completion instants must not move by an ulp.
            end = start + lat
            finish.append(end)
            order.append(seq)
        # Inlined fire-and-forget schedule (see Simulator.call), under the
        # number of the last sector's slot.
        done = Signal(sim)
        _heappush(sim._queue, (end, seq, done.fire, (None,)))
        return done

    # ------------------------------------------------------------------
    # observation
    # ------------------------------------------------------------------
    @property
    def stats(self) -> StorageStats:
        """The counters as of now (read them through this attribute:
        a reference kept across simulated time goes stale)."""
        self._settle()
        return self._stats

    def utilization(self, elapsed: float) -> float:
        """Fraction of the device's total slot-time spent busy."""
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.stats.busy_time / (self.concurrency * elapsed))

    def queue_depth(self) -> int:
        """Sectors waiting for a free slot."""
        self._settle()
        return len(self._writes)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _settle(self) -> None:
        """Count the sectors whose start instant has been reached."""
        stats = self._stats
        started = _pop_until(self._writes, self.sim._now)
        if started:
            stats.sectors_written += started
            stats.bytes_transferred += SECTOR_BYTES * started
            # One latency at a time on purpose: ``busy_time`` is reported
            # in resource samples, and ``lat * started`` rounds
            # differently from ``started`` repeated additions.
            busy = stats.busy_time
            lat = self.sector_latency
            for _ in range(started):
                busy += lat
            stats.busy_time = busy


def _pop_until(instants: Deque[float], now: float) -> int:
    """Drop the leading instants that are not in the future; how many."""
    count = 0
    while instants and instants[0] <= now:
        instants.popleft()
        count += 1
    return count
