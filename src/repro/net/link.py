"""Rate-limited links with bounded queues — the wire model.

Each simulated host attaches to the fabric through two of these (egress
and ingress), modeling a full-duplex switched Ethernet port: packets are
serialized at the link rate, queue while the link is busy, and are
dropped at the tail once the buffer is full.  This is where the
bandwidth ceilings of Figures 3(a)/3(b) come from.
"""

from __future__ import annotations

from collections import deque
from heapq import heappush as _heappush
from typing import Callable, Deque, Tuple

from ..core.kernel import Entity, Simulator

__all__ = ["RateLimitedLink", "LinkStats"]

#: Ethernet + IP + UDP framing added to every payload on the wire.
WIRE_OVERHEAD_BYTES = 42


class LinkStats:
    """Byte/packet counters plus a time series for usage plots."""

    __slots__ = ("bytes_sent", "packets_sent", "packets_dropped", "busy_time")

    def __init__(self) -> None:
        self.bytes_sent = 0
        self.packets_sent = 0
        self.packets_dropped = 0
        self.busy_time = 0.0

    def utilization(self, elapsed: float) -> float:
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.busy_time / elapsed)


class RateLimitedLink(Entity):
    """Serializes packets at ``bandwidth_bps`` with propagation ``latency``.

    ``deliver(size, on_delivered, args)`` charges the transmission time
    of ``size`` bytes (payload + wire overhead), queues behind in-flight
    packets, and invokes ``on_delivered(*args)`` at the instant the last bit
    plus the propagation delay arrive.  The queue holds at most
    ``queue_bytes`` of not-yet-transmitted data; beyond that, tail drop.

    The serializer is modeled as a busy-until horizon rather than an
    event per transmission slot: an accepted packet's start time is
    ``max(now, free_at)``, so the only event a packet costs is its own
    delivery — no per-packet "link free, start the next one" wake-up.
    The not-yet-started backlog (what the tail-drop check runs against)
    is a deque of ``(start_time, size)`` pairs drained lazily as the
    clock passes their start times.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        bandwidth_bps: float,
        latency: float = 50e-6,
        queue_bytes: int = 256 * 1024,
    ):
        super().__init__(sim, name)
        if bandwidth_bps <= 0:
            raise ValueError("bandwidth must be positive")
        if latency < 0:
            raise ValueError("latency must be non-negative")
        self.bandwidth_bps = bandwidth_bps
        self.latency = latency
        self.queue_bytes = queue_bytes
        self.stats = LinkStats()
        #: When the serializer finishes its current backlog.
        self._free_at = 0.0
        self._backlog: Deque[Tuple[float, int]] = deque()
        self._backlog_bytes = 0

    def transmission_time(self, size: int) -> float:
        return (size + WIRE_OVERHEAD_BYTES) * 8.0 / self.bandwidth_bps

    def deliver(
        self, size: int, on_delivered: Callable[..., None], args: tuple = ()
    ) -> bool:
        """Queue a packet of ``size`` payload bytes.  Returns False and
        counts a drop if the buffer is full."""
        return self.deliver_at(self.sim._now, size, on_delivered, args)

    def deliver_at(
        self, now: float, size: int, on_delivered: Callable[..., None], args: tuple = ()
    ) -> bool:
        """:meth:`deliver` for a packet arriving at future instant
        ``now``.

        Lets the fabric bind a packet to its ingress link at send time
        instead of scheduling an arrival event first — valid only when
        every packet headed for this link carries the same propagation
        offset (binding order then equals arrival order), as every
        packet crossing the one switch does.
        """
        sim = self.sim
        backlog = self._backlog
        while backlog and backlog[0][0] <= now:
            self._backlog_bytes -= backlog.popleft()[1]
        if self._backlog_bytes + size > self.queue_bytes:
            self.stats.packets_dropped += 1
            return False
        # transmission_time(size) in place: the same float, no call.
        tx_time = (size + WIRE_OVERHEAD_BYTES) * 8.0 / self.bandwidth_bps
        start = self._free_at
        stats = self.stats
        stats.busy_time += tx_time
        stats.bytes_sent += size + WIRE_OVERHEAD_BYTES
        stats.packets_sent += 1
        # The receiver sees the packet after serialization + propagation.
        # Inlined fire-and-forget schedules (see Simulator.call): this is
        # one of the two hottest event producers in the simulator.
        sim._seq += 1
        if start <= now:
            # Idle link: the packet's only event is its own delivery.
            self._free_at = now + tx_time
            _heappush(
                sim._queue,
                # Grouped as now + (tx + latency): the exact float the
                # per-slot event scheme produced, keeping delivery
                # timestamps bit-identical across the two models.
                (now + (tx_time + self.latency), sim._seq, on_delivered, args),
            )
        else:
            # Busy link: the packet queues.  Its delivery event must be
            # *allocated* at transmission start — exactly when the old
            # transmit-slot scheme allocated it — so same-instant event
            # ordering (and with it every result bit) is preserved.
            self._free_at = start + tx_time
            backlog.append((start, size))
            self._backlog_bytes += size
            _heappush(
                sim._queue,
                (start, sim._seq, self._begin, (tx_time, on_delivered, args)),
            )
        return True

    def _begin(
        self, tx_time: float, on_delivered: Callable[..., None], args: tuple
    ) -> None:
        """Transmission start of a packet that queued behind the backlog:
        schedule its delivery at last-bit + propagation."""
        sim = self.sim
        sim._seq += 1
        _heappush(
            sim._queue,
            (sim._now + (tx_time + self.latency), sim._seq, on_delivered, args),
        )

    def queue_depth(self) -> int:
        """Bytes waiting to be transmitted (not counting the in-flight one)."""
        now = self.sim._now
        backlog = self._backlog
        while backlog and backlog[0][0] <= now:
            self._backlog_bytes -= backlog.popleft()[1]
        return self._backlog_bytes
