"""Profiling timers for real code running under the centralized runtime.

The paper times real protocol code with the Linux ``perfctr`` virtualized
CPU cycle counters (nanosecond resolution on the 1 GHz Pentium III) and
charges the measured duration to the simulated CPU.  Two backends are
provided here:

* :class:`WallClockTimer` — the paper's mechanism, using
  ``time.perf_counter_ns``.  The measured time can be *scaled* to simulate
  a processor other than the host (paper §2.3).
* :class:`CostModelTimer` — a deterministic substitute.  Real code still
  executes for its side effects, but the duration charged is computed from
  a :class:`CpuCostModel` (fixed + per-byte overheads — exactly the four
  parameters the paper calibrates in §4.1) plus any explicit
  :meth:`ProfilingTimer.charge` calls made from hot loops.

Both backends implement the pause/resume protocol of Figure 1(b): the
clock is stopped while real code re-enters the simulation runtime, so the
time spent scheduling events is not billed to the job, and the elapsed
time Δ accumulated so far is available for correcting event delays
(δ′q = Δ1 + δq).
"""

from __future__ import annotations

import time
from typing import Dict, Optional, Tuple

__all__ = ["ProfilingTimer", "WallClockTimer", "CostModelTimer", "CpuCostModel"]


class ProfilingTimer:
    """Abstract timer measuring the duration of one real-code job.

    Lifecycle: ``start`` → (``pause``/``resume``)* → ``stop``.  The value
    of :meth:`elapsed` is the job duration *excluding* paused intervals.
    """

    def start(self, charged: float = 0.0) -> None:
        """Begin measuring a job, ``charged`` seconds already declared
        (the entry cost: a :meth:`charge` folded into the start)."""
        raise NotImplementedError

    def pause(self) -> None:
        """Stop accumulating (real code re-entered the simulation runtime)."""
        raise NotImplementedError

    def resume(self) -> None:
        """Continue accumulating (control returned to real code)."""
        raise NotImplementedError

    def stop(self) -> float:
        """Finish the measurement and return the total elapsed seconds."""
        raise NotImplementedError

    def elapsed(self) -> float:
        """Elapsed seconds accumulated so far (Δ1 in Figure 1(b))."""
        raise NotImplementedError

    def charge(self, seconds: float) -> None:
        """Explicitly account ``seconds`` of work.

        A no-op for the wall-clock backend (work is measured, not
        declared); the cost-model backend accumulates it.
        """


class WallClockTimer(ProfilingTimer):
    """Measures real executions with the host's monotonic clock.

    ``scale`` converts host-CPU seconds into simulated-CPU seconds; e.g.
    ``scale=2.0`` simulates a processor half as fast as the host.
    """

    def __init__(self, scale: float = 1.0):
        if scale <= 0:
            raise ValueError("scale must be positive")
        self.scale = scale
        self._accumulated_ns = 0
        self._started_at: Optional[int] = None
        self._running = False

    def start(self, charged: float = 0.0) -> None:
        # Work is measured by the clock: a declared charge is ignored.
        self._accumulated_ns = 0
        self._started_at = time.perf_counter_ns()
        self._running = True

    def pause(self) -> None:
        if not self._running or self._started_at is None:
            return
        self._accumulated_ns += time.perf_counter_ns() - self._started_at
        self._started_at = None

    def resume(self) -> None:
        if not self._running:
            return
        self._started_at = time.perf_counter_ns()

    def stop(self) -> float:
        self.pause()
        self._running = False
        return self.elapsed()

    def elapsed(self) -> float:
        total_ns = self._accumulated_ns
        if self._started_at is not None:
            total_ns += time.perf_counter_ns() - self._started_at
        return total_ns * 1e-9 * self.scale

    def charge(self, seconds: float) -> None:
        # Work is measured by the clock; explicit charges are ignored so
        # protocol code can be written once for both backends.
        return None


class CostModelTimer(ProfilingTimer):
    """Deterministic timer: elapsed time is declared, not measured.

    The per-job entry cost is charged by the runtime when the job starts
    (from the :class:`CpuCostModel`); protocol hot loops may add explicit
    :meth:`charge` calls (e.g. per certified tuple).  ``pause``/``resume``
    only toggle whether charges are accepted, which catches accounting
    bugs where simulation-side code charges the real job by accident.
    """

    def __init__(self) -> None:
        self._accumulated = 0.0
        self._running = False
        self._paused = False

    def start(self, charged: float = 0.0) -> None:
        self._accumulated = charged
        self._running = True
        self._paused = False

    def pause(self) -> None:
        self._paused = True

    def resume(self) -> None:
        self._paused = False

    def stop(self) -> float:
        self._running = False
        return self._accumulated

    def elapsed(self) -> float:
        return self._accumulated

    def charge(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError("cannot charge negative time")
        if self._running and not self._paused:
            self._accumulated += seconds


class CpuCostModel:
    """Fixed + variable CPU overheads per job tag.

    The paper calibrates the centralized runtime with four parameters —
    fixed and variable (per byte) CPU overhead on message send and on
    message receive — measured with a network-flooding benchmark (§4.1).
    This class generalizes that to arbitrary job tags so the same model
    covers certification, marshaling, and timer callbacks.

    Default values approximate the paper's Pentium III 1 GHz testbed:
    a UDP send costs ~20 µs + ~9 ns/byte (≈ 470 Mbit/s peak write
    bandwidth at 4 KB messages, Figure 3(a)), a receive ~15 µs + 6 ns/byte.
    """

    #: Tag for the CPU work of pushing a datagram into the stack.
    SEND = "send"
    #: Tag for the CPU work of receiving a datagram from the stack.
    RECV = "recv"
    #: Tag for general protocol timer callbacks (stability rounds etc.).
    TIMER = "timer"
    #: Tag for jobs whose cost is charged entirely inside the job body
    #: (e.g. benchmark drivers calling rt_send, which charges SEND).
    NOOP = "noop"

    _DEFAULTS: Dict[str, Tuple[float, float]] = {
        SEND: (20e-6, 9e-9),
        RECV: (15e-6, 6e-9),
        TIMER: (5e-6, 0.0),
        NOOP: (0.0, 0.0),
    }

    def __init__(self, overrides: Optional[Dict[str, Tuple[float, float]]] = None):
        self._costs: Dict[str, Tuple[float, float]] = dict(self._DEFAULTS)
        if overrides:
            for tag, (fixed, per_byte) in overrides.items():
                self.register(tag, fixed, per_byte)

    def register(self, tag: str, fixed: float, per_byte: float = 0.0) -> None:
        """Set the cost parameters for ``tag``."""
        if fixed < 0 or per_byte < 0:
            raise ValueError("costs must be non-negative")
        self._costs[tag] = (fixed, per_byte)

    def cost(self, tag: str, nbytes: int = 0) -> float:
        """CPU seconds consumed by a ``tag`` job over ``nbytes`` bytes.

        Unknown tags fall back to the TIMER cost so experiments do not
        silently run free of CPU accounting.
        """
        try:
            fixed, per_byte = self._costs[tag]
        except KeyError:
            fixed, per_byte = self._costs[self.TIMER]
        return fixed + per_byte * nbytes

    def tags(self) -> Tuple[str, ...]:
        return tuple(self._costs)
