"""The CPU cost model: what a real job costs under the modeled clock.

The paper times real protocol code with the Linux ``perfctr`` virtualized
CPU cycle counters and charges the measured duration to the simulated
CPU; :class:`~repro.core.csrt.SiteRuntime` keeps that clock for the
running job.  Under the deterministic ``MODELED`` clock the duration is
declared instead: each job starts with the entry cost this model prices
for its tag (fixed + per-byte overheads — exactly the four parameters the
paper calibrates in §4.1), and protocol hot loops add explicit charges.
"""

from __future__ import annotations

from typing import Dict, Tuple

__all__ = ["CpuCostModel"]


class CpuCostModel:
    """Fixed + variable CPU overheads per job tag: one fixed table.

    The paper calibrates the centralized runtime with four parameters —
    fixed and variable (per byte) CPU overhead on message send and on
    message receive — measured with a network-flooding benchmark (§4.1).
    The table extends that to the other job tags so the same model
    covers marshaling and timer callbacks.

    The values approximate the paper's Pentium III 1 GHz testbed: a UDP
    send costs ~20 µs + ~9 ns/byte (≈ 470 Mbit/s peak write bandwidth at
    4 KB messages, Figure 3(a)), a receive ~15 µs + 6 ns/byte.
    """

    #: Tag for the CPU work of pushing a datagram into the stack.
    SEND = "send"
    #: Tag for the CPU work of receiving a datagram from the stack.
    RECV = "recv"
    #: Tag for general protocol timer callbacks (stability rounds etc.).
    TIMER = "timer"
    #: Tag for marshaling a protocol payload into a multicast.
    MARSHAL = "marshal"
    #: Tag for jobs whose cost is charged entirely inside the job body
    #: (e.g. benchmark drivers calling ``SiteRuntime.send``, which
    #: charges SEND).
    NOOP = "noop"

    #: ``tag -> (fixed seconds, seconds per byte)``.
    _COSTS: Dict[str, Tuple[float, float]] = {
        SEND: (20e-6, 9e-9),
        RECV: (15e-6, 6e-9),
        TIMER: (5e-6, 0.0),
        MARSHAL: (5e-6, 0.0),
        NOOP: (0.0, 0.0),
    }

    @staticmethod
    def cost(tag: str, nbytes: int = 0) -> float:
        """CPU seconds consumed by a ``tag`` job over ``nbytes`` bytes.

        An unpriced tag raises :class:`KeyError` naming it, so no job
        runs at a price nobody set.
        """
        fixed, per_byte = CpuCostModel._COSTS[tag]
        return fixed + per_byte * nbytes

    @staticmethod
    def tags() -> Tuple[str, ...]:
        return tuple(CpuCostModel._COSTS)
