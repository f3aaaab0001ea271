"""Packet capture — the tcpdump-style observation facility (paper §2.1).

SSFNet logs traffic in tcpdump format; we record structured capture
entries that tests and benches query directly, and provide a text dump
with a tcpdump-flavoured line format for human inspection.  The capture
also keeps running byte and packet totals; Figure 6(c) (network KB/s vs
clients) is :class:`~repro.core.metrics.ResourceSampler`'s per-interval
deltas of ``total_bytes``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

__all__ = ["CaptureEntry", "PacketCapture"]


@dataclass(frozen=True, slots=True)
class CaptureEntry:
    """One packet observed on the fabric."""

    time: float
    source: str
    dest: str
    size: int
    kind: str  # "unicast" | "multicast" | "drop" | "partition"


class PacketCapture:
    """Accumulates :class:`CaptureEntry` records and byte/packet totals."""

    def __init__(self, keep_entries: bool = True):
        self.keep_entries = keep_entries
        self.entries: List[CaptureEntry] = []
        self.total_bytes = 0
        self.total_packets = 0

    def record(self, time: float, source: str, dest: str, size: int, kind: str) -> None:
        if self.keep_entries:
            self.entries.append(CaptureEntry(time, source, dest, size, kind))
        self.tally(size, kind)

    def tally(self, size: int, kind: str) -> None:
        """Totals-only accounting — the per-datagram fast path.

        The network plane calls this directly when entry retention is
        off, so the endpoint/destination strings a full :meth:`record`
        wants are never built for traffic nobody will inspect."""
        if kind not in ("drop", "partition"):
            self.total_bytes += size
            self.total_packets += 1

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def filter(self, predicate: Callable[[CaptureEntry], bool]) -> List[CaptureEntry]:
        return [e for e in self.entries if predicate(e)]

    def dump(self, limit: Optional[int] = None) -> str:
        """tcpdump-flavoured text listing (for debugging and examples)."""
        lines = []
        for entry in self.entries[: limit or len(self.entries)]:
            lines.append(
                f"{entry.time:12.6f} {entry.kind:<9} "
                f"{entry.source} > {entry.dest}: length {entry.size}"
            )
        return "\n".join(lines)
