"""Deterministic seed-stream derivation for scenario assembly.

Every component that needs randomness derives it from the scenario seed
through a *named stream*: ``derive_rng(seed, "workload", site_index)``.
Each stream owns a multiplier in the :data:`_STREAMS` table; a new
component — a new replication protocol in particular — adds one entry
there, and a unit test rejects a multiplier two streams share, so no
two streams can silently correlate their randomness.

The multipliers reproduce the historical hand-rolled
``random.Random(seed * K + index)`` derivations bit-for-bit, so every
existing scenario's results are unchanged.
"""

from __future__ import annotations

import random
from typing import Dict

__all__ = ["derive_seed", "derive_rng", "stream_multiplier"]

#: stream name -> multiplier; seeds derive as ``seed * multiplier + index``.
_STREAMS: Dict[str, int] = {
    "workload": 77,  # per-site TPC-C generation and client think times
    "faults": 31,  # per-site fault-plan (loss model) seeds
}


def stream_multiplier(stream: str) -> int:
    try:
        return _STREAMS[stream]
    except KeyError:
        known = ", ".join(sorted(_STREAMS))
        raise ValueError(
            f"unknown seed stream {stream!r} (registered: {known})"
        ) from None


def derive_seed(seed: int, stream: str, index: int = 0) -> int:
    """The derived integer seed of ``(seed, stream, index)``."""
    return seed * stream_multiplier(stream) + index


def derive_rng(seed: int, stream: str, index: int = 0) -> random.Random:
    """A ``random.Random`` seeded from the named stream."""
    return random.Random(derive_seed(seed, stream, index))
