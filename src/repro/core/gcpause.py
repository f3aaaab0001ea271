"""The one policy for the cyclic garbage collector.

A simulation run and an artifact read allocate many objects and no
reference cycles, so the collector's passes over them free nothing:
:func:`paused_gc` switches it off around them, and back on only if it
was the one that switched it off, so a nested pause, or a concurrent
``serve`` thread's, never leaves it off.  Whoever owns a paused graph's
lifetime reclaims it.  ``Scenario.run`` called directly sweeps once,
fully, after the run, for memory rather than speed: a paused run never
frees the cyclic graphs of earlier direct runs, and a caller that keeps
each ``Scenario`` (to read ``scenario.sites``) until it has built the
next one peaks 13–14 % higher in RSS without the sweep over the
benchmark's ``lan-loaded`` and ``faults-monitored`` cells (35.6 → 40.5
and 31.0 → 35.1 MB), past the benchmark's 10 % bound.  The campaign
runner drops each cell's graph and collects the young generation alone
(a full sweep per cell would walk the whole process heap, quadratic in
the cells).  A reader stays paused from an artifact's JSON to its
decoded result, so the JSON dies by reference count before the collector
is back, never walked.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from typing import Iterator

__all__ = ["paused_gc"]


@contextmanager
def paused_gc() -> Iterator[bool]:
    """Pause the cyclic collector for the block; yields whether this
    call paused it (``False``: it was already off)."""
    paused = gc.isenabled()
    if paused:  # a thread that saw it off must not switch it off later
        gc.disable()
    try:
        yield paused
    finally:
        if paused:
            gc.enable()
