"""Progress and ETA reporting for campaign runs.

The runner emits one :class:`ProgressEvent` per finished cell.  Passing
``progress=True`` to :func:`~repro.runner.run_campaign` installs the
default :class:`CampaignProgress` printer (one line per cell on stderr);
passing a callable receives the raw events instead — which is also how
the tests observe scheduling without parsing output.
"""

from __future__ import annotations

import math
import sys
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Optional, TextIO

__all__ = ["ETA_WINDOW", "ProgressEvent", "CampaignProgress"]

#: How many recently *executed* cells feed the ETA rate estimate.
ETA_WINDOW = 32


@dataclass(frozen=True)
class ProgressEvent:
    """One campaign cell finished (run, loaded or failed)."""

    label: str
    status: str  # a verdict (repro.core.safety.VERDICTS) | "failed"
    source: str  # "in-process" | "worker" | "artifact"
    done: int  # cells finished so far (including this one)
    total: int  # cells in the campaign
    duration: float  # wall seconds spent on this cell (0 for artifacts)
    elapsed: float  # wall seconds since the campaign started
    eta: Optional[float]  # estimated remaining wall seconds, if known


class CampaignProgress:
    """Default progress printer: one line per finished cell with ETA.

    The ETA assumes the remaining cells cost the mean of the cells in
    the *executed window* — the last :data:`ETA_WINDOW` cells that
    actually ran.  Cache-hit cells (``source == "artifact"``) complete
    in ~0 s and never enter the window: on a resumed campaign they would
    otherwise drag the per-cell estimate toward zero and report an ETA
    of seconds for hours of remaining work.  The remaining cost is
    rounded up to whole worker *waves* (``ceil(remaining / workers)``),
    so a resumed campaign with fewer pending cells than workers predicts
    one full cell, not a fraction of one.
    """

    def __init__(
        self,
        total: int,
        workers: int = 1,
        stream: Optional[TextIO] = None,
        clock: Callable[[], float] = time.perf_counter,
    ):
        self.total = total
        self.workers = max(1, workers)
        self.stream = stream if stream is not None else sys.stderr
        self._clock = clock
        self._started = clock()
        self._done = 0
        self._window: Deque[float] = deque(maxlen=ETA_WINDOW)

    # ------------------------------------------------------------------
    def event(self, label: str, status: str, source: str, duration: float) -> ProgressEvent:
        """Account one finished cell and build its event."""
        self._done += 1
        if source != "artifact":
            self._window.append(duration)
        return ProgressEvent(
            label=label,
            status=status,
            source=source,
            done=self._done,
            total=self.total,
            duration=duration,
            elapsed=self.elapsed(),
            eta=self.eta(),
        )

    def elapsed(self) -> float:
        """Wall seconds since the campaign started."""
        return self._clock() - self._started

    def eta(self) -> Optional[float]:
        if not self._window:
            return None  # cache hits say nothing about cell cost
        remaining = self.total - self._done
        if remaining <= 0:
            return 0.0
        mean = sum(self._window) / len(self._window)
        return mean * math.ceil(remaining / self.workers)

    # ------------------------------------------------------------------
    def __call__(self, event: ProgressEvent) -> None:
        eta = f"ETA {event.eta:.0f}s" if event.eta is not None else "ETA ?"
        src = " (cached)" if event.source == "artifact" else ""
        print(
            f"[{event.done}/{event.total}] {event.status:<4} {event.label}{src} "
            f"{event.duration:.1f}s — elapsed {event.elapsed:.0f}s, {eta}",
            file=self.stream,
        )
