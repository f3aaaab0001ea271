"""Flow control: rate-based first phase, window-based second phase.

The paper's protocol combines a **rate-based** mechanism governing
initial transmissions with the **window/buffer-share** mechanism that
governs how many unstable messages a sender may have outstanding
(§3.4).  The rate limiter here is a token bucket: initial multicasts
spend one token each and tokens refill at the configured rate, so a
burst up to ``burst`` messages passes immediately and anything faster
is delayed — smoothing exactly the kind of load spike a busy sequencer
or a hot replica produces.
"""

from __future__ import annotations

from .config import SEND_BURST

__all__ = ["TokenBucket"]


class TokenBucket:
    """Deterministic token bucket over the protocol runtime's clock."""

    def __init__(self, rate: float, burst: int = SEND_BURST):
        if rate <= 0 or burst < 1:
            raise ValueError("rate must be positive and burst >= 1")
        self.rate = rate
        self.burst = burst
        self._tokens = float(burst)
        self._last_refill = 0.0
        self.stats = {"passed": 0, "delayed": 0}

    def reserve(self, now: float) -> float:
        """Take one token; returns the delay (0 if it may go now).

        When the bucket is empty the caller must wait the returned delay
        before transmitting; the token is pre-charged so concurrent
        reservations queue up behind one another deterministically.
        """
        self._refill(now)
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            self.stats["passed"] += 1
            return 0.0
        deficit = 1.0 - self._tokens
        self._tokens -= 1.0  # go negative: later callers wait longer
        self.stats["delayed"] += 1
        return deficit / self.rate

    def available(self, now: float) -> float:
        self._refill(now)
        return max(0.0, self._tokens)

    def _refill(self, now: float) -> None:
        if now <= self._last_refill:
            return
        self._tokens = min(
            float(self.burst),
            self._tokens + (now - self._last_refill) * self.rate,
        )
        self._last_refill = now
