"""Message-loss processes used by the fault injector (paper §5.3).

Two of the paper's five fault types are loss processes applied to each
message upon reception:

* **random loss** — each message discarded independently with probability
  ``p``; models transmission errors;
* **bursty loss** — alternating good/bad periods with randomly generated
  lengths; during a bad period every message is discarded; models
  congestion.  The paper's experiment uses 5 % total loss in bursts of
  average length 5 messages (uniformly distributed).

Both are *decision processes*: stateful objects answering "drop this
one?" per message, usable by the fault injector (reception-side
injection, as in the paper) or by the network fabric (wire-side loss).
"""

from __future__ import annotations

import random
from typing import Optional

__all__ = ["LossProcess", "RandomLoss", "BurstyLoss"]


class LossProcess:
    """Decides, message by message, whether to discard."""

    def should_drop(self) -> bool:
        raise NotImplementedError

    #: Number of drop decisions taken (drops / total gives realized rate).
    decisions: int = 0
    drops: int = 0

    def realized_rate(self) -> float:
        if self.decisions == 0:
            return 0.0
        return self.drops / self.decisions


class RandomLoss(LossProcess):
    """Independent Bernoulli loss with probability ``p``."""

    def __init__(self, p: float, rng: Optional[random.Random] = None):
        if not 0.0 <= p <= 1.0:
            raise ValueError("loss probability must be in [0, 1]")
        self.p = p
        self.rng = rng or random.Random(0)

    def should_drop(self) -> bool:
        self.decisions += 1
        drop = self.rng.random() < self.p
        if drop:
            self.drops += 1
        return drop


class BurstyLoss(LossProcess):
    """Alternating receive/discard periods measured in messages.

    Period lengths are uniform on ``[1, 2*mean - 1]`` (integer, so the
    mean is ``mean``).  The overall loss rate is
    ``mean_burst / (mean_burst + mean_gap)``; to inject 5 % loss with
    bursts of mean length 5 the gap mean must be 95.
    """

    def __init__(
        self,
        mean_burst: float = 5.0,
        mean_gap: float = 95.0,
        rng: Optional[random.Random] = None,
    ):
        if mean_burst < 1 or mean_gap < 1:
            raise ValueError("period means must be >= 1 message")
        self.mean_burst = mean_burst
        self.mean_gap = mean_gap
        self.rng = rng or random.Random(0)
        self._in_burst = False
        self._remaining = self._draw_length(self.mean_gap)

    @classmethod
    def for_rate(
        cls,
        rate: float,
        mean_burst: float = 5.0,
        rng: Optional[random.Random] = None,
    ) -> "BurstyLoss":
        """Build a process with overall loss ``rate`` and given burst mean."""
        if not 0.0 < rate < 1.0:
            raise ValueError("rate must be in (0, 1)")
        mean_gap = mean_burst * (1.0 - rate) / rate
        return cls(mean_burst=mean_burst, mean_gap=max(1.0, mean_gap), rng=rng)

    def _draw_length(self, mean: float) -> int:
        # Uniform integer on [1, 2*mean - 1] has mean ``mean``.
        high = max(1, int(round(2 * mean - 1)))
        return self.rng.randint(1, high)

    def should_drop(self) -> bool:
        self.decisions += 1
        if self._remaining <= 0:
            self._in_burst = not self._in_burst
            mean = self.mean_burst if self._in_burst else self.mean_gap
            self._remaining = self._draw_length(mean)
        self._remaining -= 1
        if self._in_burst:
            self.drops += 1
            return True
        return False
