"""Consolidated ``REPRO_*`` environment-knob parsing.

Every knob the package reads — ``REPRO_SCALE``, ``REPRO_WORKERS``,
``REPRO_ARTIFACT_DIR`` — goes through one of the helpers here, so a
misconfiguration is always reported the same way: a
:class:`RuntimeWarning` naming the knob, the offending value and the
value actually used, issued **once per distinct misconfiguration per
process**, followed by a clamp or a fall-back to the default.  A typo
like ``REPRO_SCALE=O.5`` can therefore never silently shrink a
campaign, and ``REPRO_WORKERS=many`` can never silently serialize one.

The knobs themselves are documented in the README's consolidated knob
table (kept in sync by ``tests/unit/test_docs_consistency.py``).
"""

from __future__ import annotations

import os
import warnings
from typing import Optional, Tuple

__all__ = ["env_float", "env_int", "env_str", "warn_once"]

#: Complaints already issued, keyed by (knob, kind, offending value) —
#: each distinct misconfiguration warns exactly once per process.
_WARNED: set = set()


def warn_once(key: Tuple[str, ...], message: str) -> None:
    """Issue ``message`` as a RuntimeWarning once per distinct ``key``."""
    if key in _WARNED:
        return
    _WARNED.add(key)
    warnings.warn(message, RuntimeWarning, stacklevel=3)


def env_float(name: str, default: float, minimum: float, maximum: float) -> float:
    """A float knob clamped to ``[minimum, maximum]``.

    An unparseable value falls back to ``default``, an out-of-range
    value is clamped — each with a warn-once instead of silently.
    """
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        value = float(raw)
        if value != value:  # NaN: parseable but meaningless
            raise ValueError(raw)
    except ValueError:
        warn_once(
            (name, "unparseable", raw),
            f"{name}={raw!r} is not a number; using the default {default}",
        )
        return default
    clamped = max(minimum, min(value, maximum))
    if clamped != value:
        warn_once(
            (name, "clamped", raw),
            f"{name}={raw} is outside [{minimum}, {maximum}]; "
            f"clamped to {clamped}",
        )
    return clamped


def env_int(name: str, default: int, minimum: Optional[int] = None) -> int:
    """An integer knob with an optional floor.

    An unparseable value falls back to ``default``, a value below
    ``minimum`` is clamped — each with a warn-once.
    """
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        warn_once(
            (name, "unparseable", raw),
            f"{name}={raw!r} is not an integer; using the default {default}",
        )
        return default
    if minimum is not None and value < minimum:
        warn_once(
            (name, "clamped", raw),
            f"{name}={raw} is below {minimum}; clamped to {minimum}",
        )
        return minimum
    return value


def env_str(name: str, default: Optional[str] = None) -> Optional[str]:
    """A plain string knob; an empty value counts as unset."""
    raw = os.environ.get(name)
    return raw if raw else default
