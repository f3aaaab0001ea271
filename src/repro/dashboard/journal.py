"""The campaign event journal: append-only ``events.jsonl``.

The runner appends one JSON line per campaign event into the artifact
directory, so a running campaign can be observed — by ``python -m
repro.runner serve``, by ``tail -f``, by anything that can read JSON
lines — without touching the execution path.  The journal is *observability output only*: simulation results
are seeded solely by their configs, so a run with the journal disabled
is bit-identical to one with it enabled.

Format (``repro.events/1``): every line is a self-describing object
carrying the schema version ``v``, a monotonically increasing ``seq``,
the wall-clock instant ``wall`` and a ``kind``:

* ``campaign-start`` — campaign name, spec hash, cell/worker counts;
* ``cell-start`` — a cell was handed to an executor (``label``);
* ``cell-finish`` — a cell completed: status (its verdict, or
  ``failed``), source (``artifact`` marks a resume cache hit),
  duration, worker attribution (pid), and
  the runner's progress counters (``done``/``total``/``eta``/
  ``elapsed``) at that instant;
* ``violation`` — one :class:`~repro.monitors.InvariantViolation`
  flushed through from a finished cell, tagged with its cell label;
* ``campaign-end`` — final ok/failed (= not ok) counts and the wall.

The reader side is built for *live* files: :class:`JournalReader`
tracks a byte offset and only ever consumes complete lines, so a
partially written trailing line (the writer mid-append) is simply left
for the next poll.  Complete-but-corrupt lines and lines of an unknown
schema version are skipped and counted, never fatal.  Writers resume
sequence numbering from an existing journal, so a resumed campaign
appends to the same file.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Union

__all__ = [
    "JOURNAL_NAME",
    "JOURNAL_VERSION",
    "JournalReader",
    "JournalWriter",
    "journal_path",
    "read_journal",
]

#: Journal file name inside a campaign artifact directory.
JOURNAL_NAME = "events.jsonl"

#: Schema version stamped on (and required of) every event line.
JOURNAL_VERSION = 1


def journal_path(root: Union[str, Path]) -> Path:
    """The journal file for the campaign artifact directory ``root``."""
    return Path(root) / JOURNAL_NAME


class JournalReader:
    """Incremental, partial-line-tolerant ``events.jsonl`` reader.

    ``poll()`` returns the events appended since the previous poll.
    Only byte ranges ending in a newline are consumed: a trailing line
    still being written stays in the file for the next poll instead of
    being misparsed.  A journal that shrank (truncated/replaced) is
    re-read from the start.
    """

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)
        self._offset = 0
        #: Highest sequence number seen so far (0 before any event).
        self.last_seq = 0
        #: Complete lines dropped so far: corrupt JSON, non-object
        #: payloads, or an unknown schema version.
        self.skipped = 0

    def poll(self) -> List[Dict[str, object]]:
        """New complete events since the last poll (oldest first)."""
        try:
            with open(self.path, "rb") as fh:
                fh.seek(0, 2)
                size = fh.tell()
                if size < self._offset:  # truncated/rotated: start over
                    self._offset = 0
                fh.seek(self._offset)
                chunk = fh.read()
        except OSError:
            return []
        # Consume only up to the last newline; the tail is a line the
        # writer has not finished yet.
        complete = chunk.rfind(b"\n") + 1
        if complete <= 0:
            return []
        self._offset += complete
        events: List[Dict[str, object]] = []
        for raw in chunk[:complete].split(b"\n"):
            if not raw.strip():
                continue
            try:
                event = json.loads(raw.decode("utf-8"))
            except (ValueError, RecursionError):  # corrupt, non-UTF-8, too deep
                self.skipped += 1
                continue
            # ``type(...) is int``: JSON ``true`` and ``1.0`` compare
            # equal to 1 but are no version or sequence number.
            if (
                not isinstance(event, dict)
                or type(event.get("v")) is not int
                or event["v"] != JOURNAL_VERSION
                or type(event.get("seq")) is not int
            ):
                self.skipped += 1
                continue
            self.last_seq = max(self.last_seq, event["seq"])
            events.append(event)
        return events


def read_journal(
    path: Union[str, Path], since: int = 0
) -> List[Dict[str, object]]:
    """Every readable event in ``path`` with ``seq > since`` (a missing
    journal is an empty list, not an error)."""
    events = JournalReader(path).poll()
    return [e for e in events if e["seq"] > since]


class JournalWriter:
    """Append-only event writer; one flushed JSON line per event.

    Opening an existing journal resumes its sequence numbering, so a
    resumed campaign extends the same event history.  The writer is a
    context manager; it never buffers across events (each ``emit``
    flushes), so a live reader sees an event as soon as it happened.
    """

    def __init__(
        self,
        path: Union[str, Path],
        clock: Callable[[], float] = time.time,
    ):
        self.path = Path(path)
        self._clock = clock
        self._seq = 0
        if self.path.exists():
            reader = JournalReader(self.path)
            reader.poll()
            self._seq = reader.last_seq
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = open(self.path, "a", encoding="utf-8")

    # -- plumbing ------------------------------------------------------
    def emit(self, kind: str, **fields: object) -> Dict[str, object]:
        """Append one event line and return the event."""
        self._seq += 1
        event: Dict[str, object] = {
            "v": JOURNAL_VERSION,
            "seq": self._seq,
            "wall": round(self._clock(), 6),
            "kind": kind,
        }
        event.update(fields)
        self._fh.write(json.dumps(event) + "\n")
        self._fh.flush()
        return event

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()

    def __enter__(self) -> "JournalWriter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- the event vocabulary ------------------------------------------
    def campaign_started(
        self,
        campaign: str,
        total: int,
        workers: int,
        spec_hash: Optional[str] = None,
    ) -> None:
        self.emit(
            "campaign-start",
            campaign=campaign,
            total=total,
            workers=workers,
            spec_hash=spec_hash,
        )

    def cell_started(self, label: str) -> None:
        self.emit("cell-start", label=label)

    def cell_finished(
        self,
        label: str,
        status: str,
        source: str,
        duration: float,
        worker: Optional[int] = None,
        done: Optional[int] = None,
        total: Optional[int] = None,
        eta: Optional[float] = None,
        elapsed: Optional[float] = None,
        violations: int = 0,
    ) -> None:
        self.emit(
            "cell-finish",
            label=label,
            status=status,
            source=source,
            duration=round(duration, 6),
            worker=worker,
            done=done,
            total=total,
            eta=None if eta is None else round(eta, 3),
            elapsed=None if elapsed is None else round(elapsed, 3),
            violations=violations,
        )

    def violation(self, label: str, violation) -> None:
        """Flush one cell's :class:`~repro.monitors.InvariantViolation`
        through to the journal (``violation`` may be the dataclass or
        its ``to_dict`` payload)."""
        payload = (
            violation.tagged(label)
            if hasattr(violation, "tagged")
            else {**dict(violation), "label": label}
        )
        self.emit("violation", label=label, violation=payload)

    def campaign_finished(
        self, ok: int, failed: int, elapsed: float
    ) -> None:
        self.emit(
            "campaign-end", ok=ok, failed=failed, elapsed=round(elapsed, 3)
        )
