"""Discrete-event simulation kernel modeled after the Scalable Simulation
Framework (SSF).

The paper builds its tool on the Java SSF; this module is the Python
equivalent substrate: a deterministic event queue plus two programming
models layered on it:

* **callback events** — ``Simulator.call`` runs a callable at a future
  simulated instant; ``Simulator.schedule`` does the same and returns
  the :class:`Event`, for the two callbacks that may be cancelled: the
  end of a modeled CPU job (preemption) and a protocol timer.
* **processes** — generator coroutines driven by :class:`Process`,
  each yielding a number (sleep) or a :class:`Signal` (wait); the
  database-server and client models are written in this style because
  transactions are naturally sequential (fetch, process, write, commit).
  A signal stays fired: a process that yields one already fired
  resumes at once, with the fired value.

Simulated time is a ``float`` number of seconds.  Ties are broken by a
monotonically increasing sequence number so the execution order is fully
deterministic for a given schedule of calls: events run in ``(time,
seq)`` order, whichever of the two containers below holds them.

A zero-delay hop that would run next anyway is taken in place
(:meth:`Simulator.elide_hop`: it costs its sequence number, not an
event); ``events_executed`` counts events, not hops; a stopped run
elides nothing.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Generator, Optional

__all__ = [
    "Simulator",
    "Event",
    "Process",
    "Signal",
    "Entity",
    "SimulationError",
    "MS",
    "US",
    "KB",
    "MB",
]

#: One millisecond, in simulated seconds.
MS = 1e-3
#: One microsecond, in simulated seconds.
US = 1e-6
#: One kilobyte, in bytes (used pervasively by the network model).
KB = 1024
#: One megabyte, in bytes.
MB = 1024 * 1024

# Module-level binding: a global load beats attribute lookup on the two
# hottest scheduling entry points.
_heappush = heapq.heappush


class SimulationError(Exception):
    """Raised on misuse of the simulation kernel (e.g. scheduling in the past)."""


class Event:
    """A scheduled callback.

    Events are returned by :meth:`Simulator.schedule` and may be cancelled
    before they fire.  A cancelled event stays in the heap but is skipped
    when popped (lazy deletion), which keeps cancellation O(1); the owning
    simulator compacts the heap once cancelled entries outnumber live
    ones, so cancel-heavy workloads cannot bloat the queue.

    The heap itself is ordered by ``(time, seq)`` *tuples* — plain tuple
    comparison runs in C, and event ordering is the hottest comparison in
    the entire simulator — so events never need to be compared directly.
    """

    __slots__ = ("time", "seq", "fn", "args", "cancelled", "_sim")

    def __init__(
        self,
        time: float,
        seq: int,
        fn: Callable[..., Any],
        args: tuple,
        sim: "Optional[Simulator]" = None,
    ):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False
        self._sim = sim

    def cancel(self) -> None:
        """Prevent this event from firing.  Idempotent."""
        if not self.cancelled:
            self.cancelled = True
            if self._sim is not None:
                self._sim._note_cancelled()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = " cancelled" if self.cancelled else ""
        return f"<Event t={self.time:.6f} seq={self.seq}{state}>"


class Simulator:
    """The discrete-event scheduler at the heart of the tool.

    A single :class:`Simulator` instance owns the virtual clock for an
    entire experiment: every simulated host, CPU, link, client and the
    centralized runtime all schedule against it, which is precisely what
    gives the tool global observation and control (the paper's §2.2).
    """

    def __init__(self) -> None:
        #: Min-heap of ``(time, seq, event)`` entries — or, for the
        #: fire-and-forget :meth:`call` path, ``(time, seq, fn, args)``.
        #: Keyed by tuple so heap maintenance compares tuples in C —
        #: event comparison would otherwise dominate large campaigns
        #: (millions per cell).  ``(time, seq)`` is unique, so comparison
        #: never reaches the mixed third element.
        self._queue: list[tuple] = []
        #: The same-instant lane: handle-free ``(time, seq, fn, args)``
        #: entries scheduled with zero delay — signal wake-ups, lock and
        #: storage notifications, process starts: most events of a
        #: transaction.  All are at ``now`` and arrive in ``seq`` order,
        #: so a FIFO keeps them sorted and spares each a trip through
        #: the heap.  The clock never passes a non-empty lane.
        self._lane: deque[tuple] = deque()
        self._now = 0.0
        self._seq = 0
        #: Sequence number of the event being executed (of the last one
        #: executed, between events).  A lazily-completing CPU compares
        #: it with the number it reserved for a completion event it
        #: never pushed, to tell whether that event would already have
        #: run at this very instant (see :mod:`repro.core.cpu`).
        self._exec_seq = 0
        #: Latest end of work whose completion event was elided: a
        #: draining run still ends there, as it did when the event
        #: existed.
        self._horizon = 0.0
        #: :meth:`run` is executing (see :meth:`elide_hop`).
        self._running = False
        self._stopped = False
        #: Cancelled events still sitting in the heap (lazy deletion).
        self._cancelled = 0
        self.events_executed = 0
        #: What :meth:`fired_signal` hands out for an elided ``None``.
        self._fired_none = Signal(self)
        self._fired_none.fire()

    # ------------------------------------------------------------------
    # clock
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Run ``fn(*args)`` after ``delay`` simulated seconds.

        ``delay`` must be non-negative; scheduling "now" (delay 0) is
        permitted and runs after already-queued events for this instant.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay!r}s in the past")
        time = self._now + delay
        self._seq += 1
        event = Event(time, self._seq, fn, args, self)
        _heappush(self._queue, (time, self._seq, event))
        return event

    def call(self, delay: float, fn: Callable[..., Any], *args: Any) -> None:
        """Fire-and-forget :meth:`schedule`: no :class:`Event` handle, so
        the callback cannot be cancelled.

        Most scheduling in the simulator never uses the returned handle —
        link transmissions, storage request completions, lock wake-ups,
        process steps — yet :meth:`schedule` pays for an :class:`Event`
        allocation each time.  This variant pushes a bare
        ``(time, seq, fn, args)`` entry instead — onto the same-instant
        lane when ``delay`` is zero.  Ordering is identical: the entry
        consumes the same sequence number a handle-bearing event would
        have, and comparison never reaches the third element because
        ``(time, seq)`` keys are unique.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay!r}s in the past")
        self._seq += 1
        if delay:
            _heappush(self._queue, (self._now + delay, self._seq, fn, args))
        else:
            self._lane.append((self._now, self._seq, fn, args))

    def elide_hop(self) -> bool:
        """Whether a zero-delay :meth:`call` made now would be the very
        next event executed — an unstopped :meth:`run` is executing an
        event, the lane is empty, the heap holds nothing at
        ``now`` — and if so take that hop: its sequence number is
        consumed and ``_exec_seq`` advanced as executing it would, and
        the caller does inline what it would have scheduled.

        **Tail position only**: after a true answer the caller's stack
        may only ``return`` / ``yield`` until the running event ends —
        anything else it did would have run *before* the hop."""
        if not self._running or self._lane or self._stopped:
            return False
        queue = self._queue
        if queue and queue[0][0] <= self._now:
            return False
        self._seq += 1
        self._exec_seq = self._seq
        return True

    def fired_signal(self, value: Any = None) -> "Signal":
        """A signal fired with ``value`` on a zero-delay hop — already
        fired if the hop is elided, so under :meth:`elide_hop`'s
        contract: return it straight to the process that yields it."""
        elided = self.elide_hop()
        if elided and value is None:
            return self._fired_none
        done = Signal(self)
        if elided:
            done.fire(value)
        else:
            self.call(0.0, done.fire, value)
        return done

    def _note_cancelled(self) -> None:
        """Lazy-deletion bookkeeping: compact the heap once cancelled
        entries exceed half of it (with a small floor so tiny queues
        don't churn).  Compaction filters in place — ``run`` holds an
        alias to the list — and reheapifies; pop order is unaffected
        because the ``(time, seq)`` keys are unique and total."""
        self._cancelled += 1
        queue = self._queue
        if self._cancelled > 8 and self._cancelled * 2 > len(queue):
            queue[:] = [
                entry for entry in queue if len(entry) == 4 or not entry[2].cancelled
            ]
            heapq.heapify(queue)
            self._cancelled = 0

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None) -> float:
        """Execute events until the queue drains or ``until`` is reached.
        Returns the final simulated time.

        When ``until`` is given the clock is advanced to exactly ``until``
        even if the queue drained earlier, mirroring SSF's bounded runs —
        unless :meth:`stop` cut the run short: the clock never passes an
        event still to run.
        """
        if self._running:
            raise SimulationError("simulator is not reentrant")
        self._running = True
        self._stopped = False
        executed = 0
        # The hottest loop in the repository: locals for the queue (its
        # identity is stable — compaction filters in place), the lane
        # and the pops, tuple unpacking instead of attribute loads.
        queue = self._queue
        heappop = heapq.heappop
        limit = float("inf") if until is None else until
        # Lane entries are all at ``now``: a bound already in the past
        # runs none of them (nor anything else).
        lane = self._lane if self._now <= limit else ()
        popleft = self._lane.popleft
        try:
            while not self._stopped:
                # Whichever of heap top and lane head has the smaller
                # (time, seq) runs: one total order over two containers.
                # A heap entry at ``now`` can precede the lane's head —
                # pushed earlier, or under a CPU's reserved lower seq.
                if lane and not (queue and queue[0] < lane[0]):
                    _, self._exec_seq, fn, args = popleft()
                    fn(*args)
                elif queue:
                    entry = queue[0]
                    time = entry[0]
                    if time > limit:
                        break
                    heappop(queue)
                    if len(entry) == 4:
                        # Fire-and-forget entry from :meth:`call` — nothing
                        # to check for cancellation, just dispatch.
                        self._now = time
                        self._exec_seq = entry[1]
                        entry[2](*entry[3])
                    else:
                        event = entry[2]
                        if event.cancelled:
                            self._cancelled -= 1
                            continue
                        self._now = time
                        self._exec_seq = entry[1]
                        event.fn(*event.args)
                else:
                    break
                executed += 1
        finally:
            self._running = False
            self.events_executed += executed
        if not self._stopped:
            # Drained, or everything up to ``until`` has run: no event at
            # the final instant is still to come, an elided one included.
            self._exec_seq = self._seq
            if not (queue or lane) and self._now < self._horizon <= limit:
                self._now = self._horizon
            if until is not None and self._now < until:
                self._now = until
        return self._now

    def stop(self) -> None:
        """Stop :meth:`run` after the currently executing event returns."""
        self._stopped = True

    def pending(self) -> int:
        """Number of live (non-cancelled) events still queued."""
        return len(self._lane) + sum(
            1 for entry in self._queue if len(entry) == 4 or not entry[2].cancelled
        )

    # ------------------------------------------------------------------
    # processes
    # ------------------------------------------------------------------
    def process(self, generator: Generator, name: str = "") -> "Process":
        """Start a generator coroutine as a simulated process.

        The generator may yield:

        * a number — sleep that many simulated seconds;
        * a :class:`Signal` — suspend until the signal fires, receiving the
          fired value as the result of the ``yield``.

        Its return value is discarded: a process that must report back
        fires a :class:`Signal` of its own.
        """
        proc = Process(self, generator, name)
        # Start on a fresh event so creation order equals start order but
        # the caller's frame finishes first.
        self.call(0.0, proc._step, None)
        return proc


class Signal:
    """A wake-up condition for processes that stays fired.

    Processes that yield a signal are suspended until :meth:`fire` is
    called, at which point all current waiters are resumed with the fired
    value.  A fired signal releases any later waiter at once, with the
    stored value: a result handed to a process cannot be missed by
    waiting for it too late.
    """

    __slots__ = ("sim", "_fired", "_value", "_waiters")

    def __init__(self, sim: Simulator):
        self.sim = sim
        self._fired = False
        self._value: Any = None
        self._waiters: list[Callable[[Any], None]] = []

    @property
    def fired(self) -> bool:
        return self._fired

    def fire(self, value: Any = None) -> None:
        """Wake all waiting processes with ``value``."""
        self._fired = True
        self._value = value
        waiters, self._waiters = self._waiters, []
        sim = self.sim
        for waiter in waiters:
            # Inlined zero-delay Simulator.call.
            sim._seq += 1
            sim._lane.append((sim._now, sim._seq, waiter, (value,)))

    def _add_waiter(self, resume: Callable[[Any], None]) -> None:
        if self._fired:
            self.sim.call(0.0, resume, self._value)
        else:
            self._waiters.append(resume)


class Process:
    """A running generator coroutine (see :meth:`Simulator.process`)."""

    __slots__ = ("sim", "name", "_gen")

    def __init__(self, sim: Simulator, generator: Generator, name: str = ""):
        self.sim = sim
        self.name = name
        self._gen = generator

    def _step(self, sent_value: Any) -> None:
        while True:
            try:
                yielded = self._gen.send(sent_value)
            except StopIteration:
                return
            # A signal that has already fired wakes us on a zero-delay
            # hop: taken here, in the tail of this event.
            if yielded.__class__ is Signal and yielded._fired:
                if self.sim.elide_hop():
                    sent_value = yielded._value
                    continue
            self._dispatch(yielded)
            return

    def _dispatch(self, yielded: Any) -> None:
        if isinstance(yielded, (int, float)):
            # Sleeps are never cancelled, so the handle-free path
            # applies — inlined, as every transaction step in the
            # process model passes through here.
            delay = float(yielded)
            if delay < 0:
                raise SimulationError(f"cannot schedule {delay!r}s in the past")
            sim = self.sim
            sim._seq += 1
            _heappush(sim._queue, (sim._now + delay, sim._seq, self._step, (None,)))
        elif isinstance(yielded, Signal):
            yielded._add_waiter(self._step)
        else:
            raise SimulationError(
                f"process {self.name!r} yielded unsupported value {yielded!r}"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Process {self.name!r}>"


class Entity:
    """Base class for simulation components owning a reference to the clock.

    SSF models are built as libraries of entities; ours follow suit.  The
    class only centralizes the ``sim`` handle and the scheduling helper
    so component code reads naturally: ``self.call`` is
    :meth:`Simulator.call`.
    """

    def __init__(self, sim: Simulator, name: str = ""):
        self.sim = sim
        self.name = name or type(self).__name__
        # Bound on the instance: entity scheduling is hot-path (every
        # link transmission and cache-hit notification goes through
        # it), so no delegation frame.
        self.call = sim.call

    @property
    def now(self) -> float:
        return self.sim._now

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"
