"""Simulated CPUs: the resource real and simulated jobs compete for.

The paper (§2.2) models a CPU as a boolean busy flag plus a queue of
pending jobs with durations.  The two kinds of job enter through twin
methods.  A simulated job (transaction processing operations) has its
duration known in advance: :meth:`SimulatedCpu.submit_sim` queues the
``(duration, on_complete)`` pair.  A real job (protocol code) is executed
when dequeued and its *measured* duration keeps the CPU busy:
:meth:`SimulatedCpu.submit_real` takes the code.  Real jobs have
priority: a running simulated job is preempted — its remaining duration
is put back at the head of the queue — so protocol code is never delayed
behind modeled transaction work (§3.1).

**The life of a real job**, continued from :mod:`repro.core.csrt`:

* *inline or queued* — an idle CPU runs ``execute(*args)`` inside the
  submitting call; a busy one queues the ``(execute, args, on_complete)``
  triple (a pool places it by ``_choose`` first);
* *lazy or eager completion* — the CPU is busy for the returned duration
  and takes the next kernel sequence number for its completion event.
  The event is pushed (eager) only if somebody waits for it: an
  ``on_complete``, or work queued behind.  Otherwise the CPU merely
  remembers ``(end, reserved_seq)``;
* *settle* — whoever next looks at the CPU first retires a lazy job whose
  end has passed (``busy_time``, ``jobs_completed``, idle).  Work that
  arrives before the end queues, and pushes the event late **under the
  reserved key**.

Simulated results cannot tell: the heap orders by ``(time, seq)``, the
number is taken where the eager push took it, and at a late push every
key already popped is below the reserved one.  Only an arrival at exactly
``end`` needs care — the elided event has run iff its number is below that
of the event executing now, hence ``Simulator._exec_seq`` — and a draining
``run()`` still ends at the last job's end (``Simulator._horizon``).

Per-kind busy-time accounting feeds the resource-usage results of
Figures 6(a) and 7(c).
"""

from __future__ import annotations

from collections import deque
from heapq import heappush as _heappush
from typing import Callable, Deque, Dict, List, Optional, Tuple

from .kernel import Entity, Event, Simulator

__all__ = ["SimulatedCpu", "CpuPool", "SIM_JOB", "REAL_JOB"]

#: Kind marker for modeled jobs with a pre-known duration.
SIM_JOB = "sim"
#: Kind marker for real protocol code measured at execution time.
REAL_JOB = "real"


class SimulatedCpu(Entity):
    """One processor: busy flag, priority queues, preemption, accounting."""

    def __init__(self, sim: Simulator, name: str = "cpu"):
        super().__init__(sim, name)
        self._real_queue: Deque[tuple] = deque()  # (execute, args, on_complete)
        self._sim_queue: Deque[tuple] = deque()  # (duration, on_complete)
        #: Kind of the running job, ``None`` when idle — stale until
        #: :meth:`_settle` has run, so private to this class.
        self._current: Optional[str] = None
        self._current_started = 0.0
        #: The cancellable end of the running modeled job (preemption).
        self._end_event: Optional[Event] = None
        #: End and reserved sequence number of a running real job whose
        #: completion event was not pushed (0: none; numbering starts at 1).
        self._lazy_end = 0.0
        self._lazy_seq = 0
        self._busy_time = {SIM_JOB: 0.0, REAL_JOB: 0.0}
        self._jobs_completed = {SIM_JOB: 0, REAL_JOB: 0}

    # ------------------------------------------------------------------
    # public interface
    # ------------------------------------------------------------------
    @property
    def busy(self) -> bool:
        if self._lazy_seq:
            self._settle()
        return self._current is not None

    @property
    def current_kind(self) -> Optional[str]:
        if self._lazy_seq:
            self._settle()
        return self._current

    @property
    def busy_time(self) -> Dict[str, float]:
        """Cumulative busy seconds of *completed* service by job kind."""
        self._settle()
        return self._busy_time

    @property
    def jobs_completed(self) -> Dict[str, int]:
        self._settle()
        return self._jobs_completed

    def queue_length(self) -> int:
        # No settle: a lazily-completing job has, by construction,
        # nothing queued behind it.
        return len(self._real_queue) + len(self._sim_queue)

    def busy_seconds(self) -> Tuple[float, float]:
        """``(sim, real)`` cumulative busy seconds, including the served
        slice of the running job so sampling mid-run does not
        under-report.  The one accessor samplers and reports use."""
        self._settle()
        sim_part = self._busy_time[SIM_JOB]
        real_part = self._busy_time[REAL_JOB]
        if self._current == SIM_JOB:
            sim_part = sim_part + (self.sim._now - self._current_started)
        elif self._current is not None:
            real_part = real_part + (self.sim._now - self._current_started)
        return sim_part, real_part

    def submit_sim(
        self, duration: float, on_complete: Optional[Callable[[], None]] = None
    ) -> None:
        """Queue ``duration`` seconds of modeled work and dispatch;
        ``on_complete`` fires once it has all been served."""
        if duration < 0:
            raise ValueError("duration must be non-negative")
        if self._lazy_seq:
            self._settle()
        self._sim_queue.append((duration, on_complete))
        if self._lazy_seq:
            # Work now waits behind the lazily-completing job: it needs
            # its wake-up after all, under the key reserved for it.
            _heappush(
                self.sim._queue,
                (self._lazy_end, self._lazy_seq, self._complete, (REAL_JOB, None)),
            )
            self._lazy_seq = 0
        self._dispatch()

    def submit_real(
        self,
        execute: Callable[..., float],
        args: tuple = (),
        on_complete: Optional[Callable[[], None]] = None,
    ) -> None:
        """The real-job fast lane: run ``execute(*args)`` in this call if
        the CPU is idle, else queue the triple and preempt modeled work."""
        if self._lazy_seq:
            self._settle()
        if self._current is None and not self._real_queue:
            self._start_real(execute, args, on_complete)
            return
        self._real_queue.append((execute, args, on_complete))
        if self._current == SIM_JOB:
            self._preempt_current()
        elif self._lazy_seq:
            # As in submit_sim(): the lazy job needs its wake-up after all.
            _heappush(
                self.sim._queue,
                (self._lazy_end, self._lazy_seq, self._complete, (REAL_JOB, None)),
            )
            self._lazy_seq = 0
        if self._current is None:
            self._dispatch()

    def utilization(self, elapsed: float) -> dict:
        """Fraction of ``elapsed`` spent busy, split by job kind."""
        if elapsed <= 0:
            return {SIM_JOB: 0.0, REAL_JOB: 0.0, "total": 0.0}
        sim_busy, real_busy = self.busy_seconds()
        sim_frac = sim_busy / elapsed
        real_frac = real_busy / elapsed
        return {SIM_JOB: sim_frac, REAL_JOB: real_frac, "total": sim_frac + real_frac}

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _settle(self) -> None:
        """Retire the lazily-completing job, if there is one and its
        elided completion event would have run by now.  Hot callers test
        ``_lazy_seq`` themselves: modeled-only sites never pay the call."""
        seq = self._lazy_seq
        if seq:
            sim = self.sim
            end = self._lazy_end
            if end < sim._now or (end == sim._now and seq <= sim._exec_seq):
                self._lazy_seq = 0
                self._busy_time[REAL_JOB] += end - self._current_started
                self._jobs_completed[REAL_JOB] += 1
                self._current = None

    def _preempt_current(self) -> None:
        """Push the running simulated job back with its remaining duration."""
        event = self._end_event
        assert event is not None
        event.cancel()
        now = self.sim._now
        self._busy_time[SIM_JOB] += now - self._current_started
        _, on_complete = event.args
        self._sim_queue.appendleft((max(0.0, event.time - now), on_complete))
        self._current = self._end_event = None

    def _dispatch(self) -> None:
        if self._current is not None:
            return
        if self._real_queue:
            self._start_real(*self._real_queue.popleft())
        elif self._sim_queue:
            duration, on_complete = self._sim_queue.popleft()
            self._current = SIM_JOB
            self._current_started = self.sim._now
            self._end_event = self.sim.schedule(
                duration, self._complete, SIM_JOB, on_complete
            )

    def _start_real(self, execute, args: tuple, on_complete) -> None:
        sim = self.sim
        self._current = REAL_JOB
        self._current_started = sim._now
        duration = execute(*args)
        if duration < 0:
            raise ValueError("measured duration must be non-negative")
        # Real jobs are never preempted (only modeled work is), so their
        # completion needs no cancellable handle: an inlined
        # fire-and-forget schedule (see Simulator.call) — or, when nobody
        # waits for it, only the sequence number that schedule would take.
        end = sim._now + duration
        sim._seq += 1
        if on_complete is None and not self._real_queue and not self._sim_queue:
            self._lazy_end = end
            self._lazy_seq = sim._seq
            if end > sim._horizon:
                sim._horizon = end
        else:
            _heappush(
                sim._queue, (end, sim._seq, self._complete, (REAL_JOB, on_complete))
            )

    def _complete(self, kind: str, on_complete: Optional[Callable[[], None]]) -> None:
        self._busy_time[kind] += self.sim._now - self._current_started
        self._jobs_completed[kind] += 1
        self._current = self._end_event = None
        if on_complete is not None:
            on_complete()
        self._dispatch()


class CpuPool(Entity):
    """A set of identical CPUs served round-robin (§3.1).

    Placement prefers an idle CPU; failing that, a real job preempts the
    CPU running modeled work, and modeled jobs go to the shortest queue
    with a rotating tie-break so load spreads evenly.
    """

    def __init__(self, sim: Simulator, count: int = 1, name: str = "cpus"):
        super().__init__(sim, name)
        if count < 1:
            raise ValueError("need at least one CPU")
        self.cpus: List[SimulatedCpu] = [
            SimulatedCpu(sim, f"{name}[{i}]") for i in range(count)
        ]
        self._rr = 0

    def __len__(self) -> int:
        return len(self.cpus)

    def submit_sim(
        self, duration: float, on_complete: Optional[Callable[[], None]] = None
    ) -> None:
        """Place modeled work on a CPU (see :meth:`SimulatedCpu.submit_sim`)."""
        self._choose(SIM_JOB).submit_sim(duration, on_complete)

    def submit_real(
        self,
        execute: Callable[..., float],
        args: tuple = (),
        on_complete: Optional[Callable[[], None]] = None,
    ) -> None:
        """Place real code and run it at once where the placement is an
        idle CPU (see :meth:`SimulatedCpu.submit_real`)."""
        self._choose(REAL_JOB).submit_real(execute, args, on_complete)

    def _choose(self, kind: str) -> SimulatedCpu:
        n = len(self.cpus)
        if n == 1:
            # Single-CPU pool (the common configuration): every branch
            # below resolves to that CPU with ``_rr`` left at 0, so the
            # scans are pure overhead on the per-job hot path.
            return self.cpus[0]
        # First choice: an idle CPU, scanning from the rotation point.
        # State is read as fields: ``busy`` and ``queue_length()`` are calls.
        rr = self._rr
        order = self.cpus[rr:] + self.cpus[:rr]
        for offset, cpu in enumerate(order):
            if cpu._lazy_seq:
                cpu._settle()
            if cpu._current is None and not cpu._real_queue and not cpu._sim_queue:
                self._rr = (rr + offset + 1) % n
                return cpu
        if kind == REAL_JOB:
            # Prefer a CPU running modeled work (it will be preempted)
            # over one already running real code; all are settled above.
            for offset, cpu in enumerate(order):
                if cpu._current == SIM_JOB:
                    self._rr = (rr + offset + 1) % n
                    return cpu
        lengths = [len(cpu._real_queue) + len(cpu._sim_queue) for cpu in order]
        best = lengths.index(min(lengths))
        self._rr = (rr + best + 1) % n
        return order[best]

    def utilization(self, elapsed: float) -> dict:
        """Average utilization across all CPUs, split by job kind."""
        totals = {SIM_JOB: 0.0, REAL_JOB: 0.0, "total": 0.0}
        for cpu in self.cpus:
            part = cpu.utilization(elapsed)
            for key in totals:
                totals[key] += part[key]
        return {key: value / len(self.cpus) for key, value in totals.items()}
