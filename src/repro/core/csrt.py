"""The centralized simulation runtime (CSRT) — the paper's §2 contribution.

Real protocol code (group communication, certification) executes inside
the discrete-event simulation.  Its duration is read from the running
job's clock and charged to a simulated CPU, so real jobs compete with
modeled transaction-processing jobs for the same processor.

:class:`SiteRuntime` is the simulated implementation of
:class:`~repro.core.runtime_api.ProtocolRuntime`: the group
communication stack and the replication protocols call its ``now``,
``schedule``, ``send`` and ``charge``.  It takes the site's socket, sends
through it and installs its own :meth:`SiteRuntime.deliver` as the
socket's receiver.

**The life of a real job.**  Every datagram and every protocol timer is
one.  There is one representation — ``(fn, args, entry_cost,
on_complete)`` — and one runner, :meth:`SiteRuntime._run`:

* *arrival* — :meth:`SiteRuntime.deliver` (a datagram that passed the
  crash and loss checks), an expiring :meth:`SiteRuntime.schedule`
  timer or :meth:`SiteRuntime.submit_real` prices the entry cost and
  hands ``_run, (fn, args, entry_cost)`` to the site's CPU — in one
  call, no closure, and no per-job object even when it has to queue;
* *inline or queued, lazy or eager completion, settle* — the CPU's half
  of the story, told in :mod:`repro.core.cpu`;
* *run* — ``_run`` opens the job's clock, runs ``fn(*args)`` and
  returns the seconds it used (after the fault injector's clock drift).
  A crashed site skips the code and holds the CPU for zero seconds.

**The job's clock** is one state kept by the runtime for both clock
modes: the seconds the running job has used so far (Δ1 in Figure 1(b)),
and whether it is running or has re-entered the runtime.  Under
``MODELED`` those seconds are the entry cost plus the job's
:meth:`SiteRuntime.charge` calls — the four send/receive parameters
the paper calibrates in §4.1, priced by
:class:`~repro.core.clock.CpuCostModel`.  Under ``MEASURED`` they are the
job's closed ``perf_counter_ns`` segments × ``cpu_scale`` (the paper's
perfctr mechanism; a scale of 2 simulates a processor half as fast as
the host), and a charge is ignored.

While the code runs, the two hazards of Figure 1(b) are handled exactly
as the paper prescribes:

* an event scheduled *by real code* with delay δq is entered into the
  simulation with delay δ′q = Δ1 + δq — otherwise the event could land
  in the simulation past;
* the clock is **frozen** whenever real code re-enters the runtime (to
  schedule or send): the open measured segment closes, and a charge
  made meanwhile is dropped, so runtime overhead is never billed to the
  job.  It runs again on return.

**A protocol timer** is a kernel :class:`~repro.core.kernel.Event`:
:meth:`SiteRuntime.schedule` returns the event itself, so a
cancelled timer is skipped by the kernel's lazy deletion like any other
cancelled event — it never runs and never counts as executed.  One that
expires on a live site becomes a real job at the ``TIMER`` price.

Fault injection (§5.3) intercepts calls in and out of this runtime
through the site's :class:`~repro.core.faults.FaultInjector`, its
``interceptor``.  A site without faults holds none and calls no hook.
Crash is the runtime's own state.
"""

from __future__ import annotations

from time import perf_counter_ns
from typing import TYPE_CHECKING, Any, Callable, Optional

from .clock import CpuCostModel
from .cpu import CpuPool
from .kernel import Entity, Event, Simulator
from .runtime_api import ProtocolRuntime

if TYPE_CHECKING:
    from ..net.udp import UdpSocket
    from .faults import FaultInjector

__all__ = ["SiteRuntime", "MEASURED", "MODELED"]

#: Clock mode: durations measured with the host's monotonic clock (the
#: paper's perfctr mechanism).
MEASURED = "measured"
#: Clock mode: durations taken from the deterministic CPU cost model.
MODELED = "modeled"
#: The job's clock while its code has re-entered the runtime.
_INSIDE = "inside"

_cost = CpuCostModel.cost
#: What an expiring protocol timer's job costs on entry.
_TIMER_COST = _cost(CpuCostModel.TIMER)


class SiteRuntime(Entity, ProtocolRuntime):
    """Centralized simulation runtime scoped to one database site.

    Owns the site's clock-mode configuration and the running job's
    clock, and mediates every interaction between the real protocol code
    on this site and the simulation: job execution, timers, and the
    simulated network through ``socket``.
    """

    def __init__(
        self,
        sim: Simulator,
        cpus: CpuPool,
        socket: UdpSocket,
        mode: str = MODELED,
        cpu_scale: float = 1.0,
        interceptor: Optional[FaultInjector] = None,
        name: str = "csrt",
    ):
        super().__init__(sim, name)
        if mode not in (MEASURED, MODELED):
            raise ValueError(f"unknown clock mode {mode!r}")
        if cpu_scale <= 0:
            raise ValueError("cpu_scale must be positive")
        self.cpus = cpus
        #: Where real jobs go: the pool's placement — or, on a single-CPU
        #: site, where there is no placement to make, that CPU itself.
        self._submit = cpus.cpus[0].submit_real if len(cpus) == 1 else cpus.submit_real
        #: One of the two constants, so the clock compares by identity.
        self.mode = MEASURED if mode == MEASURED else MODELED
        #: Simulated seconds per host nanosecond (MEASURED): ``cpu_scale``
        #: converts host time to the simulated processor's (§2.3).
        self._ns_scale = 1e-9 * cpu_scale
        #: The fault injector, or None on a site without faults.
        self.interceptor = interceptor
        #: Set by :meth:`crash`, cleared by :meth:`recover`.
        self.crashed = False
        #: The running job's clock (jobs never nest: each runs to
        #: completion on the single-threaded kernel).  ``_clock`` is the
        #: mode while a job runs, ``_INSIDE`` while it has re-entered
        #: the runtime, None between jobs; ``_spent`` the seconds it has
        #: used so far (0.0 between jobs); ``_opened`` the host
        #: nanosecond at which the open MEASURED segment began.
        self._clock: Optional[str] = None
        self._spent = 0.0
        self._opened = 0
        #: The socket's ``send`` (injects a datagram into the simulated
        #: stack *now*) and address.
        self._transmit = socket.send
        self._address = socket.address
        socket.set_receiver(self.deliver)
        #: Handler installed by protocol code for incoming datagrams.
        self._receiver: Optional[Callable[[Any, bytes], None]] = None
        #: Counters surfaced in experiment reports.
        self.stats = {
            "real_jobs": 0,
            "datagrams_in": 0,
            "datagrams_out": 0,
            "drops_injected": 0,
            "jobs_skipped_crashed": 0,
        }

    # ------------------------------------------------------------------
    # executing real code
    # ------------------------------------------------------------------
    def submit_real(
        self,
        fn: Callable[..., None],
        tag: str = CpuCostModel.TIMER,
        nbytes: int = 0,
        on_complete: Optional[Callable[[], None]] = None,
        args: tuple = (),
    ) -> None:
        """Run real code ``fn(*args)`` as a job submitted now.

        The code runs when a CPU takes it — at once if one is idle; its
        measured (or modeled) duration then occupies that CPU, during
        which modeled jobs wait.
        """
        self._submit(self._run, (fn, args, _cost(tag, nbytes)), on_complete)

    def _run(self, fn: Callable[..., None], args: tuple, entry_cost: float) -> float:
        """The one runner of real jobs (both clock modes): execute
        ``fn(*args)`` on the job's clock, return its duration."""
        if self.crashed:
            self.stats["jobs_skipped_crashed"] += 1
            return 0.0
        mode = self._clock = self.mode
        if mode is MEASURED:
            self._opened = perf_counter_ns()
        else:
            self._spent = entry_cost
        try:
            fn(*args)
        finally:
            if self._clock is MEASURED:
                self._spent += (perf_counter_ns() - self._opened) * self._ns_scale
            elapsed = self._spent
            self._clock = None
            self._spent = 0.0
        self.stats["real_jobs"] += 1
        if self.interceptor is not None:
            return self.interceptor.transform_elapsed(elapsed)
        return elapsed

    # ------------------------------------------------------------------
    # ProtocolRuntime: services callable *by running real code*
    # ------------------------------------------------------------------
    def now(self) -> float:
        """Simulated time as seen by real code: kernel time plus the real
        time its job has consumed so far (Figure 1(b))."""
        if self._clock is MEASURED:
            open_ns = perf_counter_ns() - self._opened
            return self.sim._now + self._spent + open_ns * self._ns_scale
        return self.sim._now + self._spent

    def charge(self, seconds: float) -> None:
        """Explicit work declaration from protocol hot loops.  Only a
        running MODELED job accounts it: a MEASURED job's work is
        measured, and a charge between jobs or from inside the runtime
        is dropped."""
        if self._clock is MODELED:
            if seconds < 0:
                raise ValueError("cannot charge negative time")
            self._spent += seconds

    def schedule(self, delay: float, fn: Callable[..., None], *args: Any) -> Event:
        """Schedule a future real-code callback with the Δ1 correction;
        the returned kernel event cancels it.

        The callback itself is run as a real job (it is protocol code and
        must be profiled and charged to the CPU like any other).
        """
        if delay < 0:
            raise ValueError("delay must be non-negative")
        if self.interceptor is not None:
            delay = self.interceptor.transform_delay(delay)
        clock = self._clock
        if clock is MEASURED:
            self._spent += (perf_counter_ns() - self._opened) * self._ns_scale
        self._clock = _INSIDE
        try:
            # δ′q = Δ1 + δq
            return self.sim.schedule(delay + self._spent, self._fire, fn, args)
        finally:
            self._clock = clock
            if clock is MEASURED:
                self._opened = perf_counter_ns()

    def _fire(self, fn: Callable[..., None], args: tuple) -> None:
        """A protocol timer expires: unless the site crashed meanwhile,
        its callback becomes a real job."""
        if not self.crashed:
            self._submit(self._run, (fn, args, _TIMER_COST))

    def send(self, dest: Any, payload: bytes) -> None:
        """Hand a datagram to the simulated network through the socket.

        The send CPU overhead (fixed + per byte) is charged to the running
        job; the datagram leaves the host once the work done so far (Δ1,
        including that overhead) has elapsed on the simulated clock.
        """
        if self.crashed:
            return
        clock = self._clock
        if clock is MODELED:
            self._spent += _cost(CpuCostModel.SEND, len(payload))
        elif clock is MEASURED:
            self._spent += (perf_counter_ns() - self._opened) * self._ns_scale
        self._clock = _INSIDE
        try:
            self.stats["datagrams_out"] += 1
            delta1 = self._spent
            if delta1 > 0:
                self.sim.call(delta1, self._transmit, dest, payload)
            else:
                self._transmit(dest, payload)
        finally:
            self._clock = clock
            if clock is MEASURED:
                self._opened = perf_counter_ns()

    def set_receiver(self, handler: Callable[[Any, bytes], None]) -> None:
        self._receiver = handler

    def local_address(self) -> Any:
        return self._address

    # ------------------------------------------------------------------
    # network → real code
    # ------------------------------------------------------------------
    def deliver(self, source: Any, payload: bytes) -> None:
        """Called by the simulated stack when a datagram reaches this site.

        Reception is where the paper injects message loss ("each message
        is discarded upon reception with the specified probability").
        """
        if self.crashed:
            return
        interceptor = self.interceptor
        if interceptor is not None and interceptor.drop_incoming(source, payload):
            self.stats["drops_injected"] += 1
            return
        handler = self._receiver
        if handler is None:
            return
        self.stats["datagrams_in"] += 1
        entry_cost = _cost(CpuCostModel.RECV, len(payload))
        self._submit(self._run, (handler, (source, payload), entry_cost))

    # ------------------------------------------------------------------
    # fault control
    # ------------------------------------------------------------------
    def crash(self) -> None:
        """Stop the site: pending and future real jobs become no-ops and
        the network boundary is sealed in both directions (§5.3)."""
        self.crashed = True

    def recover(self) -> None:
        """Un-seal the boundary after a crash (the ``recover`` fault
        action): the site restarts with empty volatile state and may
        announce itself for rejoin.  The loss/drift fault models keep
        running — a recovered site is subject to the same environment it
        crashed in."""
        self.crashed = False
