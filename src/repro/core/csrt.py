"""The centralized simulation runtime (CSRT) — the paper's §2 contribution.

Real protocol code (group communication, certification) executes inside
the discrete-event simulation.  Its duration is obtained from a profiling
timer and charged to a simulated CPU, so real jobs compete with modeled
transaction-processing jobs for the same processor.

**The life of a real job.**  Every datagram and every protocol timer is
one.  There is one representation — ``(fn, args, entry_cost,
on_complete)`` — and one runner, :meth:`SiteRuntime._run`:

* *arrival* — :meth:`SiteRuntime.deliver` (a datagram that passed the
  crash and loss checks), an expiring :meth:`SiteRuntime.rt_schedule`
  timer or :meth:`SiteRuntime.submit_real` prices the entry cost and
  hands ``_run, (fn, args, entry_cost)`` to the site's CPU — in one
  call, no closure, and no per-job object even when it has to queue;
* *inline or queued, lazy or eager completion, settle* — the CPU's half
  of the story, told in :mod:`repro.core.cpu`;
* *run* — ``_run`` starts the profiling timer with the entry cost on it,
  runs ``fn(*args)`` and returns the duration (measured or modeled,
  after the fault injector's clock drift).  A crashed site skips the
  code and holds the CPU for zero seconds.

While the code runs, the two hazards of Figure 1(b) are handled exactly
as the paper prescribes:

* an event scheduled *by real code* with delay δq is entered into the
  simulation with delay δ′q = Δ1 + δq, where Δ1 is the real time already
  consumed by the running job — otherwise the event could land in the
  simulation past;
* the profiling timer is **paused** whenever real code re-enters the
  runtime (to schedule or send), so runtime overhead is never billed to
  the job, and resumed on return.

Fault injection (§5.3) intercepts calls in and out of this runtime via a
:class:`RuntimeInterceptor`; the concrete fault models live in
:mod:`repro.core.faults`.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from .clock import CostModelTimer, CpuCostModel, ProfilingTimer, WallClockTimer
from .cpu import CpuPool
from .kernel import Entity, Simulator

__all__ = ["SiteRuntime", "RuntimeInterceptor", "ScheduledCallback", "MEASURED", "MODELED"]

#: Clock mode: durations measured with the host's monotonic clock (the
#: paper's perfctr mechanism).
MEASURED = "measured"
#: Clock mode: durations taken from the deterministic CPU cost model.
MODELED = "modeled"


class RuntimeInterceptor:
    """Pass-through hooks on every boundary crossing of the runtime.

    The fault injector subclasses this; the default implementation is the
    identity (no faults).  One interceptor instance guards one site.
    """

    #: Set when the site has been crashed; checked on every crossing.
    crashed: bool = False

    def transform_delay(self, delay: float) -> float:
        """Rewrite a delay requested by real code (drift, sched latency)."""
        return delay

    def transform_elapsed(self, elapsed: float) -> float:
        """Rewrite a measured job duration (clock drift scales it down)."""
        return elapsed

    def drop_incoming(self, source: Any, payload: bytes) -> bool:
        """Return True to discard a datagram upon reception (loss models)."""
        return False

    def on_crash(self) -> None:
        """Notification that the site was crashed (for logging)."""


class ScheduledCallback:
    """Cancellable handle for a callback scheduled by protocol code.

    The kernel entry is fire-and-forget; a cancelled callback stays in
    the heap and no-ops when it fires (see :meth:`SiteRuntime._fire`)."""

    __slots__ = ("cancelled",)

    def __init__(self) -> None:
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True


class SiteRuntime(Entity):
    """Centralized simulation runtime scoped to one database site.

    Owns the site's clock-mode configuration and mediates every
    interaction between the real protocol code on this site and the
    simulation: job execution, timers, and the simulated network.
    """

    def __init__(
        self,
        sim: Simulator,
        cpus: CpuPool,
        mode: str = MODELED,
        cost_model: Optional[CpuCostModel] = None,
        cpu_scale: float = 1.0,
        interceptor: Optional[RuntimeInterceptor] = None,
        name: str = "csrt",
    ):
        super().__init__(sim, name)
        if mode not in (MEASURED, MODELED):
            raise ValueError(f"unknown clock mode {mode!r}")
        self.cpus = cpus
        #: Where real jobs go: the pool's placement — or, on a single-CPU
        #: site, where there is no placement to make, that CPU itself.
        self._submit = cpus.cpus[0].submit_real if len(cpus) == 1 else cpus.submit_real
        self.mode = mode
        self.cost_model = cost_model or CpuCostModel()
        self.cpu_scale = cpu_scale
        self.interceptor = interceptor or RuntimeInterceptor()
        #: Hook installed by the network bridge: ``fn(dest, payload)``
        #: injects a datagram into the simulated stack *now*.
        self.network_send: Optional[Callable[[Any, bytes], None]] = None
        #: Handler installed by protocol code for incoming datagrams.
        self.receiver: Optional[Callable[[Any, bytes], None]] = None
        self._active_timer: Optional[ProfilingTimer] = None
        #: One reusable cost-model timer: jobs never nest (each real job
        #: runs to completion on the single-threaded kernel), and
        #: ``start()`` resets the accumulator, so allocating a fresh
        #: timer per job is pure garbage-collector churn.
        self._model_timer = CostModelTimer()
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
        delay: float = 0.0,
        on_complete: Optional[Callable[[], None]] = None,
        args: tuple = (),
    ) -> None:
        """Run real code ``fn(*args)`` as a job ``delay`` seconds from now.

        The code runs when a CPU takes it — at once if one is idle; its
        measured (or modeled) duration then occupies that CPU, during
        which modeled jobs wait.
        """
        job = (fn, args, self.cost_model.cost(tag, nbytes))
        if delay <= 0:
            self._submit(self._run, job, on_complete)
        else:
            self.call(delay, self._submit, self._run, job, on_complete)

    def _run(self, fn: Callable[..., None], args: tuple, entry_cost: float) -> float:
        """The one runner of real jobs (both clock modes): execute
        ``fn(*args)`` under the profiling timer, return its duration."""
        interceptor = self.interceptor
        if interceptor.crashed:
            self.stats["jobs_skipped_crashed"] += 1
            return 0.0
        if self.mode == MEASURED:
            timer = WallClockTimer(scale=self.cpu_scale)
        else:
            timer = self._model_timer
        self._active_timer = timer
        timer.start(entry_cost)
        try:
            fn(*args)
        finally:
            elapsed = timer.stop()
            self._active_timer = None
        self.stats["real_jobs"] += 1
        return interceptor.transform_elapsed(elapsed)

    # ------------------------------------------------------------------
    # services callable *by running real code*
    # ------------------------------------------------------------------
    def rt_now(self) -> float:
        """Simulated time as seen by real code: kernel time plus the real
        time its job has consumed so far (Figure 1(b))."""
        timer = self._active_timer
        if timer is not None:
            return self.sim._now + timer.elapsed()
        return self.sim._now

    def rt_charge(self, seconds: float) -> None:
        """Explicit work declaration from protocol hot loops (cost model)."""
        if self._active_timer is not None:
            self._active_timer.charge(seconds)

    def rt_schedule(
        self,
        delay: float,
        fn: Callable[..., None],
        *args: Any,
        tag: str = CpuCostModel.TIMER,
        nbytes: int = 0,
    ) -> ScheduledCallback:
        """Schedule a future real-code callback with the Δ1 correction.

        The callback itself is run as a real job (it is protocol code and
        must be profiled and charged to the CPU like any other).
        """
        if delay < 0:
            raise ValueError("delay must be non-negative")
        delay = self.interceptor.transform_delay(delay)
        handle = ScheduledCallback()
        timer = self._active_timer
        if timer is not None:
            timer.pause()
            delay += timer.elapsed()  # δ′q = Δ1 + δq
        try:
            self.sim.call(delay, self._fire, handle, fn, args, tag, nbytes)
        finally:
            if timer is not None:
                timer.resume()
        return handle

    def _fire(
        self, handle: ScheduledCallback, fn: Callable[..., None], args: tuple,
        tag: str, nbytes: int,
    ) -> None:
        """A protocol timer expires: unless cancelled meanwhile (or the
        site crashed), its callback becomes a real job."""
        if handle.cancelled or self.interceptor.crashed:
            return
        self._submit(self._run, (fn, args, self.cost_model.cost(tag, nbytes)))

    def rt_send(self, dest: Any, payload: bytes) -> None:
        """Hand a datagram to the simulated network.

        The send CPU overhead (fixed + per byte) is charged to the running
        job; the datagram leaves the host once the work done so far (Δ1,
        including that overhead) has elapsed on the simulated clock.
        """
        if self.interceptor.crashed:
            return
        if self.network_send is None:
            raise RuntimeError(f"{self.name}: no network bridge installed")
        timer = self._active_timer
        if timer is not None:
            timer.charge(self.cost_model.cost(CpuCostModel.SEND, len(payload)))
            timer.pause()
            delta1 = timer.elapsed()
        else:
            delta1 = 0.0
        try:
            self.stats["datagrams_out"] += 1
            if delta1 > 0:
                self.sim.call(delta1, self.network_send, dest, payload)
            else:
                self.network_send(dest, payload)
        finally:
            if timer is not None:
                timer.resume()

    # ------------------------------------------------------------------
    # network → real code
    # ------------------------------------------------------------------
    def deliver(self, source: Any, payload: bytes) -> None:
        """Called by the simulated stack when a datagram reaches this site.

        Reception is where the paper injects message loss ("each message
        is discarded upon reception with the specified probability").
        """
        interceptor = self.interceptor
        if interceptor.crashed:
            return
        if interceptor.drop_incoming(source, payload):
            self.stats["drops_injected"] += 1
            return
        handler = self.receiver
        if handler is None:
            return
        self.stats["datagrams_in"] += 1
        entry_cost = self.cost_model.cost(CpuCostModel.RECV, len(payload))
        self._submit(self._run, (handler, (source, payload), entry_cost))

    # ------------------------------------------------------------------
    # fault control
    # ------------------------------------------------------------------
    def crash(self) -> None:
        """Stop the site: pending and future real jobs become no-ops and
        the network boundary is sealed in both directions (§5.3)."""
        self.interceptor.crashed = True
        self.interceptor.on_crash()
