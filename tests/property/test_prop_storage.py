"""Property test: the closed-form storage is the per-sector event model.

:class:`repro.db.storage.Storage` serves a request by arithmetic at
submission and one kernel event at its end.  :class:`PerSectorStorage`
below is the model it replaces — every sector occupies a slot from a
start event to its own completion event — kept as the reference.
Hypothesis drives three devices of each kind, sharing a simulator
as the disks of a cell's sites do, with the same write arrivals (reads
are cache hits and never reach the device; gaps of zero, of exact
chains of ``+ latency`` so that arrivals land *on* sector completions
and the devices run in lock-step, and of odd fractions) and every
observable must agree exactly: completion instants (``==`` on
floats), completion order — across devices too, where only the kernel's
sequence numbers decide — and the counters and queue depth read
mid-queue, after ``sim.stop()`` and after the drain.
"""

from collections import deque

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.kernel import Entity, Signal, Simulator
from repro.db.storage import SECTOR_BYTES, Storage, StorageStats


class PerSectorStorage(Entity):
    """Reference device: ``concurrency`` slots, a FIFO of waiting
    sectors, one completion event per sector."""

    def __init__(self, sim, sector_latency, concurrency):
        super().__init__(sim, "reference-disk")
        self.sector_latency, self.concurrency = sector_latency, concurrency
        self.stats = StorageStats()
        self._busy_slots = 0
        self._queue = deque()  # one request per waiting sector

    def submit(self, sectors):
        done = Signal(self.sim)
        request = [sectors, done]
        for _ in range(sectors):
            if self._busy_slots < self.concurrency:
                self._start(request)
            else:
                self._queue.append(request)
        return done

    def _start(self, request):
        self._busy_slots += 1
        self.stats.busy_time += self.sector_latency
        self.stats.bytes_transferred += SECTOR_BYTES
        self.stats.sectors_written += 1
        self.call(self.sector_latency, self._finish, request)

    def _finish(self, request):
        self._busy_slots -= 1
        request[0] -= 1
        if request[0] == 0:
            request[1].fire(None)
        if self._queue:
            self._start(self._queue.popleft())

    def queue_depth(self):
        return len(self._queue)

    def utilization(self, elapsed):
        return min(1.0, self.stats.busy_time / (self.concurrency * elapsed))


def observe(devices):
    now = devices[0].sim.now
    return [
        (
            now,
            device.stats.sectors_read,
            device.stats.sectors_written,
            device.stats.busy_time,
            device.stats.bytes_transferred,
            device.queue_depth(),
            device.utilization(now) if now else 0.0,
        )
        for device in devices
    ]


def instants(gaps, latency):
    """Absolute times from ``(latencies, fraction)`` gaps: ``latencies``
    times ``+ latency`` — the additions a chain of sector completions
    performs, so the instant can coincide with one to the bit — plus
    ``fraction`` of a latency."""
    now, out = 0.0, []
    for latencies, fraction in gaps:
        for _ in range(latencies):
            now = now + latency
        now = now + fraction * latency
        out.append(now)
    return out


def drive(make_device, submit, latency, arrivals, reads, stop_at):
    """Run three devices through the program; return everything
    observable.

    Every action is taken one zero-delay hop after its instant — the way
    the database server reaches its disk, from a process step woken at
    that instant — arrivals before observations, so an observation sees
    the instant complete, the devices' own events at it included."""
    sim = Simulator()
    devices = [make_device(sim) for _ in range(3)]
    completions, seen, signals = [], [], []

    def arrive(index, target, sectors):
        done = submit(devices[target], sectors)
        done._add_waiter(lambda _value: completions.append((index, sim.now)))
        signals.append(done)

    # The clock is still at 0: each delay is the absolute ``time``.
    times = instants([gap for gap, _, _ in arrivals], latency)
    for index, (time, (_, target, sectors)) in enumerate(zip(times, arrivals)):
        sim.schedule(time, sim.call, 0.0, arrive, index, target, sectors)
    for time in instants(reads, latency):
        sim.schedule(time, sim.call, 0.0, lambda: seen.append(observe(devices)))
    sim.schedule(instants([stop_at], latency)[0], sim.call, 0.0, sim.stop)
    sim.run()
    stopped = (observe(devices), [done.fired for done in signals], list(completions))
    sim.run()
    return completions, seen, stopped, observe(devices), sim._now


gaps = st.tuples(
    st.integers(min_value=0, max_value=9),
    # Never adding up to a whole latency: an instant reached by another
    # sum can sit an ulp beside the chain's and merge with it one addition
    # later, and which chain then completes first was decided by that ulp.
    # The closed form keeps no history to tell (nor do replicas produce
    # the case: their equal instants come from the same additions).
    st.sampled_from([0.0, 0.0, 0.37, 1e-9, 0.999]),
)
programs = st.lists(
    st.tuples(
        gaps,
        st.integers(min_value=0, max_value=2),  # which device
        st.integers(min_value=1, max_value=30),
    ),
    min_size=1,
    max_size=14,
)


@given(
    latency=st.sampled_from([1.727e-3, 1e-3, 0.1, 1 / 3]),
    concurrency=st.integers(min_value=1, max_value=6),
    arrivals=programs,
    reads=st.lists(gaps, max_size=8),
    stop_at=gaps,
)
# An arrival exactly on a completion that frees its slot, observed at
# that same instant, with the stop on the next completion.
@example(
    latency=1.727e-3,
    concurrency=2,
    arrivals=[
        ((0, 0.0), 0, 3),
        ((1, 0.0), 0, 2),
        ((0, 0.0), 0, 1),
    ],
    reads=[(1, 0.0), (0, 0.37), (1, 0.0)],
    stop_at=(2, 0.0),
)
# Two disks in lock-step whose request boundaries differ: device 1 was
# taken idle first, so it completes first at every shared instant,
# although device 0's last request was submitted earlier.
@example(
    latency=1.727e-3,
    concurrency=1,
    arrivals=[
        ((0, 0.0), 1, 1),
        ((0, 0.0), 0, 3),
        ((0, 0.37), 0, 1),
        ((0, 0.37), 1, 3),
    ],
    reads=[],
    stop_at=(9, 0.0),
)
@settings(max_examples=300, deadline=None)
def test_closed_form_equals_per_sector_events(
    latency, concurrency, arrivals, reads, stop_at
):
    reference = drive(
        lambda sim: PerSectorStorage(sim, latency, concurrency),
        lambda device, sectors: device.submit(sectors),
        latency, arrivals, reads, stop_at,
    )
    closed_form = drive(
        lambda sim: Storage(sim, sector_latency=latency, concurrency=concurrency),
        lambda device, sectors: device.write_sectors(sectors),
        latency, arrivals, reads, stop_at,
    )
    assert closed_form == reference


def test_a_request_is_one_kernel_event():
    """24 sectors behind a busy device: one completion entry, not one
    per sector or per wave."""
    sim = Simulator()
    storage = Storage(sim, sector_latency=1e-3, concurrency=4)
    storage.write_sectors(24)
    storage.write_sectors(24)
    assert sim.pending() == 2
    assert storage.queue_depth() == 44
    sim.run()
    assert sim.events_executed == 2
    assert storage.stats.sectors_written == 48
    assert storage.queue_depth() == 0
