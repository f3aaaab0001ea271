"""Concurrency control: the PostgreSQL-flavoured multi-version policy.

The locking policy modeled here is the one the paper configures (§3.1):

* fetched items are ignored (readers never block or abort — multiversion);
* updated items are exclusively locked;
* all of a transaction's locks are acquired **atomically** and released
  atomically at commit or abort — possible because every accessed item is
  known beforehand, and it removes the need for deadlock detection;
* when a holder **commits**, every transaction waiting on any of its
  locks aborts (first-updater-wins write-write conflict);
* when a holder **aborts**, its locks pass to the next eligible waiters;
* **remotely certified** transactions preempt local holders that have not
  themselves been certified — those locals would fail certification
  anyway — but queue (with priority, in certification order) behind
  holders already applying a certified commit.

Notifications run on fresh simulation events (never re-entrantly inside
the caller's stack frame), so server processes observe lock grants,
aborts and preemptions as ordinary asynchronous wake-ups — except an
immediate grant whose event would run next anyway, which is delivered
before ``acquire`` returns (:meth:`Simulator.elide_hop`).

**The wait queue is an index, not a list.**  A waiting request sits in
``_index[item]`` for every item it names and carries a *ticket*
``(band, arrival)`` — band 0 for remote requests, 1 for local ones — so
ticket order is queue order: remote requests first, arrival order inside
a band.  A release looks up the waiters that name a freed item, sorts
those by ticket and tests only them: its cost follows the contention on
the freed items, not the length of the queue, which on a saturated
server is hundreds of requests on a few hot rows.

One pass over those candidates grants what re-scanning the whole queue
from its head after every grant would.  A waiter was queued because an
item was held, so it can only have become eligible through an item
freed since the last pass: every eligible waiter is a candidate.  And a
grant only takes items: the waiters a re-scan would meet again ahead of
it are still blocked.

**Known quirk, kept on purpose.**  Preempting a local holder frees *all*
its items, and no regrant pass follows: with a victim holding ``{x, y}``
and a remote request for ``{x}``, a local waiter on ``{y}`` stays queued
though ``y`` is free, until the next release — of anything — runs a
pass.  Granting it at once would change simulated results, so
``_unswept`` remembers such items and the next pass visits their
waiters too, as the full scan did.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

from ..core.kernel import Entity, Simulator
from .transactions import Transaction, TxStatus

__all__ = ["LockManager", "LockRequest", "GRANTED", "WW_ABORTED", "PREEMPTED"]

#: Wake-up values delivered to waiting/holding transactions.
GRANTED = "granted"
WW_ABORTED = "ww-aborted"  # a conflicting holder committed while we waited
PREEMPTED = "preempted"  # a remotely certified transaction took our locks

_TICKET = attrgetter("ticket")


class LockRequest:
    """Book-keeping for one transaction's atomic lock acquisition."""

    __slots__ = ("tx", "items", "on_event", "granted", "remote", "ticket")

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
        #: Queue position while waiting: ``(band, arrival)``.
        self.ticket: Tuple[int, int] = (0, 0)


class LockManager(Entity):
    """Exclusive write locks with atomic all-or-wait acquisition."""

    def __init__(self, sim: Simulator, name: str = "locks"):
        super().__init__(sim, name)
        self._holders: Dict[int, LockRequest] = {}
        #: item -> requests waiting that name it; empty entries are
        #: deleted, so the dict is falsy exactly when nobody waits.
        self._index: Dict[int, Set[LockRequest]] = {}
        self._arrivals = 0
        #: Items freed by a preemption since the last regrant pass.
        self._unswept: Set[int] = set()
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
    ) -> LockRequest:
        """Atomically acquire ``tx``'s write set.

        ``on_event`` is eventually called exactly once while waiting/held
        is pending: with ``GRANTED`` when all locks are held, with
        ``WW_ABORTED`` if a conflicting holder commits first.  After the
        grant, the same callback may later fire with ``PREEMPTED`` if a
        remote certified transaction takes the locks away.
        """
        request = LockRequest(tx, tuple(tx.spec.write_set), on_event, remote=False)
        if self._all_free(request.items):
            self._grant(request, immediate=True)
        else:
            self._enqueue(request)
        return request

    def acquire_remote(
        self,
        tx: Transaction,
        on_event: Callable[[str], None],
    ) -> LockRequest:
        """Acquire locks for a certified remote transaction.

        Local holders that are not yet certified are preempted and told
        to abort right away (they would abort in certification anyway,
        §3.1); holders already applying a certified commit are waited on.
        Remote requests queue ahead of local ones, in arrival order —
        which is certification order, keeping application deterministic.
        """
        request = LockRequest(tx, tuple(tx.spec.write_set), on_event, remote=True)
        self._preempt_conflicting_locals(request.items)
        if self._all_free(request.items):
            self._grant(request, immediate=True)
        else:
            self._enqueue(request)
        return request

    # ------------------------------------------------------------------
    # release
    # ------------------------------------------------------------------
    def release_commit(self, request: LockRequest) -> None:
        """Release on commit: conflicting waiters abort (write-write)."""
        if not request.granted:
            self._remove_waiter(request)
            return
        released = self._release_items(request)
        if self._index:
            self._abort_local_waiters(released)
            self._regrant(released)

    def release_abort(self, request: LockRequest) -> None:
        """Release on abort: locks pass to the next eligible waiters."""
        if not request.granted:
            self._remove_waiter(request)
            return
        released = self._release_items(request)
        if self._index:
            self._regrant(released)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def holder_of(self, item: int) -> Optional[Transaction]:
        request = self._holders.get(item)
        return request.tx if request else None

    def waiting_count(self) -> int:
        return len(set().union(*self._index.values()))

    def held_count(self) -> int:
        return len(self._holders)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _all_free(self, items: Tuple[int, ...]) -> bool:
        # Plain loop, not ``all(genexpr)``: this runs once per acquisition
        # and once per candidate of a regrant pass, and the generator
        # frame is measurable at that rate.
        holders = self._holders
        for item in items:
            if item in holders:
                return False
        return True

    def _grant(self, request: LockRequest, immediate: bool) -> None:
        for item in request.items:
            assert item not in self._holders, f"double grant on {item}"
            self._holders[item] = request
        request.granted = True
        key = "granted_immediate" if immediate else "granted_after_wait"
        self.stats[key] += 1
        # An immediate grant ends ``acquire``: tail position (``_regrant`` loops on).
        if immediate and self.sim.elide_hop():
            request.on_event(GRANTED)
        else:
            self._notify(request, GRANTED)

    def _release_items(self, request: LockRequest) -> Tuple[int, ...]:
        released = []
        holders = self._holders
        for item in request.items:
            if holders.get(item) is request:
                del holders[item]
                released.append(item)
        request.granted = False
        return tuple(released)

    def _enqueue(self, request: LockRequest) -> None:
        self._arrivals += 1
        request.ticket = (0 if request.remote else 1, self._arrivals)
        index = self._index
        for item in request.items:
            index.setdefault(item, set()).add(request)

    def _dequeue(self, request: LockRequest) -> None:
        index = self._index
        for item in request.items:
            waiters = index[item]
            waiters.remove(request)
            if not waiters:
                del index[item]

    def _remove_waiter(self, request: LockRequest) -> None:
        # A queued request names at least one item (an empty write set
        # is granted on the spot) and sits under every item it names.
        if request.items and request in self._index.get(request.items[0], ()):
            self._dequeue(request)

    def _waiters_on(self, items: Iterable[int]) -> List[LockRequest]:
        """The requests waiting on any of ``items``, in queue order."""
        index = self._index
        found: Set[LockRequest] = set()
        for item in items:
            if item in index:
                found.update(index[item])
        return sorted(found, key=_TICKET)

    def _abort_local_waiters(self, items: Iterable[int]) -> None:
        """First-updater-wins: local waiters on ``items`` lose."""
        for waiter in self._waiters_on(items):
            if not waiter.remote:
                self._dequeue(waiter)
                self.stats["ww_aborts"] += 1
                self._notify(waiter, WW_ABORTED)

    def _regrant(self, freed: Iterable[int]) -> None:
        """Grant queued requests whose whole item set became free, in
        queue order (remote requests sit at the head).  Only waiters on
        ``freed`` or on a preemption's leftovers can have become so."""
        if self._unswept:
            freed = (*freed, *self._unswept)
            self._unswept.clear()
        for waiter in self._waiters_on(freed):
            if self._all_free(waiter.items):
                self._dequeue(waiter)
                self._grant(waiter, immediate=False)

    def _preempt_conflicting_locals(self, items: Tuple[int, ...]) -> None:
        victims: List[LockRequest] = []
        for item in items:
            holder = self._holders.get(item)
            if holder is None or holder in victims:
                continue
            if holder.remote or holder.tx.status is TxStatus.APPLYING:
                continue  # certified work is awaited, never preempted
            victims.append(holder)
        for victim in victims:
            freed = self._release_items(victim)
            if self._index:
                self._unswept.update(freed)  # no regrant pass: see module docstring
            self.stats["preemptions"] += 1
            self._notify(victim, PREEMPTED)
        # Local waiters on these items are also doomed: the remote write
        # will commit, which is exactly the first-updater-wins conflict.
        if self._index:
            self._abort_local_waiters(items)

    def _notify(self, request: LockRequest, event: str) -> None:
        self.call(0.0, request.on_event, event)
