"""The deterministic certification procedure (paper §3.3).

Upon total-order delivery of a committing transaction, every replica
runs the same test: the sequence number of the last transaction the
origin had committed locally determines which committed transactions
were *concurrent*; the incoming read-set is compared with the write-sets
of all those transactions, and any intersection aborts it.  Total order
makes the decision identical at every replica — no coordination needed.
The log keeps every committed write set: no run commits enough for a
bound on it to matter (fig5's largest cell runs 10 000 transactions).

Identifier comparison covers both individual tuples and whole-table
locks: the table id lives in the high-order bits, so a table lock (row
part zero) sorts before all of its table's tuples and a single merge
traversal of the two **sorted** lists decides intersection in
O(|reads| + |writes|) — the runtime trick the paper calls out.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import repeat
from typing import Callable, Dict, List, Optional, Tuple

from ..db.tuples import ROW_BITS, ROW_MASK
from .marshal import CommitRequest

__all__ = ["Certifier", "sets_conflict"]

#: CPU cost charged per identifier visited during the merge traversal —
#: the sorted lists make this a couple of comparisons per id, tens of
#: cycles on the reference 1 GHz CPU.  Calibrated so protocol CPU usage
#: lands near the paper's Figure 7(c) values (~1.2 % at 3 sites).
PER_ITEM_COST = 0.12e-6


# The id layout (``ROW_BITS`` / ``ROW_MASK``: a zero row part marks a
# whole-table lock) is inlined below because the merge loop runs once per
# (request, log entry) pair during certification — by far the hottest
# consumer of the encoding — and the ``is_table_lock``/``table_of`` calls
# dominate its runtime.
def sets_conflict(reads: Tuple[int, ...], writes: Tuple[int, ...]) -> bool:
    """Single-traversal intersection test over two sorted id lists,
    honouring table-lock coverage in either list."""
    i = j = 0
    len_r, len_w = len(reads), len(writes)
    row_bits, row_mask = ROW_BITS, ROW_MASK
    while i < len_r and j < len_w:
        r = reads[i]
        w = writes[j]
        if r == w:
            return True
        # Same table, and either id is the whole-table lock (row part 0).
        if (r >> row_bits) == (w >> row_bits) and (
            not r & row_mask or not w & row_mask
        ):
            return True
        if r < w:
            i += 1
        else:
            j += 1
    return False


class Certifier:
    """Per-replica certification state: the whole committed write-set
    log and an item index over it.  ``charge(seconds)`` is told the CPU
    time each conflict test costs.

    A request conflicts iff some commit newer than its ``start_seq``
    wrote an id it read, wrote into a table it read-locked whole, or
    locked whole a table it read.  The index keeps, per id and per
    table, the **newest** commit that did so, which makes the test one
    probe per read id and read table — the newest probe is the entry at
    which a newest-first walk over the log would have stopped.  The log
    itself is kept as parallel arrays with prefix sums of the write-set
    lengths, so the ids such a walk visits — what the CPU charge is
    computed from — are one ``bisect`` and two subtractions away.
    """

    def __init__(self, charge: Optional[Callable[[float], None]] = None):
        #: Commit sequence numbers (ascending, gaps where a commit wrote
        #: nothing) and write sets of the committed update transactions.
        self._seqs: List[int] = []
        self._write_sets: List[Tuple[int, ...]] = []
        #: ``_ids_before[i]``: ids in the write sets of entries ``< i``.
        self._ids_before: List[int] = [0]
        #: id -> newest commit that wrote it; table -> newest commit that
        #: wrote into it / that locked it whole.
        self._last_write: Dict[int, int] = {}
        self._table_written: Dict[int, int] = {}
        self._table_locked: Dict[int, int] = {}
        self._charge = charge or (lambda seconds: None)
        self.next_commit_seq = 0
        self.stats = {"certified": 0, "committed": 0, "aborted": 0}

    # ------------------------------------------------------------------
    def certify(self, request: CommitRequest) -> Tuple[bool, int]:
        """Decide ``request``; returns (committed, commit_seq or -1).

        Must be invoked in total-order delivery order; the commit
        sequence numbers handed out are consecutive over commits.
        """
        if not self.would_commit(request):
            return False, -1
        return True, self.force_commit(request)

    # ------------------------------------------------------------------
    # split certification (cross-group agreement; see protocols/partial)
    # ------------------------------------------------------------------
    def would_commit(self, request: CommitRequest) -> bool:
        """The conflict test alone — no commit, no log append.

        A cross-group transaction's *vote*: the decision is cast here but
        only applied (via :meth:`force_commit`) once every touched group
        has agreed, so the test must not mutate certification state.
        """
        self.stats["certified"] += 1
        if self._conflicts(request):
            self.stats["aborted"] += 1
            return False
        return True

    def force_commit(self, request: CommitRequest) -> int:
        """Apply an externally-agreed commit: assign the next sequence
        number and append the write set to the log.  The caller (the
        cross-group agreement step) guarantees every replica of this
        group invokes it at the same point in the delivery order."""
        self.next_commit_seq += 1
        commit_seq = self.next_commit_seq
        if request.write_set:
            self._append(commit_seq, request.write_set)
        self.stats["committed"] += 1
        return commit_seq

    def _append(self, commit_seq: int, write_set: Tuple[int, ...]) -> None:
        self._seqs.append(commit_seq)
        self._write_sets.append(write_set)
        self._ids_before.append(self._ids_before[-1] + len(write_set))
        last_write = self._last_write
        table = -1
        for w in write_set:
            last_write[w] = commit_seq
            if w >> ROW_BITS != table:
                # Sorted ids: one run per table, its lock id (row part
                # zero) leading the run.
                table = w >> ROW_BITS
                self._table_written[table] = commit_seq
                if not w & ROW_MASK:
                    self._table_locked[table] = commit_seq

    def _conflicts(self, request: CommitRequest) -> bool:
        reads = request.read_set
        if not reads:
            return False
        start_seq = request.start_seq
        seqs = self._seqs
        if not seqs or seqs[-1] <= start_seq:  # nothing is concurrent
            self._charge(0 * PER_ITEM_COST)
            return False
        tables, locked = request.read_footprint
        # Newest commit that conflicts, concurrent or not.
        newest = max(map(self._last_write.get, reads, repeat(0)))
        if locked:
            newest = max(newest, max(map(self._table_written.get, locked, repeat(0))))
        if self._table_locked:
            newest = max(newest, max(map(self._table_locked.get, tables, repeat(0))))
        # The charge is that of a walk over the concurrent entries, newest
        # first, that stops at the first conflicting one: each entry costs
        # a merge traversal of its write set and the read set.
        oldest_visited = bisect_left(seqs, max(newest, start_seq + 1))
        visited = (
            self._ids_before[-1]
            - self._ids_before[oldest_visited]
            + (len(seqs) - oldest_visited) * len(reads)
        )
        self._charge(visited * PER_ITEM_COST)
        return newest > start_seq

    # ------------------------------------------------------------------
    # state transfer (recovery/rejoin)
    # ------------------------------------------------------------------
    def snapshot_state(self) -> Dict[str, object]:
        """JSON-ready certification position for a state-transfer
        snapshot: the commit counter plus the committed write-set log a
        joiner certifies replayed (and later local) transactions against.
        The format is owned here, next to the log's layout."""
        return {
            "next_commit_seq": self.next_commit_seq,
            "log": [
                [seq, list(write_set)]
                for seq, write_set in zip(self._seqs, self._write_sets)
            ],
        }

    def restore_state(self, state: Dict[str, object]) -> None:
        """Adopt a donor's :meth:`snapshot_state`."""
        self.next_commit_seq = int(state["next_commit_seq"])
        self._seqs, self._write_sets, self._ids_before = [], [], [0]
        self._last_write, self._table_written, self._table_locked = {}, {}, {}
        for seq, write_set in state["log"]:
            self._append(int(seq), tuple(write_set))

    # ------------------------------------------------------------------
    def abort_ratio(self) -> float:
        if self.stats["certified"] == 0:
            return 0.0
        return self.stats["aborted"] / self.stats["certified"]
