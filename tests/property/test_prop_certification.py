"""Property tests: the sorted-merge conflict test against brute force,
and the certifier's item index against a reverse scan with that test."""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db.tuples import is_table_lock, make_tuple_id, table_lock_id, table_of
from repro.dbsm.certification import (
    PER_ITEM_COST,
    Certifier,
    sets_conflict,
)
from repro.dbsm.marshal import CommitRequest

# ids over a handful of small tables so collisions actually happen
tuple_ids = st.builds(
    make_tuple_id,
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=30),
)
table_locks = st.builds(table_lock_id, st.integers(min_value=1, max_value=4))
id_sets = st.lists(st.one_of(tuple_ids, table_locks), max_size=25).map(
    lambda ids: tuple(sorted(set(ids)))
)


def brute_force_conflict(reads, writes):
    for r in reads:
        for w in writes:
            if r == w:
                return True
            if is_table_lock(r) and table_of(r) == table_of(w):
                return True
            if is_table_lock(w) and table_of(w) == table_of(r):
                return True
    return False


@given(id_sets, id_sets)
@settings(max_examples=500)
def test_merge_traversal_equals_brute_force(reads, writes):
    assert sets_conflict(reads, writes) == brute_force_conflict(reads, writes)


@given(id_sets, id_sets)
@settings(max_examples=200)
def test_conflict_is_symmetric(reads, writes):
    assert sets_conflict(reads, writes) == sets_conflict(writes, reads)


@given(id_sets)
@settings(max_examples=100)
def test_nonempty_self_conflict(ids):
    if ids:
        assert sets_conflict(ids, ids)
    else:
        assert not sets_conflict(ids, ids)


# ----------------------------------------------------------------------
# the item index against the reverse scan it replaces
# ----------------------------------------------------------------------
class ScanCertifier:
    """Reference: the committed write sets in a list, each request
    walked newest first against the concurrent ones with
    ``sets_conflict`` — the procedure the index reproduces, the charged
    CPU seconds included."""

    def __init__(self):
        self.log = []
        self.next_commit_seq = 0
        self.charged = []

    def would_commit(self, request):
        if not request.read_set:
            return True
        visited, conflict = 0, False
        for commit_seq, write_set in reversed(self.log):
            if commit_seq <= request.start_seq:
                break
            visited += len(write_set) + len(request.read_set)
            if sets_conflict(request.read_set, write_set):
                conflict = True
                break
        self.charged.append(visited * PER_ITEM_COST)
        return not conflict

    def force_commit(self, request):
        self.next_commit_seq += 1
        if request.write_set:
            self.log.append((self.next_commit_seq, request.write_set))
        return self.next_commit_seq

    def snapshot_state(self):
        return {
            "next_commit_seq": self.next_commit_seq,
            "log": [[seq, list(write_set)] for seq, write_set in self.log],
        }


def commit_request(reads, writes, start_seq):
    return CommitRequest(
        origin=0, tx_id=1, start_seq=start_seq, tx_class="t",
        read_set=reads, write_set=writes, write_bytes=0,
        commit_cpu=1e-3, commit_sectors=1,
    )


#: (operation, reads, writes, how far back the transaction started)
steps = st.tuples(
    st.sampled_from(["certify", "certify", "certify", "vote", "vote+commit", "transfer"]),
    id_sets,
    st.one_of(st.just(()), id_sets),  # read-only commits leave seq gaps
    st.integers(min_value=0, max_value=12),
)


@given(program=st.lists(steps, max_size=60))
@settings(max_examples=300, deadline=None)
def test_item_index_equals_reverse_scan(program):
    """Verdict, commit sequence number, charged seconds (exact) and
    snapshot agree after every step — across snapshot → restore into a
    fresh certifier."""
    charged = []
    certifier = Certifier(charge=charged.append)
    reference = ScanCertifier()
    for operation, reads, writes, back in program:
        request = commit_request(
            reads, writes, max(0, reference.next_commit_seq - back)
        )
        if operation == "transfer":
            state = json.loads(json.dumps(certifier.snapshot_state()))
            certifier = Certifier(charge=charged.append)
            certifier.restore_state(state)
            continue
        expected = reference.would_commit(request)
        if operation == "certify":
            committed, commit_seq = certifier.certify(request)
            assert committed == expected
            assert commit_seq == (reference.force_commit(request) if expected else -1)
        else:
            assert certifier.would_commit(request) == expected
            if operation == "vote+commit":  # the other groups agreed
                assert certifier.force_commit(request) == reference.force_commit(request)
        assert charged == reference.charged
        assert certifier.snapshot_state() == reference.snapshot_state()
    assert certifier.stats["certified"] >= certifier.stats["aborted"]
