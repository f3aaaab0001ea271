"""Unit tests for the deterministic certification procedure (§3.3)."""

import pytest

from repro.db.tuples import make_tuple_id, table_lock_id
from repro.dbsm.certification import Certifier, sets_conflict
from repro.dbsm.marshal import CommitRequest


def request(reads=(), writes=(), start_seq=0, tx_id=1, origin=0):
    return CommitRequest(
        origin=origin,
        tx_id=tx_id,
        start_seq=start_seq,
        tx_class="t",
        read_set=tuple(sorted(reads)),
        write_set=tuple(sorted(writes)),
        write_bytes=0,
        commit_cpu=1e-3,
        commit_sectors=1,
    )


class TestSetsConflict:
    def test_disjoint(self):
        assert not sets_conflict((1, 2, 3), (4, 5, 6))

    def test_common_element(self):
        assert sets_conflict((1, 5, 9), (2, 5, 8))

    def test_empty(self):
        assert not sets_conflict((), (1, 2))
        assert not sets_conflict((1, 2), ())

    def test_table_lock_in_reads_covers_writes(self):
        lock = table_lock_id(3)
        tuple_in_table = make_tuple_id(3, 42)
        assert sets_conflict((lock,), (tuple_in_table,))

    def test_table_lock_in_writes_covers_reads(self):
        lock = table_lock_id(3)
        tuple_in_table = make_tuple_id(3, 42)
        assert sets_conflict((tuple_in_table,), (lock,))

    def test_table_lock_other_table_no_conflict(self):
        assert not sets_conflict((table_lock_id(3),), (make_tuple_id(4, 1),))

    def test_single_traversal_order_independence(self):
        a = tuple(sorted([make_tuple_id(1, i) for i in (2, 4, 6)]))
        b = tuple(sorted([make_tuple_id(1, i) for i in (1, 3, 6)]))
        assert sets_conflict(a, b)
        assert sets_conflict(b, a)


class TestCertifier:
    def test_first_transaction_commits(self):
        certifier = Certifier()
        committed, seq = certifier.certify(request(reads=(1,), writes=(1,)))
        assert committed and seq == 1

    def test_conflicting_concurrent_aborts(self):
        certifier = Certifier()
        certifier.certify(request(reads=(1,), writes=(1,), start_seq=0))
        committed, seq = certifier.certify(
            request(reads=(1,), writes=(1,), start_seq=0)
        )
        assert not committed and seq == -1

    def test_non_concurrent_commits(self):
        """A transaction that started after the writer applied sees its
        writes — no conflict."""
        certifier = Certifier()
        certifier.certify(request(reads=(1,), writes=(1,), start_seq=0))
        committed, _ = certifier.certify(
            request(reads=(1,), writes=(1,), start_seq=1)
        )
        assert committed

    def test_disjoint_concurrent_both_commit(self):
        certifier = Certifier()
        a, _ = certifier.certify(request(reads=(1,), writes=(1,), start_seq=0))
        b, _ = certifier.certify(request(reads=(2,), writes=(2,), start_seq=0))
        assert a and b

    def test_commit_seq_consecutive_over_commits(self):
        certifier = Certifier()
        _, s1 = certifier.certify(request(reads=(1,), writes=(1,)))
        certifier.certify(request(reads=(1,), writes=(1,)))  # aborts
        _, s3 = certifier.certify(request(reads=(2,), writes=(2,)))
        assert (s1, s3) == (1, 2)

    def test_readonly_never_aborts(self):
        certifier = Certifier()
        certifier.certify(request(reads=(1,), writes=(1,)))
        committed, _ = certifier.certify(request(reads=(), writes=()))
        assert committed

    def test_blind_writes_not_checked(self):
        """Certification compares reads against writes (§3.3): an insert
        (write without read) does not conflict with prior writes."""
        certifier = Certifier()
        certifier.certify(request(reads=(), writes=(5,)))
        committed, _ = certifier.certify(request(reads=(), writes=(5,)))
        assert committed

    def test_determinism_across_replicas(self):
        requests = [
            request(reads=(1, 2), writes=(2,), start_seq=0, tx_id=1),
            request(reads=(2, 3), writes=(3,), start_seq=0, tx_id=2),
            request(reads=(9,), writes=(9,), start_seq=1, tx_id=3),
        ]
        outcomes_a = [Certifier().certify(r) for r in []]
        a, b = Certifier(), Certifier()
        outcomes_a = [a.certify(r) for r in requests]
        outcomes_b = [b.certify(r) for r in requests]
        assert outcomes_a == outcomes_b

    def test_charge_accounting(self):
        charged = []
        certifier = Certifier(charge=charged.append)
        certifier.certify(request(reads=(1, 2), writes=(1, 2)))
        certifier.certify(request(reads=(3, 4), writes=(3, 4), start_seq=0))
        assert len(charged) == 2
        assert charged[1] > 0  # second certify scanned the first's writes

    def test_stats(self):
        certifier = Certifier()
        certifier.certify(request(reads=(1,), writes=(1,)))
        certifier.certify(request(reads=(1,), writes=(1,), start_seq=0))
        assert certifier.stats == {"certified": 2, "committed": 1, "aborted": 1}
        assert certifier.abort_ratio() == pytest.approx(0.5)


class TestCertifierEdgeCases:
    def test_empty_readset_commits_against_any_log(self):
        """A blind update (empty read-set) can never fail certification,
        however many concurrent writers touched the same tuples."""
        certifier = Certifier()
        for i in range(5):
            certifier.certify(request(reads=(1,), writes=(1,), start_seq=i))
        committed, seq = certifier.certify(
            request(reads=(), writes=(1,), start_seq=0)
        )
        assert committed and seq > 0
        assert certifier.stats["aborted"] == 0

    def test_empty_readset_skips_the_merge_scan_entirely(self):
        """The empty-read fast path returns before the log walk, so no
        certification CPU is charged at all."""
        charged = []
        certifier = Certifier(charge=charged.append)
        certifier.certify(request(reads=(1,), writes=(1,)))
        charged.clear()
        certifier.certify(request(reads=(), writes=(1,), start_seq=0))
        assert charged == []

    def test_empty_readset_still_appends_writes_to_log(self):
        """Blind writes commit unchecked but their write-set must enter
        the log — later readers have to certify against them."""
        certifier = Certifier()
        certifier.certify(request(reads=(), writes=(7,), start_seq=0))
        assert certifier.snapshot_state()["log"] == [[1, [7]]]
        committed, _ = certifier.certify(
            request(reads=(7,), writes=(), start_seq=0)
        )
        assert not committed

    def test_pure_write_write_conflict_both_commit(self):
        """DBSM certification is read-write only (§3.3): two concurrent
        transactions writing the same tuple with disjoint read-sets both
        pass — the total order serializes their writes."""
        certifier = Certifier()
        a, seq_a = certifier.certify(
            request(reads=(10,), writes=(1,), start_seq=0, tx_id=1)
        )
        b, seq_b = certifier.certify(
            request(reads=(20,), writes=(1,), start_seq=0, tx_id=2)
        )
        assert a and b
        assert (seq_a, seq_b) == (1, 2)

    def test_self_certification_after_view_change_aborts_duplicate(self):
        """View-change re-submission: the origin's transaction committed
        just before the view change, then is re-certified with its old
        start_seq.  Reading what it wrote, it now conflicts with its own
        committed write-set and aborts — deterministically at every
        replica, which is what keeps duplicates harmless."""
        certifier = Certifier()
        first = request(reads=(5,), writes=(5,), start_seq=0, tx_id=9)
        committed, seq = certifier.certify(first)
        assert committed and seq == 1
        recommitted, again = certifier.certify(first)
        assert not recommitted and again == -1

    def test_self_certification_replicas_agree_on_duplicate(self):
        """Two replicas certifying the same post-view-change duplicate
        stream reach identical decisions."""
        stream = [
            request(reads=(5,), writes=(5,), start_seq=0, tx_id=9),
            request(reads=(6,), writes=(6,), start_seq=0, tx_id=10),
            request(reads=(5,), writes=(5,), start_seq=0, tx_id=9),  # dup
        ]
        a, b = Certifier(), Certifier()
        assert [a.certify(r) for r in stream] == [b.certify(r) for r in stream]

    def test_table_lock_readset_vs_unrelated_writes(self):
        """A whole-table read lock conflicts with any concurrent write
        into that table, but not with writes elsewhere."""
        certifier = Certifier()
        certifier.certify(
            request(reads=(), writes=(make_tuple_id(3, 8),), start_seq=0)
        )
        ok, _ = certifier.certify(
            request(reads=(table_lock_id(4),), writes=(), start_seq=0)
        )
        assert ok
        clashed, _ = certifier.certify(
            request(reads=(table_lock_id(3),), writes=(), start_seq=0)
        )
        assert not clashed
