"""Unit tests for the transaction model."""

import pytest

from repro.db.transactions import (
    Operation,
    OpKind,
    Transaction,
    TransactionSpec,
    TxStatus,
)


def spec(**kwargs):
    defaults = dict(
        tx_class="t",
        operations=(Operation(OpKind.PROCESS, cpu_time=1e-3),),
        read_set=(1, 2),
        write_set=(2,),
        write_sizes={2: 100},
    )
    defaults.update(kwargs)
    return TransactionSpec(**defaults)


class TestTransactionSpec:
    def test_sorted_sets_enforced(self):
        with pytest.raises(ValueError):
            spec(read_set=(2, 1))
        with pytest.raises(ValueError):
            spec(write_set=(5, 3))

    def test_readonly(self):
        assert spec(write_set=()).readonly
        assert not spec().readonly

    def test_total_cpu_sums_process_ops(self):
        s = spec(
            operations=(
                Operation(OpKind.FETCH, item=1, nbytes=10),
                Operation(OpKind.PROCESS, cpu_time=2e-3),
                Operation(OpKind.PROCESS, cpu_time=3e-3),
            )
        )
        assert s.total_cpu() == pytest.approx(5e-3)

    def test_write_bytes(self):
        s = spec(write_set=(2, 3), write_sizes={2: 100, 3: 50})
        assert s.write_bytes() == 150

    def test_operation_validation(self):
        with pytest.raises(ValueError):
            Operation(OpKind.FETCH)  # missing item
        with pytest.raises(ValueError):
            Operation(OpKind.WRITE, nbytes=10)
        with pytest.raises(ValueError):
            Operation(OpKind.PROCESS, cpu_time=-1.0)

    def test_sets_must_be_tuples(self):
        with pytest.raises(ValueError):
            spec(read_set=[1, 2])
        with pytest.raises(ValueError):
            spec(write_set=[2])

    def test_repeated_items_count_as_sorted(self):
        assert spec(read_set=(1, 1, 2)).read_set == (1, 1, 2)

    def test_defaults(self):
        s = TransactionSpec("t", (), (), ())
        assert s == ("t", (), (), (), {}, 2e-3, 1, False)
        assert Operation(OpKind.PROCESS) == (OpKind.PROCESS, None, 0.0, 0)
        assert Operation(kind=OpKind.WRITE, item=3, nbytes=8).item == 3

    def test_default_write_sizes_is_not_shared(self):
        a, b = TransactionSpec("t", (), (), ()), TransactionSpec("t", (), (), ())
        a.write_sizes[1] = 10
        assert b.write_sizes == {}

    def test_rows_are_immutable(self):
        with pytest.raises(AttributeError):
            spec().commit_cpu = 1.0
        with pytest.raises(AttributeError):
            spec().colour = "red"
        with pytest.raises(AttributeError):
            Operation(OpKind.PROCESS).cpu_time = 1.0


class TestTransaction:
    def test_fresh_ids_are_unique(self):
        a = Transaction(spec(), "site0")
        b = Transaction(spec(), "site0")
        assert a.tx_id != b.tx_id

    def test_initial_state(self):
        tx = Transaction(spec(), "site0")
        assert tx.status is TxStatus.PENDING
        assert tx.start_seq == -1
        assert not tx.remote

    def test_latency(self):
        tx = Transaction(spec(), "site0")
        tx.submit_time = 1.0
        tx.end_time = 1.5
        assert tx.latency == pytest.approx(0.5)
