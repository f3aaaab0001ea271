"""Unit tests for the TPC-C workload generators."""

import random
from collections import Counter

import pytest

from repro.db.tuples import is_table_lock, row_of, table_of
from repro.tpcc import schema
from repro.tpcc.profiles import THINK_TIME_MEAN
from repro.tpcc.workload import MIX, TpccWorkload


def make_workload(warehouses=5, seed=1, **kwargs):
    return TpccWorkload(warehouses, rng=random.Random(seed), **kwargs)


class TestMix:
    def test_mix_weights_sum_to_one(self):
        assert sum(w for _, w in MIX) == pytest.approx(1.0)

    def test_generated_mix_proportions(self):
        wl = make_workload()
        counts = Counter()
        for i in range(5000):
            spec = wl.next_transaction(i % 50)
            counts[spec.tx_class.split("-")[0]] += 1
        assert counts["neworder"] / 5000 == pytest.approx(0.44, abs=0.03)
        assert counts["payment"] / 5000 == pytest.approx(0.44, abs=0.03)

    def test_update_fraction_is_92_percent(self):
        """§5.1: a large majority (92 %) are update transactions."""
        wl = make_workload()
        updates = 0
        for i in range(5000):
            spec = wl.next_transaction(i % 50)
            if not spec.readonly:
                updates += 1
        assert updates / 5000 == pytest.approx(0.92, abs=0.02)


class TestClients:
    def test_home_assignment_10_clients_per_warehouse(self):
        wl = make_workload(warehouses=3)
        assert wl.home_of(0) == (0, 0)
        assert wl.home_of(9) == (0, 9)
        assert wl.home_of(10) == (1, 0)
        assert wl.home_of(29) == (2, 9)

    def test_think_time_mean(self):
        wl = make_workload()
        times = [wl.think_time() for _ in range(20000)]
        assert sum(times) / len(times) == pytest.approx(
            THINK_TIME_MEAN, rel=0.05
        )


class TestNeworder:
    def test_structure(self):
        wl = make_workload()
        spec = wl.neworder(0, 0)
        assert spec.tx_class == "neworder"
        assert spec.read_set == tuple(sorted(spec.read_set))
        assert spec.write_set == tuple(sorted(spec.write_set))
        assert not spec.readonly
        # district is certified (read with update intent)
        district = wl.layout.district(0, 0)
        assert district in spec.read_set
        assert district in spec.write_set

    def test_warehouse_not_in_read_set(self):
        """The plain read of the hot Warehouse row must not be certified
        (Table 1: neworder unaffected by replication)."""
        wl = make_workload()
        for _ in range(50):
            spec = wl.neworder(0, 0)
            assert wl.layout.warehouse(0) not in spec.read_set

    def test_intrinsic_rollback_rate(self):
        wl = make_workload()
        aborts = sum(wl.neworder(0, 0).intrinsic_abort for _ in range(5000))
        assert 0.003 < aborts / 5000 < 0.02

    def test_write_sizes_match_tables(self):
        wl = make_workload()
        spec = wl.neworder(0, 0)
        for item, size in spec.write_sizes.items():
            assert size == schema.TABLES[table_of(item)].row_bytes


class TestPayment:
    def test_warehouse_hotspot_in_write_set(self):
        wl = make_workload()
        spec = wl.payment(1, 2)
        assert wl.layout.warehouse(1) in spec.write_set
        assert wl.layout.warehouse(1) in spec.read_set

    def test_long_short_split(self):
        wl = make_workload()
        kinds = Counter(wl.payment(0, 0).tx_class for _ in range(2000))
        assert kinds["payment-long"] / 2000 == pytest.approx(0.60, abs=0.05)

    def test_long_carries_intrinsic_offset(self):
        wl = make_workload()
        long_aborts = short_aborts = long_n = short_n = 0
        for _ in range(8000):
            spec = wl.payment(0, 0)
            if spec.tx_class == "payment-long":
                long_n += 1
                long_aborts += spec.intrinsic_abort
            else:
                short_n += 1
                short_aborts += spec.intrinsic_abort
        assert short_aborts == 0
        assert long_aborts / long_n == pytest.approx(0.06, abs=0.02)


class TestReadOnlyClasses:
    def test_orderstatus_certifies_nothing(self):
        wl = make_workload()
        for _ in range(20):
            spec = wl.orderstatus(0, 0)
            assert spec.readonly
            assert spec.read_set == ()
            assert spec.commit_sectors == 0

    def test_stocklevel_certifies_nothing(self):
        wl = make_workload()
        spec = wl.stocklevel(0, 0)
        assert spec.readonly
        assert spec.read_set == ()


@pytest.mark.parametrize(
    "build",
    [
        lambda wl: wl.neworder(5, 0),
        lambda wl: wl.neworder(0, 10),
        lambda wl: wl.payment(5, 0),
        lambda wl: wl.payment(0, -1),
        lambda wl: wl.delivery(5),
    ],
    ids=["neworder-w", "neworder-d", "payment-w", "payment-d", "delivery-w"],
)
def test_a_builder_validates_its_home_key(build):
    """Each update builder checks its (warehouse, district) once through
    ``TpccLayout``; every other id it computes by addition."""
    with pytest.raises(ValueError, match="out of range"):
        build(make_workload(warehouses=5))


class TestDelivery:
    def test_touches_all_district_queue_heads(self):
        wl = make_workload()
        spec = wl.delivery(2)
        heads = [schema.NOHEAD_BASE + 2 * 10 + d for d in range(10)]
        for head in heads:
            assert head in spec.write_set
            assert head in spec.read_set

    def test_two_deliveries_same_warehouse_conflict(self):
        wl = make_workload()
        a = wl.delivery(0)
        b = wl.delivery(0)
        assert set(a.write_set) & set(b.read_set)

    def test_deliveries_different_warehouses_do_not_conflict(self):
        wl = make_workload()
        a = wl.delivery(0)
        b = wl.delivery(1)
        assert not set(a.write_set) & set(b.read_set)


class TestEscalation:
    def test_threshold_escalates_to_table_lock(self):
        wl = make_workload(readset_escalation_threshold=5)
        spec = wl.delivery(0)
        locks = [i for i in spec.read_set if is_table_lock(i)]
        assert locks, "expected at least one table lock after escalation"

    def test_no_escalation_by_default(self):
        wl = make_workload()
        spec = wl.delivery(0)
        assert not any(is_table_lock(i) for i in spec.read_set)


class TestInsertSafety:
    def test_concurrent_sites_never_collide_on_inserts(self):
        a = TpccWorkload(2, rng=random.Random(1), site_index=0, site_count=2)
        b = TpccWorkload(2, rng=random.Random(1), site_index=1, site_count=2)
        writes_a = set()
        writes_b = set()
        for _ in range(50):
            writes_a.update(a.neworder(0, 0).write_set)
            writes_b.update(b.neworder(0, 0).write_set)
        # shared rows (district/stock) may collide; inserts must not
        inserts_a = {i for i in writes_a if table_of(i) in (4, 5, 6, 7)}
        inserts_b = {i for i in writes_b if table_of(i) in (4, 5, 6, 7)}
        fresh_a = {i for i in inserts_a if not _is_settled(i)}
        fresh_b = {i for i in inserts_b if not _is_settled(i)}
        assert not fresh_a & fresh_b


def _is_settled(tuple_id):
    return row_of(tuple_id) >= schema.NOHEAD_ROW_BASE
