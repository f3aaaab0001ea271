"""Property tests: invariants of generated TPC-C transactions.

The most load-bearing one is preemption safety: a remotely-certified
transaction may abort a local lock holder *only because* that holder
would fail certification anyway (paper §3.1).  That implication holds
iff every non-insert write of an update transaction also appears in its
certified read set — checked here over the whole generator.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db.tuples import make_tuple_id, row_of, table_of
from repro.tpcc import schema
from repro.tpcc.workload import TpccWorkload, _below, _distinct_items

seeds = st.integers(min_value=0, max_value=10_000)
warehouse_counts = st.integers(min_value=1, max_value=8)


def make_workload(seed, warehouses, site_index=0, site_count=1):
    return TpccWorkload(
        warehouses,
        rng=random.Random(seed),
        site_index=site_index,
        site_count=site_count,
    )


def is_insert(tuple_id: int) -> bool:
    """Fresh rows are below the settled/nohead namespaces and belong to
    insert tables (history, neworder, order, orderline)."""
    return (
        table_of(tuple_id) in (4, 5, 6, 7)
        and row_of(tuple_id) < schema.NOHEAD_ROW_BASE
    )


@given(seeds, warehouse_counts)
@settings(max_examples=150)
def test_specs_well_formed(seed, warehouses):
    workload = make_workload(seed, warehouses)
    for i in range(30):
        spec = workload.next_transaction(i)
        assert spec.read_set == tuple(sorted(set(spec.read_set)))
        assert spec.write_set == tuple(sorted(set(spec.write_set)))
        assert spec.total_cpu() > 0
        for item in spec.write_sizes:
            assert item in spec.write_set
        if spec.readonly:
            assert spec.commit_sectors == 0
            assert spec.read_set == ()


@given(seeds, warehouse_counts)
@settings(max_examples=150)
def test_preemption_safety_invariant(seed, warehouses):
    """Every non-insert write is covered by the read set, so any two
    update transactions with overlapping non-insert writes also have a
    read-write intersection — certification will abort whichever loses,
    which is what makes remote preemption of local holders safe."""
    workload = make_workload(seed, warehouses)
    for i in range(30):
        spec = workload.next_transaction(i)
        for item in spec.write_set:
            if not is_insert(item):
                assert item in spec.read_set, (
                    f"{spec.tx_class}: write {item:#x} not covered by reads"
                )


@given(seeds)
@settings(max_examples=50)
def test_insert_ids_disjoint_across_sites(seed):
    site_count = 3
    workloads = [
        make_workload(seed, 4, site_index=i, site_count=site_count)
        for i in range(site_count)
    ]
    inserts = []
    for workload in workloads:
        mine = set()
        for i in range(40):
            spec = workload.next_transaction(i)
            mine.update(item for item in spec.write_set if is_insert(item))
        inserts.append(mine)
    for i in range(site_count):
        for j in range(i + 1, site_count):
            assert not inserts[i] & inserts[j]


@given(seeds, warehouse_counts)
@settings(max_examples=50)
def test_items_stay_inside_schema_bounds(seed, warehouses):
    workload = make_workload(seed, warehouses)
    valid_tables = set(schema.TABLES)
    for i in range(30):
        spec = workload.next_transaction(i)
        for item in (*spec.read_set, *spec.write_set):
            assert table_of(item) in valid_tables
            assert row_of(item) >= 1


@given(
    seeds,
    warehouse_counts,
    st.integers(min_value=1, max_value=6),
    st.sampled_from([None, 2, 8]),
    st.data(),
)
@settings(max_examples=100)
def test_generated_ids_are_what_the_validating_constructors_build(
    seed, warehouses, site_count, threshold, data
):
    """The builders compute ids by addition; every one of them must
    still decode through ``table_of`` / ``row_of`` /
    ``warehouse_of_tuple`` to a key the public ``TpccLayout`` methods
    accept, and re-encode through them to the same id."""
    site_index = data.draw(st.integers(min_value=0, max_value=site_count - 1))
    workload = TpccWorkload(
        warehouses,
        rng=random.Random(seed),
        site_index=site_index,
        site_count=site_count,
        readset_escalation_threshold=threshold,
    )
    layout = schema.TpccLayout(warehouses, site_index, site_count)
    dpw, cpd = schema.DISTRICTS_PER_WAREHOUSE, schema.CUSTOMERS_PER_DISTRICT
    fresh_rows = []
    for i in range(40):
        spec = workload.next_transaction(i)
        for item in sorted({*spec.read_set, *spec.write_set}):
            table, row = table_of(item), row_of(item)
            owner = schema.warehouse_of_tuple(item)
            assert owner is None or 0 <= owner < warehouses
            if row == 0:  # escalated: a whole-table lock, reads only
                assert threshold is not None and item not in spec.write_set
            elif table == schema.WAREHOUSE.table_id:
                assert layout.warehouse(row - 1) == item and owner == row - 1
            elif table == schema.DISTRICT.table_id:
                w, d = divmod(row - 1, dpw)
                assert layout.district(w, d) == item and owner == w
            elif table == schema.CUSTOMER.table_id:
                wd, c = divmod(row - 1, cpd)
                assert layout.customer(*divmod(wd, dpw), c) == item
                assert owner == wd // dpw
            elif table == schema.STOCK.table_id:
                w, stock_item = divmod(row - 1, schema.STOCK_PER_WAREHOUSE)
                assert layout.stock(w, stock_item) == item and owner == w
            elif row >= schema.SETTLED_ROW_BASE:
                assert table in (schema.ORDER.table_id, schema.ORDERLINE.table_id)
                assert make_tuple_id(table, row) == item and owner is not None
            elif row >= schema.NOHEAD_ROW_BASE:
                assert table == schema.NEWORDER.table_id
                w, d = divmod(row - schema.NOHEAD_ROW_BASE - 1, dpw)
                assert 0 <= w < warehouses and owner == w
                assert item == make_tuple_id(table, schema.NOHEAD_ROW_BASE + w * dpw + d + 1)
            else:  # a fresh insert: striped by site, owned by no warehouse
                assert is_insert(item) and owner is None
                assert item in spec.write_set and item not in spec.read_set
                fresh_rows.append((table, row))
    # Fresh rows are what fresh_row() would have numbered, in order.
    assert sorted(row for _, row in fresh_rows) == [
        row_of(layout.fresh_row(schema.TABLES[table])) for table, _ in fresh_rows
    ]


@given(st.data())
@settings(max_examples=200)
def test_each_base_plus_offset_is_the_validating_constructor(data):
    """What the builders add onto a per-table base is, for every
    in-range key, the id ``TpccLayout`` (or ``make_tuple_id``, for the
    queue heads) returns after validating that key."""
    warehouses = data.draw(st.integers(min_value=1, max_value=64))
    layout = schema.TpccLayout(warehouses)
    w = data.draw(st.integers(min_value=0, max_value=warehouses - 1))
    d = data.draw(st.integers(0, schema.DISTRICTS_PER_WAREHOUSE - 1))
    c = data.draw(st.integers(0, schema.CUSTOMERS_PER_DISTRICT - 1))
    item = data.draw(st.integers(0, schema.ITEM_COUNT - 1))
    wd = w * schema.DISTRICTS_PER_WAREHOUSE + d
    assert schema.WAREHOUSE_BASE + w == layout.warehouse(w)
    assert (
        schema.CUSTOMER_BASE + wd * schema.CUSTOMERS_PER_DISTRICT + c
        == layout.customer(w, d, c)
    )
    assert (
        schema.STOCK_BASE + w * schema.STOCK_PER_WAREHOUSE + item
        == layout.stock(w, item)
    )
    assert schema.NOHEAD_BASE + wd == make_tuple_id(
        schema.NEWORDER.table_id, schema.NOHEAD_ROW_BASE + wd + 1
    )


draws = st.one_of(
    st.tuples(st.just("randrange"), st.integers(min_value=1, max_value=200_000)),
    st.tuples(st.just("randint"), st.just(11)),
    st.tuples(st.just("sample"), st.integers(min_value=0, max_value=15)),
)


@given(st.integers(min_value=0, max_value=2**32), st.lists(draws, min_size=1, max_size=30))
@settings(max_examples=200)
def test_inlined_draws_are_the_library_draws(seed, sequence):
    """The builders draw on ``getrandbits`` directly; number for number
    that is ``randrange`` / ``randint`` / ``sample``, and the generator
    is left where the library calls would have left it."""
    ours, library = random.Random(seed), random.Random(seed)
    for kind, n in sequence:
        if kind == "randrange":
            assert _below(ours.getrandbits, n) == library.randrange(n)
        elif kind == "randint":
            assert 5 + _below(ours.getrandbits, n) == library.randint(5, 15)
        else:
            assert _distinct_items(ours.getrandbits, n) == library.sample(
                range(schema.ITEM_COUNT), n
            )
    assert ours.getstate() == library.getstate()
