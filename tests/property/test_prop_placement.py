"""Property tests: data placement — fragment maps and the router.

The partial-replication invariants everything downstream leans on:

* a :class:`FragmentMap` is a *partition* of the warehouses — every
  warehouse owned by exactly one fragment, every fragment non-empty;
* site groups partition the sites the same way;
* :func:`warehouse_of_tuple` decodes exactly the row formulas the
  TPC-C schema encodes;
* a routing decision touches exactly the union of the fragments the
  transaction's mappable keys live in — a whole-table lock touches all
  of them, unmappable keys (item catalog, striped fresh inserts)
  touch none;
* the footprint-then-owners router (``route`` and, through the
  request's ``derived`` store, ``route_request``) decides — and fails —
  exactly as the per-id router it replaced, kept here verbatim as
  :func:`per_id_route`, and the set-level inverse
  :func:`warehouses_of_tuples` is :func:`warehouse_of_tuple` id for id.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.placement import (
    PLACEMENT_POLICIES,
    FragmentMap,
    TransactionRouter,
    fragment_of_site,
    sites_of_fragment,
)
from repro.db.tuples import is_table_lock, make_tuple_id, table_lock_id
from repro.dbsm.marshal import CommitRequest
from repro.placement import RoutingDecision
from repro.tpcc.schema import (
    CUSTOMER,
    CUSTOMERS_PER_DISTRICT,
    DISTRICT,
    DISTRICTS_PER_WAREHOUSE,
    HISTORY,
    ITEM,
    ITEM_COUNT,
    NEWORDER,
    NOHEAD_ROW_BASE,
    ORDER,
    ORDERLINE,
    SETTLED_ROW_BASE,
    STOCK,
    STOCK_PER_WAREHOUSE,
    TABLES,
    WAREHOUSE,
    warehouse_of_tuple,
    warehouses_for_clients,
    warehouses_of_tuples,
)

policies = st.sampled_from(PLACEMENT_POLICIES)


@st.composite
def maps(draw):
    warehouses = draw(st.integers(min_value=1, max_value=60))
    fragments = draw(st.integers(min_value=1, max_value=warehouses))
    policy = draw(policies)
    return FragmentMap(warehouses, fragments, policy)


@given(maps())
@settings(max_examples=300)
def test_fragment_map_partitions_warehouses(fmap):
    seen = []
    for fragment in range(fmap.fragments):
        owned = fmap.warehouses_of_fragment(fragment)
        assert owned, "every fragment owns at least one warehouse"
        seen.extend(owned)
    assert sorted(seen) == list(range(fmap.warehouses))
    for warehouse in range(fmap.warehouses):
        fragment = fmap.fragment_of_warehouse(warehouse)
        assert 0 <= fragment < fmap.fragments
        assert warehouse in fmap.warehouses_of_fragment(fragment)


@given(maps())
@settings(max_examples=200)
def test_range_policy_is_contiguous_and_monotone(fmap):
    owners = [fmap.fragment_of_warehouse(w) for w in range(fmap.warehouses)]
    if fmap.policy == "range":
        assert owners == sorted(owners)
    else:  # round-robin
        assert owners == [w % fmap.fragments for w in range(fmap.warehouses)]


@given(
    st.integers(min_value=1, max_value=24),
    st.integers(min_value=1, max_value=24),
)
@settings(max_examples=300)
def test_site_groups_partition_sites(sites, fragments):
    if fragments > sites:
        return
    seen = []
    for fragment in range(fragments):
        members = sites_of_fragment(fragment, sites, fragments)
        assert members, "every fragment group has at least one site"
        seen.extend(members)
        for site in members:
            assert fragment_of_site(site, sites, fragments) == fragment
    assert sorted(seen) == list(range(sites))


warehouse_ids = st.integers(min_value=0, max_value=59)
district_ids = st.integers(min_value=0, max_value=DISTRICTS_PER_WAREHOUSE - 1)


@given(warehouse_ids, district_ids, st.data())
@settings(max_examples=400)
def test_warehouse_of_tuple_decodes_schema_rows(warehouse, district, data):
    """Decode inverts the encoding for every per-warehouse row family."""
    customer = data.draw(
        st.integers(min_value=0, max_value=CUSTOMERS_PER_DISTRICT - 1)
    )
    item = data.draw(st.integers(min_value=0, max_value=STOCK_PER_WAREHOUSE - 1))
    slot = data.draw(st.integers(min_value=0, max_value=999))
    wd = warehouse * DISTRICTS_PER_WAREHOUSE + district
    encoded = [
        make_tuple_id(WAREHOUSE.table_id, warehouse + 1),
        make_tuple_id(DISTRICT.table_id, wd + 1),
        make_tuple_id(
            CUSTOMER.table_id, wd * CUSTOMERS_PER_DISTRICT + customer + 1
        ),
        make_tuple_id(
            STOCK.table_id, warehouse * STOCK_PER_WAREHOUSE + item + 1
        ),
        make_tuple_id(ORDER.table_id, SETTLED_ROW_BASE + (wd << 16) + slot),
        make_tuple_id(ORDER.table_id, NOHEAD_ROW_BASE + wd + 1),
    ]
    for tuple_id in encoded:
        assert warehouse_of_tuple(tuple_id) == warehouse
    # Item catalog rows and table locks are warehouse-free.
    assert warehouse_of_tuple(make_tuple_id(ITEM.table_id, item + 1)) is None
    assert warehouse_of_tuple(table_lock_id(STOCK.table_id)) is None


@st.composite
def routed_footprints(draw):
    fmap = draw(maps())
    count = draw(st.integers(min_value=0, max_value=8))
    warehouses = draw(
        st.lists(
            st.integers(min_value=0, max_value=fmap.warehouses - 1),
            min_size=count,
            max_size=count,
        )
    )
    keys = tuple(
        make_tuple_id(WAREHOUSE.table_id, w + 1) for w in warehouses
    )
    return fmap, warehouses, keys


@given(routed_footprints(), st.data())
@settings(max_examples=300)
def test_route_is_union_of_touched_fragments(footprint, data):
    fmap, warehouses, keys = footprint
    home = data.draw(st.integers(min_value=0, max_value=fmap.fragments - 1))
    split = data.draw(st.integers(min_value=0, max_value=len(keys)))
    router = TransactionRouter(fmap)
    decision = router.route(keys[:split], keys[split:], home)
    expected = sorted({fmap.fragment_of_warehouse(w) for w in warehouses})
    if not expected:
        expected = [home]
    assert list(decision.fragments) == expected
    assert decision.home == home
    assert decision.is_cross == (len(expected) > 1)


@given(maps(), st.data())
@settings(max_examples=200)
def test_table_lock_routes_everywhere_unmappable_nowhere(fmap, data):
    home = data.draw(st.integers(min_value=0, max_value=fmap.fragments - 1))
    router = TransactionRouter(fmap)
    lock = router.route((), (table_lock_id(STOCK.table_id),), home)
    assert list(lock.fragments) == list(range(fmap.fragments))
    catalog = router.route((make_tuple_id(ITEM.table_id, 7),), (), home)
    assert lock.is_cross == (fmap.fragments > 1)
    assert list(catalog.fragments) == [home]
    assert not catalog.is_cross


@given(st.integers(min_value=1, max_value=3000), st.integers(min_value=1, max_value=6))
@settings(max_examples=200)
def test_for_clients_matches_shared_warehouse_helper(clients, fragments):
    warehouses = warehouses_for_clients(clients)
    if fragments > warehouses:
        return
    fmap = FragmentMap.for_clients(clients, fragments)
    assert fmap.warehouses == warehouses
    assert fmap.fragments == fragments


# ----------------------------------------------------------------------
# the per-id router, verbatim from the commit before footprints: the
# specification of ``route`` / ``route_request``
# ----------------------------------------------------------------------
def fragment_of_tuple(fragment_map, tuple_id):
    """The fragment owning ``tuple_id``, or ``None`` when the id
    carries no warehouse (table locks, item catalog, fresh inserts)."""
    warehouse = warehouse_of_tuple(tuple_id)
    if warehouse is None:
        return None
    return fragment_map.fragment_of_warehouse(warehouse)


def per_id_route(fragment_map, read_set, write_set, home_fragment):
    all_fragments = tuple(range(fragment_map.fragments))
    if not 0 <= home_fragment < fragment_map.fragments:
        raise ValueError(f"home fragment {home_fragment} out of range")
    touched = set()
    for tuple_id in read_set:
        if is_table_lock(tuple_id):
            return RoutingDecision(all_fragments, home_fragment)
        fragment = fragment_of_tuple(fragment_map, tuple_id)
        if fragment is not None:
            touched.add(fragment)
    for tuple_id in write_set:
        if is_table_lock(tuple_id):
            return RoutingDecision(all_fragments, home_fragment)
        fragment = fragment_of_tuple(fragment_map, tuple_id)
        if fragment is not None:
            touched.add(fragment)
    if not touched:
        touched.add(home_fragment)
    return RoutingDecision(tuple(sorted(touched)), home_fragment)


@st.composite
def tuple_ids(draw, warehouses=60):
    """One id of any row family the workload produces (or, rarely, of
    none: an arbitrary 64-bit id)."""
    w = draw(st.integers(min_value=0, max_value=warehouses - 1))
    wd = w * DISTRICTS_PER_WAREHOUSE + draw(district_ids)
    family = draw(st.integers(min_value=0, max_value=10))
    if family == 0:
        return make_tuple_id(WAREHOUSE.table_id, w + 1)
    if family == 1:
        return make_tuple_id(DISTRICT.table_id, wd + 1)
    if family == 2:
        customer = draw(st.integers(0, CUSTOMERS_PER_DISTRICT - 1))
        return make_tuple_id(
            CUSTOMER.table_id, wd * CUSTOMERS_PER_DISTRICT + customer + 1
        )
    if family == 3:
        item = draw(st.integers(0, STOCK_PER_WAREHOUSE - 1))
        return make_tuple_id(STOCK.table_id, w * STOCK_PER_WAREHOUSE + item + 1)
    if family in (4, 5):  # settled / queue-head rows of the order tables
        table = draw(st.sampled_from((ORDER, ORDERLINE, NEWORDER)))
        if family == 4:
            row = SETTLED_ROW_BASE + (wd << 16) + draw(st.integers(0, 999))
        else:
            row = NOHEAD_ROW_BASE + wd + 1
        return make_tuple_id(table.table_id, row)
    if family == 6:
        return make_tuple_id(ITEM.table_id, draw(st.integers(1, ITEM_COUNT)))
    if family == 7:  # fresh insert rows: striped upward from zero
        table = draw(st.sampled_from((ORDER, ORDERLINE, NEWORDER, HISTORY)))
        return make_tuple_id(table.table_id, draw(st.integers(1, 1 << 30)))
    if family == 8:
        return table_lock_id(draw(st.sampled_from(sorted(TABLES))))
    if family == 9:
        return draw(st.integers(min_value=0, max_value=(1 << 64) - 1))
    return make_tuple_id(STOCK.table_id, draw(st.integers(1, 1 << 30)))


def expected_footprint(ids):
    """``warehouses_of_tuples`` spelled with the per-id inverse."""
    locks = [at for at, tuple_id in enumerate(ids) if is_table_lock(tuple_id)]
    before = ids[: locks[0]] if locks else ids
    warehouses = {warehouse_of_tuple(tuple_id) for tuple_id in before} - {None}
    return tuple(sorted(warehouses)), bool(locks)


@given(st.lists(tuple_ids(), max_size=12), st.lists(tuple_ids(), max_size=12))
@settings(max_examples=200)
def test_set_level_inverse_is_the_per_id_inverse(reads, writes):
    for tuple_id in reads + writes:
        warehouse = warehouse_of_tuple(tuple_id)
        assert warehouses_of_tuples((tuple_id,)) == (
            () if warehouse is None else (warehouse,),
            is_table_lock(tuple_id),
        )
    assert warehouses_of_tuples(reads, writes) == expected_footprint(reads + writes)
    assert warehouses_of_tuples() == warehouses_of_tuples((), ()) == ((), False)


@st.composite
def routed_sets(draw):
    """A small map (so ids of the 60-warehouse families are sometimes
    out of its range), read/write sets of every row family and,
    possibly, a table lock put first, in the middle or last."""
    warehouses = draw(st.sampled_from((6, 12, 60)))
    fragments = draw(st.integers(min_value=1, max_value=6))
    fmap = FragmentMap(warehouses, fragments, draw(policies))
    in_range = draw(st.booleans())
    ids = draw(
        st.lists(
            tuple_ids(warehouses if in_range else 60).filter(
                lambda t: not is_table_lock(t)
            ),
            max_size=14,
        )
    )
    lock_at = draw(st.sampled_from((None, "first", "mid", "last")))
    if lock_at is not None:
        at = {"first": 0, "mid": len(ids) // 2, "last": len(ids)}[lock_at]
        ids.insert(at, table_lock_id(draw(st.sampled_from(sorted(TABLES)))))
    split = draw(st.integers(min_value=0, max_value=len(ids)))
    return fmap, tuple(ids[:split]), tuple(ids[split:])


@given(routed_sets())
@settings(max_examples=300)
def test_route_and_route_request_equal_the_per_id_router(case):
    fmap, reads, writes = case
    router = TransactionRouter(fmap)
    request = CommitRequest(
        origin=0, tx_id=1, start_seq=0, tx_class="t", read_set=reads,
        write_set=writes, write_bytes=0, commit_cpu=0.0, commit_sectors=0,
    )
    for home in range(-1, fmap.fragments + 1):
        try:
            expected = per_id_route(fmap, reads, writes, home)
        except ValueError:
            for _ in range(2):  # a failure is never cached
                with pytest.raises(ValueError):
                    router.route(reads, writes, home)
                with pytest.raises(ValueError):
                    router.route_request(request, home)
            continue
        assert router.route(reads, writes, home) == expected
        assert router.route_request(request, home) == expected
        assert request.derived["placement"] == expected_footprint(reads + writes)
