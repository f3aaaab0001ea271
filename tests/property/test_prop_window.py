"""Property tests: receive-window bookkeeping under arbitrary arrivals."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gcs.window import BufferPool, ReceiveWindow


@given(st.permutations(list(range(1, 21))))
@settings(max_examples=200)
def test_any_arrival_order_reaches_full_contiguity(order):
    window = ReceiveWindow()
    for seq in order:
        window.receive(seq)
    assert window.contiguous == 20
    assert window.gaps() == []
    assert not window.pending


@given(
    st.lists(st.integers(min_value=1, max_value=30), min_size=1, max_size=60)
)
@settings(max_examples=200)
def test_contiguous_is_longest_prefix_of_received_set(arrivals):
    window = ReceiveWindow()
    for seq in arrivals:
        window.receive(seq)
    received = set(arrivals)
    expected = 0
    while expected + 1 in received:
        expected += 1
    assert window.contiguous == expected
    # gaps are exactly the missing numbers below the highest arrival
    top = max(received)
    expected_gaps = [s for s in range(expected + 1, top) if s not in received]
    assert window.gaps(limit=100) == expected_gaps


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=3),
            st.integers(min_value=1, max_value=40),
        ),
        max_size=80,
    ),
    st.dictionaries(
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=40),
        max_size=4,
    ),
)
@settings(max_examples=200)
def test_pool_collect_never_leaves_stale_entries(stores, stable):
    pool = BufferPool(share=1000)
    for origin, seq in stores:
        pool.store(origin, seq, b"x")
    pool.collect(stable)
    for origin, seq in stores:
        entry = pool.get(origin, seq)
        if seq <= stable.get(origin, 0):
            assert entry is None
        else:
            assert entry == b"x"
    # occupancy bookkeeping stays consistent
    for origin in {o for o, _ in stores}:
        live = {
            s for o, s in stores if o == origin and s > stable.get(origin, 0)
        }
        assert pool.occupancy(origin) == len(live)


_ORIGINS = st.integers(min_value=0, max_value=3)
_SEQS = st.integers(min_value=1, max_value=40)
_POOL_OPS = st.one_of(
    st.tuples(st.just("store"), _ORIGINS, _SEQS),
    st.tuples(st.just("purge"), _ORIGINS, st.integers(min_value=0, max_value=40)),
    st.tuples(
        st.just("collect"),
        st.dictionaries(_ORIGINS, st.integers(min_value=0, max_value=40)),
    ),
)


@given(st.lists(_POOL_OPS, max_size=120))
@settings(max_examples=300)
def test_pool_collect_skip_matches_plain_scan(ops):
    """``collect`` may return early only when the plain scan over every
    buffered message would have found nothing: any interleaving of
    store / collect / purge_origin_above leaves the same messages, the
    same return values and the same counters as a reference set."""
    pool = BufferPool(share=1000)
    reference = set()
    collected = 0
    for op in ops:
        if op[0] == "store":
            _, origin, seq = op
            pool.store(origin, seq, b"x")
            reference.add((origin, seq))
        elif op[0] == "purge":
            _, origin, seq = op
            doomed = {k for k in reference if k[0] == origin and k[1] > seq}
            assert pool.purge_origin_above(origin, seq) == len(doomed)
            reference -= doomed
        else:
            stable = op[1]
            doomed = {k for k in reference if k[1] <= stable.get(k[0], 0)}
            assert pool.collect(stable) == len(doomed)
            reference -= doomed
            collected += len(doomed)
        assert pool.total_buffered() == len(reference)
    assert pool.stats["collected"] == collected
    for origin in range(4):
        mine = {seq for o, seq in reference if o == origin}
        assert pool.occupancy(origin) == len(mine)
        for seq in range(1, 41):
            assert (pool.get(origin, seq) is not None) == (seq in mine)
