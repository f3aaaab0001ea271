"""Property test: a record is its own stored row, so the round trip is
the identity on bytes.

``bench/run.py``'s ``result_digest`` and the golden digests are sha256s
of ``to_dict()`` as JSON, taken before and after the artifact round
trip and after the in-process hand-over ``runner._execute_cell`` →
``_cell_from`` (``from_dict(to_dict(x))``, no JSON in between).  Nothing
is coerced on either side, so whatever the simulation left in a column
— an ``int`` in a float column, ``nan``, a non-ASCII class name — comes
back as the same bytes."""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.metrics import (
    MetricsCollector,
    ResourceSample,
    SampleSeries,
    TxRecord,
)

#: What a float column may hold: every float, and the odd ``int``.
times = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(min_value=0, max_value=10**6),
)
names = st.one_of(
    st.sampled_from(["neworder", "payment-long", "payment-short", "delivery"]),
    st.text(max_size=8),  # non-ASCII included
)
records = st.lists(
    st.builds(
        TxRecord,
        tx_id=st.integers(min_value=0),
        tx_class=names,
        site=st.sampled_from(["site0", "site1", "sité2"]),
        submit_time=times,
        end_time=times,
        outcome=st.sampled_from(["commit", "abort"]),
        readonly=st.booleans(),
        certification_latency=times,
        abort_reason=st.sampled_from(["", "ww-conflict", "preempted", "intrinsic"]),
    ),
    max_size=30,
)
samples = st.lists(
    st.builds(
        ResourceSample,
        time=times,
        cpu_total=times,
        cpu_real=times,
        disk=times,
        net_bytes=st.integers(min_value=0),
    ),
    max_size=12,
)


def check_identity(cls, original):
    stored = json.dumps(original.to_dict())
    reread = cls.from_dict(json.loads(stored))
    assert json.dumps(reread.to_dict()) == stored
    handed_over = cls.from_dict(original.to_dict())
    assert json.dumps(handed_over.to_dict()) == stored
    return reread, handed_over


@given(records)
@settings(max_examples=150, deadline=None)
def test_collector_round_trip_is_the_identity_on_bytes(rows):
    collector = MetricsCollector()
    for row in rows:
        collector.record(row)
    for clone in check_identity(MetricsCollector, collector):
        assert all(type(r) is TxRecord for r in clone.records)
        # the same values, compared as bytes: ``nan != nan``
        assert repr(clone.records) == repr(collector.records)


@given(samples, st.floats(min_value=1e-3, max_value=60.0))
@settings(max_examples=100, deadline=None)
def test_sample_series_round_trip_is_the_identity_on_bytes(rows, interval):
    series = SampleSeries(rows, interval)
    for clone in check_identity(SampleSeries, series):
        assert all(type(s) is ResourceSample for s in clone.samples)
        assert repr(clone.samples) == repr(series.samples)
