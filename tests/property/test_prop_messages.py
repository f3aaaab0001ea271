"""Property tests: wire-format roundtrips over random field values."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dbsm.marshal import CommitRequest, marshal_request, unmarshal_request
from repro.gcs.messages import (
    DataMsg,
    DecideMsg,
    FlushAckMsg,
    NackMsg,
    ProposeMsg,
    SequenceMsg,
    StabilityMsg,
    marshal,
    unmarshal,
)

u16 = st.integers(min_value=0, max_value=0xFFFF)
u32 = st.integers(min_value=0, max_value=0xFFFFFFFF)
u48 = st.integers(min_value=0, max_value=(1 << 48) - 1)
seq_no = st.integers(min_value=0, max_value=(1 << 62) - 1)
pairs = st.lists(st.tuples(u16, seq_no), max_size=8).map(tuple)
triples = st.lists(st.tuples(seq_no, u16, seq_no), max_size=8).map(tuple)
id_tuples = st.lists(u16, max_size=8).map(tuple)


@given(st.builds(DataMsg, u16, u32, seq_no, st.binary(max_size=2048), st.booleans()))
@settings(max_examples=300)
def test_data_roundtrip(msg):
    assert unmarshal(marshal(msg)) == msg


@given(st.builds(NackMsg, u16, u32, u16, st.lists(seq_no, max_size=32).map(tuple)))
@settings(max_examples=200)
def test_nack_roundtrip(msg):
    assert unmarshal(marshal(msg)) == msg


@given(st.builds(SequenceMsg, u16, u32, triples))
@settings(max_examples=200)
def test_sequence_roundtrip(msg):
    assert unmarshal(marshal(msg)) == msg


@given(
    st.builds(
        StabilityMsg,
        u16,
        u32,
        u32,
        st.lists(seq_no, max_size=6).map(tuple),
        st.lists(u16, unique=True, max_size=6).map(tuple),
        st.lists(seq_no, max_size=6).map(tuple),
    )
)
@settings(max_examples=200)
def test_stability_roundtrip(msg):
    assert unmarshal(marshal(msg)) == msg


@given(st.builds(ProposeMsg, u16, u32, st.lists(u16, max_size=8).map(tuple)))
@settings(max_examples=100)
def test_propose_roundtrip(msg):
    assert unmarshal(marshal(msg)) == msg


# ``pending`` / ``joined`` are passed explicitly: Hypothesis infers an
# optional NamedTuple field from its annotation, and no ``<HQ`` packs the
# ``(0, -1)`` a bare ``Tuple[int, int]`` allows.
@given(st.builds(FlushAckMsg, u16, u32, pairs, triples, pending=pairs))
@settings(max_examples=100)
def test_flush_ack_roundtrip(msg):
    assert unmarshal(marshal(msg)) == msg


@given(
    st.builds(
        DecideMsg, u16, u32, id_tuples, pairs, triples, pending=pairs, joined=id_tuples
    )
)
@settings(max_examples=100)
def test_decide_roundtrip(msg):
    assert unmarshal(marshal(msg)) == msg


sorted_id_sets = st.lists(
    st.integers(min_value=1, max_value=(1 << 63) - 1), max_size=40
).map(lambda ids: tuple(sorted(set(ids))))


@given(
    st.builds(
        CommitRequest,
        origin=u16,
        tx_id=seq_no,
        start_seq=seq_no,
        tx_class=st.text(min_size=1, max_size=30),
        read_set=sorted_id_sets,
        write_set=sorted_id_sets,
        write_bytes=st.integers(min_value=0, max_value=8192),
        commit_cpu=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        commit_sectors=st.integers(min_value=0, max_value=1000),
    )
)
@settings(max_examples=300)
def test_commit_request_roundtrip(req):
    assert unmarshal_request(marshal_request(req)) == req
