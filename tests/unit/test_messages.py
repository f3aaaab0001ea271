"""Unit tests for GCS wire formats."""

import pytest

from repro.gcs.messages import (
    DataMsg,
    DecideMsg,
    FlushAckMsg,
    HeartbeatMsg,
    MarshalError,
    NackMsg,
    ProposeMsg,
    SequenceMsg,
    StabilityMsg,
    StateMsg,
    StateReqMsg,
    marshal,
    unmarshal,
)

ROUNDTRIP_CASES = [
    DataMsg(sender=3, view_id=7, seq=42, payload=b"hello world"),
    DataMsg(sender=0, view_id=1, seq=1, payload=b"", retransmit=True),
    NackMsg(sender=1, view_id=2, origin=0, missing=(4, 5, 9)),
    NackMsg(sender=1, view_id=2, origin=3, missing=()),
    SequenceMsg(sender=0, view_id=1, assignments=((1, 2, 1), (2, 0, 7))),
    SequenceMsg(sender=0, view_id=1, assignments=()),
    StabilityMsg(
        sender=2,
        view_id=1,
        round_id=9,
        stable=(10, 20, 30),
        voted=(0, 2),
        mins=(11, 21, 31),
    ),
    HeartbeatMsg(sender=5, view_id=3),
    ProposeMsg(sender=0, view_id=4, members=(0, 1)),
    FlushAckMsg(
        sender=1,
        view_id=4,
        contiguous=((0, 10), (1, 5)),
        assignments=((3, 1, 2),),
    ),
    FlushAckMsg(
        sender=2,
        view_id=9,
        contiguous=((0, 0),),
        assignments=(),
        pending=((1, 6), (1, 7), (2, 3)),
    ),
    DecideMsg(
        sender=0,
        view_id=4,
        members=(0, 1),
        targets=((0, 10), (1, 7)),
        assignments=((1, 0, 1), (2, 1, 1)),
    ),
    DecideMsg(
        sender=1,
        view_id=5,
        members=(0, 1, 3),
        targets=(),
        assignments=(),
        pending=((0, 11), (1, 8)),
        joined=(3,),
    ),
    StateReqMsg(sender=3, view_id=5),
    StateMsg(
        sender=0,
        view_id=5,
        snapshot_id=2,
        frag_index=1,
        frag_count=3,
        payload=b"\x00snapshot-bytes\xff",
    ),
    StateMsg(
        sender=1,
        view_id=6,
        snapshot_id=0,
        frag_index=0,
        frag_count=1,
        payload=b"",
    ),
]


class TestRoundtrip:
    @pytest.mark.parametrize("msg", ROUNDTRIP_CASES, ids=lambda m: type(m).__name__)
    def test_marshal_unmarshal_identity(self, msg):
        decoded = unmarshal(marshal(msg))
        # Rows of two types compare equal on equal fields: pin the type.
        assert type(decoded) is type(msg) and decoded == msg

    @pytest.mark.parametrize("msg", ROUNDTRIP_CASES, ids=lambda m: type(m).__name__)
    def test_unmarshal_marshal_identity(self, msg):
        wire = marshal(msg)
        assert marshal(unmarshal(wire)) == wire

    def test_payload_bytes_preserved(self):
        payload = bytes(range(256)) * 8
        msg = DataMsg(1, 1, 1, payload)
        assert unmarshal(marshal(msg)).payload == payload

    def test_every_message_type_has_a_case(self):
        """A message class added to the wire format must land here too."""
        import repro.gcs.messages as messages

        wire_types = {
            obj
            for obj in vars(messages).values()
            if isinstance(obj, type) and hasattr(obj, "msg_type")
        }
        assert len(wire_types) == 10
        covered = {type(m) for m in ROUNDTRIP_CASES}
        assert covered == wire_types, (
            f"missing roundtrip cases for "
            f"{sorted(t.__name__ for t in wire_types - covered)}"
        )


class TestRows:
    """The wire types are ``typing.NamedTuple`` rows: same field order,
    defaults and ``msg_type`` as the frozen dataclasses they replaced."""

    def test_positional_and_keyword_construction_agree(self):
        assert DataMsg(3, 7, 42, b"x", True) == DataMsg(
            sender=3, view_id=7, seq=42, payload=b"x", retransmit=True
        )
        assert DecideMsg(0, 4, (0, 1), ((0, 10),), (), ((1, 2),), (1,)) == DecideMsg(
            sender=0, view_id=4, members=(0, 1), targets=((0, 10),),
            assignments=(), pending=((1, 2),), joined=(1,),
        )
        assert StabilityMsg._fields == (
            "sender", "view_id", "round_id", "stable", "voted", "mins"
        )

    def test_the_three_defaults(self):
        assert DataMsg(1, 1, 1, b"").retransmit is False
        assert FlushAckMsg(1, 1, (), ()).pending == ()
        decide = DecideMsg(1, 1, (1,), (), ())
        assert decide.pending == () and decide.joined == ()

    def test_msg_type_on_class_and_instance(self):
        from repro.gcs import messages

        codes = {type(m): type(m).msg_type for m in ROUNDTRIP_CASES}
        assert sorted(codes.values()) == list(range(1, 11))
        assert codes[DataMsg] == messages.DATA and codes[StateMsg] == messages.STATE
        for msg in ROUNDTRIP_CASES:
            assert msg.msg_type == codes[type(msg)]
            assert "msg_type" not in msg._fields

    @pytest.mark.parametrize("msg", ROUNDTRIP_CASES, ids=lambda m: type(m).__name__)
    def test_immutable_and_closed(self, msg):
        with pytest.raises(AttributeError):
            msg.sender = 9
        with pytest.raises(AttributeError):
            msg.extra = 1


class TestErrors:
    def test_truncated_header(self):
        with pytest.raises(MarshalError):
            unmarshal(b"\x01")

    def test_truncated_data_payload(self):
        wire = marshal(DataMsg(1, 1, 1, b"x" * 100))
        with pytest.raises(MarshalError):
            unmarshal(wire[:20])

    def test_unknown_type(self):
        wire = bytes([99]) + marshal(HeartbeatMsg(1, 1))[1:]
        with pytest.raises(MarshalError):
            unmarshal(wire)

    def test_truncated_vector(self):
        wire = marshal(NackMsg(1, 1, 0, (1, 2, 3)))
        with pytest.raises(MarshalError):
            unmarshal(wire[:-8])


class TestSizes:
    def test_heartbeat_is_tiny(self):
        assert len(marshal(HeartbeatMsg(1, 1))) < 16

    def test_data_overhead_is_small(self):
        payload = b"y" * 1000
        wire = marshal(DataMsg(1, 1, 1, payload))
        assert len(wire) - len(payload) < 32
