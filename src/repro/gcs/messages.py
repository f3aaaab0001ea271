"""Wire formats of the group communication prototype.

All protocol messages marshal to compact binary buffers (``struct``
little-endian framing).  The marshaling deliberately mirrors the paper's
prototype conventions: 64-bit identifiers, explicit counts, and payload
padding so that simulated traffic volume matches a real deployment
(§3.3).  Marshaling cost is charged to the simulated CPU through the
runtime's per-byte send/receive overheads.

Message taxonomy — immutable ``NamedTuple`` rows, told apart by ``msg_type``:

========== =====================================================
``DATA``       application payload with per-sender FIFO sequence
``NACK``       receiver-initiated retransmission request
``SEQUENCE``   total-order assignments from the fixed sequencer
``STABILITY``  gossip round state (S, W, M) for garbage collection
``HEARTBEAT``  failure-detector liveness beacon
``PROPOSE``    view-change proposal from the coordinator
``FLUSH_ACK``  member state summary answering a proposal
``DECIDE``     view-change decision installing the new view
``STATE_REQ``  joiner's request for a state-transfer snapshot
``STATE``      one fragment of a donor's state-transfer snapshot
========== =====================================================
"""

from __future__ import annotations

import struct
from typing import NamedTuple, Tuple

__all__ = [
    "DATA",
    "NACK",
    "SEQUENCE",
    "STABILITY",
    "HEARTBEAT",
    "PROPOSE",
    "FLUSH_ACK",
    "DECIDE",
    "STATE_REQ",
    "STATE",
    "DataMsg",
    "NackMsg",
    "SequenceMsg",
    "StabilityMsg",
    "HeartbeatMsg",
    "ProposeMsg",
    "FlushAckMsg",
    "DecideMsg",
    "StateReqMsg",
    "StateMsg",
    "marshal",
    "unmarshal",
    "unmarshal_cached",
    "pack_data",
    "MarshalError",
]

DATA = 1
NACK = 2
SEQUENCE = 3
STABILITY = 4
HEARTBEAT = 5
PROPOSE = 6
FLUSH_ACK = 7
DECIDE = 8
STATE_REQ = 9
STATE = 10

# Every fixed-layout fragment is a precompiled Struct: marshal/unmarshal
# run once per simulated datagram, and compiling the format string on
# each call is pure overhead on that path.
_HEADER = struct.Struct("<BHI")  # type, sender, view_id
_DATA_BODY = struct.Struct("<Q?I")  # seq, retransmit, payload length
_NACK_HEAD = struct.Struct("<HI")  # origin, missing count
_STATE_BODY = struct.Struct("<QHHI")  # snapshot id, frag index, count, length
_U32 = struct.Struct("<I")
_PAIR = struct.Struct("<HQ")  # (member, seq)
_TRIPLE = struct.Struct("<QHQ")  # (global, origin, seq)


class MarshalError(ValueError):
    """Raised on malformed or truncated buffers."""


class DataMsg(NamedTuple):
    sender: int
    view_id: int
    seq: int
    payload: bytes
    #: True when this transmission is a retransmission (for stats only).
    retransmit: bool = False

    msg_type = DATA


class NackMsg(NamedTuple):
    sender: int  # who is asking
    view_id: int
    origin: int  # whose messages are missing
    missing: Tuple[int, ...]  # sequence numbers requested

    msg_type = NACK


class SequenceMsg(NamedTuple):
    sender: int  # the sequencer
    view_id: int
    #: (global_seq, origin, origin_seq) triples, consecutive globals.
    assignments: Tuple[Tuple[int, int, int], ...]

    msg_type = SEQUENCE


class StabilityMsg(NamedTuple):
    sender: int
    view_id: int
    round_id: int
    stable: Tuple[int, ...]  # S vector, indexed by member slot
    voted: Tuple[int, ...]  # W set (member ids)
    mins: Tuple[int, ...]  # M vector, indexed by member slot

    msg_type = STABILITY


class HeartbeatMsg(NamedTuple):
    sender: int
    view_id: int

    msg_type = HEARTBEAT


class ProposeMsg(NamedTuple):
    sender: int  # coordinator
    view_id: int  # the *proposed* view id
    members: Tuple[int, ...]

    msg_type = PROPOSE


class FlushAckMsg(NamedTuple):
    sender: int
    view_id: int  # the proposed view being acknowledged
    #: Per-origin highest contiguous sequence received.
    contiguous: Tuple[Tuple[int, int], ...]
    #: Total-order assignments this member knows: (global, origin, seq).
    assignments: Tuple[Tuple[int, int, int], ...]
    #: Application messages received but not yet assigned a global
    #: number: (origin, seq) keys.  The decide unions these so the new
    #: view can order them deterministically without the old sequencer.
    pending: Tuple[Tuple[int, int], ...] = ()

    msg_type = FLUSH_ACK


class DecideMsg(NamedTuple):
    sender: int  # coordinator
    view_id: int  # the decided view id
    members: Tuple[int, ...]
    #: Per-origin target contiguous sequence everyone must reach.
    targets: Tuple[Tuple[int, int], ...]
    #: Union of known assignments (authoritative for the new view).
    assignments: Tuple[Tuple[int, int, int], ...]
    #: Flushed application messages left unassigned by the old view's
    #: sequencer: every member assigns them the next global numbers in
    #: (origin, seq) order at install, locally and deterministically.
    pending: Tuple[Tuple[int, int], ...] = ()
    #: Members admitted into this view with empty volatile state: they
    #: skip the flush gap-fill and instead acquire a state-transfer
    #: snapshot from an established member before going live.
    joined: Tuple[int, ...] = ()

    msg_type = DECIDE


class StateReqMsg(NamedTuple):
    """A joiner asking an established member to serve it a snapshot."""

    sender: int  # the joiner
    view_id: int  # the joiner's installed view

    msg_type = STATE_REQ


class StateMsg(NamedTuple):
    """One fragment of a state-transfer snapshot (donor → joiner).

    Fragments of one capture share a ``snapshot_id``; a joiner discards
    partial captures when a retry triggers a fresh one."""

    sender: int  # the donor
    view_id: int
    snapshot_id: int
    frag_index: int
    frag_count: int
    payload: bytes

    msg_type = STATE


# ----------------------------------------------------------------------
# marshal
# ----------------------------------------------------------------------
def pack_data(
    sender: int, view_id: int, seq: int, payload: bytes, retransmit: bool = False
) -> bytes:
    """Wire bytes of a DATA message, straight from its fields.

    Byte-identical to ``marshal(DataMsg(sender, view_id, seq, payload,
    retransmit))``.  The reliable layer sends and retransmits from
    payload bytes it already buffers, so it can skip building the
    message only to tear it apart again here — DATA is the one message
    sent per transaction, making this the hottest marshal path.
    """
    return (
        _HEADER.pack(DATA, sender, view_id)
        + _DATA_BODY.pack(seq, retransmit, len(payload))
        + payload
    )


def marshal(msg) -> bytes:
    """Encode a protocol message into its wire representation."""
    if msg.msg_type == DATA:
        return pack_data(msg.sender, msg.view_id, msg.seq, msg.payload, msg.retransmit)
    head = _HEADER.pack(msg.msg_type, msg.sender, msg.view_id)
    if msg.msg_type == NACK:
        body = _NACK_HEAD.pack(msg.origin, len(msg.missing))
        body += struct.pack(f"<{len(msg.missing)}Q", *msg.missing)
        return head + body
    if msg.msg_type == SEQUENCE:
        return head + _pack_triples(msg.assignments)
    if msg.msg_type == STABILITY:
        return b"".join(
            (
                head,
                _U32.pack(msg.round_id),
                _pack_u64s(msg.stable),
                _U32.pack(len(msg.voted)),
                struct.pack(f"<{len(msg.voted)}H", *msg.voted),
                _pack_u64s(msg.mins),
            )
        )
    if msg.msg_type == HEARTBEAT:
        return head
    if msg.msg_type == PROPOSE:
        body = _U32.pack(len(msg.members))
        body += struct.pack(f"<{len(msg.members)}H", *msg.members)
        return head + body
    if msg.msg_type == FLUSH_ACK:
        return (
            head
            + _pack_pairs(msg.contiguous)
            + _pack_triples(msg.assignments)
            + _pack_pairs(msg.pending)
        )
    if msg.msg_type == DECIDE:
        return b"".join(
            (
                head,
                _U32.pack(len(msg.members)),
                struct.pack(f"<{len(msg.members)}H", *msg.members),
                _U32.pack(len(msg.joined)),
                struct.pack(f"<{len(msg.joined)}H", *msg.joined),
                _pack_pairs(msg.targets),
                _pack_triples(msg.assignments),
                _pack_pairs(msg.pending),
            )
        )
    if msg.msg_type == STATE_REQ:
        return head
    if msg.msg_type == STATE:
        body = _STATE_BODY.pack(
            msg.snapshot_id,
            msg.frag_index,
            msg.frag_count,
            len(msg.payload),
        )
        return head + body + msg.payload
    raise MarshalError(f"unknown message type {msg.msg_type}")


def unmarshal(buffer: bytes):
    """Decode a wire buffer back into its message object."""
    if len(buffer) < _HEADER.size:
        raise MarshalError("buffer shorter than header")
    msg_type, sender, view_id = _HEADER.unpack_from(buffer)
    view = memoryview(buffer)[_HEADER.size:]
    try:
        if msg_type == DATA:
            seq, retransmit, length = _DATA_BODY.unpack_from(view)
            offset = _DATA_BODY.size
            payload = bytes(view[offset : offset + length])
            if len(payload) != length:
                raise MarshalError("truncated DATA payload")
            return DataMsg(sender, view_id, seq, payload, retransmit)
        if msg_type == NACK:
            origin, count = _NACK_HEAD.unpack_from(view)
            missing = struct.unpack_from(f"<{count}Q", view, _NACK_HEAD.size)
            return NackMsg(sender, view_id, origin, tuple(missing))
        if msg_type == SEQUENCE:
            return SequenceMsg(sender, view_id, _unpack_triples(view)[0])
        if msg_type == STABILITY:
            (round_id,) = _U32.unpack_from(view)
            offset = 4
            stable, offset = _unpack_u64s(view, offset)
            (w_count,) = _U32.unpack_from(view, offset)
            offset += 4
            voted = struct.unpack_from(f"<{w_count}H", view, offset)
            offset += 2 * w_count
            mins, offset = _unpack_u64s(view, offset)
            return StabilityMsg(sender, view_id, round_id, stable, tuple(voted), mins)
        if msg_type == HEARTBEAT:
            return HeartbeatMsg(sender, view_id)
        if msg_type == PROPOSE:
            (count,) = _U32.unpack_from(view)
            members = struct.unpack_from(f"<{count}H", view, 4)
            return ProposeMsg(sender, view_id, tuple(members))
        if msg_type == FLUSH_ACK:
            contiguous, offset = _unpack_pairs(view, 0)
            assignments, offset = _unpack_triples(view, offset)
            pending, _ = _unpack_pairs(view, offset)
            return FlushAckMsg(sender, view_id, contiguous, assignments, pending)
        if msg_type == DECIDE:
            (count,) = _U32.unpack_from(view)
            offset = 4
            members = struct.unpack_from(f"<{count}H", view, offset)
            offset += 2 * count
            (joined_count,) = _U32.unpack_from(view, offset)
            offset += 4
            joined = struct.unpack_from(f"<{joined_count}H", view, offset)
            offset += 2 * joined_count
            targets, offset = _unpack_pairs(view, offset)
            assignments, offset = _unpack_triples(view, offset)
            pending, _ = _unpack_pairs(view, offset)
            return DecideMsg(
                sender,
                view_id,
                tuple(members),
                targets,
                assignments,
                pending,
                tuple(joined),
            )
        if msg_type == STATE_REQ:
            return StateReqMsg(sender, view_id)
        if msg_type == STATE:
            snapshot_id, frag_index, frag_count, length = _STATE_BODY.unpack_from(view)
            offset = _STATE_BODY.size
            payload = bytes(view[offset : offset + length])
            if len(payload) != length:
                raise MarshalError("truncated STATE payload")
            return StateMsg(
                sender, view_id, snapshot_id, frag_index, frag_count, payload
            )
    except struct.error as exc:
        raise MarshalError(f"truncated message of type {msg_type}: {exc}") from exc
    raise MarshalError(f"unknown message type {msg_type}")


#: Value-keyed decode memo.  A multicast datagram reaches all N group
#: members as the *same* bytes object, so a hit costs one dict probe
#: (identity short-circuit, cached hash) instead of a full decode.
#: Messages are immutable, so sharing one object between receivers is safe.
_DECODE_CACHE: dict = {}

#: Bound on the memo; cleared wholesale when reached.  Entries are tiny
#: (the decoded message aliases the buffer's payload bytes), and a full
#: clear keeps the policy deterministic and allocation-free.  Sized so a
#: whole campaign cell's distinct buffers usually fit: at 512 the heavy
#: cells clear several times per run and re-decode a third of their
#: traffic.
_DECODE_CACHE_LIMIT = 8192


def unmarshal_cached(buffer: bytes):
    """:func:`unmarshal` with a small value-keyed memo.

    Decoding is a pure function of the buffer, so cache hits and misses
    return value-identical messages — results never depend on cache
    state.  Raises :class:`MarshalError` exactly like :func:`unmarshal`
    (failures are never cached).
    """
    msg = _DECODE_CACHE.get(buffer)
    if msg is None:
        msg = unmarshal(buffer)
        if len(_DECODE_CACHE) >= _DECODE_CACHE_LIMIT:
            _DECODE_CACHE.clear()
        _DECODE_CACHE[buffer] = msg
    return msg


# ----------------------------------------------------------------------
# encoding helpers
# ----------------------------------------------------------------------
def _pack_u64s(values: Tuple[int, ...]) -> bytes:
    return struct.pack(f"<I{len(values)}Q", len(values), *values)


def _unpack_u64s(view, offset: int) -> Tuple[Tuple[int, ...], int]:
    (count,) = _U32.unpack_from(view, offset)
    offset += 4
    values = struct.unpack_from(f"<{count}Q", view, offset)
    return tuple(values), offset + 8 * count


def _pack_pairs(pairs: Tuple[Tuple[int, int], ...]) -> bytes:
    pack = _PAIR.pack
    return _U32.pack(len(pairs)) + b"".join(pack(a, b) for a, b in pairs)


def _unpack_pairs(view, offset: int) -> Tuple[Tuple[Tuple[int, int], ...], int]:
    (count,) = _U32.unpack_from(view, offset)
    offset += 4
    unpack, size = _PAIR.unpack_from, _PAIR.size
    pairs = tuple(unpack(view, offset + size * k) for k in range(count))
    return pairs, offset + size * count


def _pack_triples(triples: Tuple[Tuple[int, int, int], ...]) -> bytes:
    pack = _TRIPLE.pack
    return _U32.pack(len(triples)) + b"".join(
        pack(g, origin, seq) for g, origin, seq in triples
    )


def _unpack_triples(view, offset: int = 0):
    (count,) = _U32.unpack_from(view, offset)
    offset += 4
    unpack, size = _TRIPLE.unpack_from, _TRIPLE.size
    triples = tuple(unpack(view, offset + size * k) for k in range(count))
    return triples, offset + size * count
