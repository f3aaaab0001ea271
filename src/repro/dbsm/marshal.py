"""Marshaling of transaction termination messages (paper §3.3).

When a transaction enters the committing stage, the identifiers of read
and written tuples (64-bit integers), the sequence number of the last
transaction committed locally, and the values of the written tuples are
marshaled into a message buffer.  In the simulation the written values
are represented by **padding** whose length equals the real value sizes,
so message sizes — and therefore network load and CPU marshaling cost —
match a real system's traffic.

The prototype avoids copying already-marshaled buffers (§3.3); here the
equivalent is building the buffer in one pass with ``struct`` and
charging the per-byte CPU cost through the runtime's send overhead.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, FrozenSet, Tuple

from ..db.transactions import TransactionSpec
from ..db.tuples import ROW_BITS, ROW_MASK
from ..gcs.messages import DecodeMemo

__all__ = [
    "CommitRequest",
    "marshal_request",
    "unmarshal_request",
    "unmarshal_request_cached",
]

_HEADER = struct.Struct("<HQQdIHII")  # origin, tx_id, start_seq, commit_cpu,
# commit_sectors, class-name length, read count, write count


@dataclass(frozen=True)
class CommitRequest:
    """Everything a replica needs to certify and apply a transaction."""

    origin: int  # group member id of the submitting site
    tx_id: int
    start_seq: int  # last transaction committed locally at execution start
    tx_class: str
    read_set: Tuple[int, ...]  # sorted; update-intent reads
    write_set: Tuple[int, ...]  # sorted
    write_bytes: int  # total size of written values (padding length)
    commit_cpu: float
    commit_sectors: int

    @cached_property
    def read_footprint(self) -> Tuple[FrozenSet[int], FrozenSet[int]]:
        """``(tables, whole-table-locked tables)`` of the read set.

        Certification probes its table indexes with these; caching them
        here means they are computed once per transaction and shared by
        all replicas' certifiers (the decode memo hands every replica
        the same instance).
        """
        reads = self.read_set
        return (
            frozenset(r >> ROW_BITS for r in reads),
            frozenset(r >> ROW_BITS for r in reads if not r & ROW_MASK),
        )

    @cached_property
    def derived(self) -> Dict[object, object]:
        """The per-request store: what every replica derives from these
        bytes, computed by the first that asks (the decode memo hands
        them all this one instance).  Holds :meth:`remote_spec`'s specs
        by CPU factor and — filled by the router, ``dbsm`` knows no
        schema — the ``"placement"`` footprint.  An entry is a pure
        function of the request's fields: never site state, never a
        failure (what can raise raises at every caller)."""
        return {}

    def remote_spec(self, cpu_factor: float) -> TransactionSpec:
        """The apply-side reconstruction every replication protocol
        performs on delivery: install the already-computed writes and
        run the commit record — no parsing, planning or execution, so
        only ``cpu_factor`` of the profiled commit cost is charged.
        Built once per request and factor: the spec is frozen, and every
        remote replica is handed the same request instance."""
        derived = self.derived
        spec = derived.get(cpu_factor)
        if spec is None:
            spec = derived[cpu_factor] = TransactionSpec(
                tx_class=self.tx_class,
                operations=(),
                read_set=self.read_set,
                write_set=self.write_set,
                write_sizes={},
                commit_cpu=self.commit_cpu * cpu_factor,
                commit_sectors=self.commit_sectors,
            )
        return spec


def marshal_request(req: CommitRequest) -> bytes:
    """Encode ``req``; written values are zero padding of the real size."""
    name = req.tx_class.encode("utf-8")
    if len(name) > 0xFFFF:
        raise ValueError("class name too long")
    head = _HEADER.pack(
        req.origin,
        req.tx_id,
        req.start_seq,
        req.commit_cpu,
        req.commit_sectors,
        len(name),
        len(req.read_set),
        len(req.write_set),
    )
    body = name
    body += struct.pack(f"<{len(req.read_set)}Q", *req.read_set)
    body += struct.pack(f"<{len(req.write_set)}Q", *req.write_set)
    return head + body + bytes(req.write_bytes)


def unmarshal_request(buffer: bytes) -> CommitRequest:
    """Decode a termination message (padding is measured, not copied)."""
    (
        origin,
        tx_id,
        start_seq,
        commit_cpu,
        commit_sectors,
        name_len,
        n_reads,
        n_writes,
    ) = _HEADER.unpack_from(buffer)
    offset = _HEADER.size
    name = bytes(buffer[offset : offset + name_len]).decode("utf-8")
    offset += name_len
    reads = struct.unpack_from(f"<{n_reads}Q", buffer, offset)
    offset += 8 * n_reads
    writes = struct.unpack_from(f"<{n_writes}Q", buffer, offset)
    offset += 8 * n_writes
    padding = len(buffer) - offset
    if padding < 0:
        raise ValueError("truncated commit request")
    return CommitRequest(
        origin=origin,
        tx_id=tx_id,
        start_seq=start_seq,
        tx_class=name,
        read_set=tuple(reads),
        write_set=tuple(writes),
        write_bytes=padding,
        commit_cpu=commit_cpu,
        commit_sectors=commit_sectors,
    )


#: The total order delivers a termination message at every replica: all
#: but the first decode of it in flight are a dict probe, and every
#: replica shares the one frozen request (and its ``derived`` store).
unmarshal_request_cached = DecodeMemo(unmarshal_request).decode
