"""Tuple identifiers: 64-bit integers with the table id in the high bits.

The certification prototype (paper §3.3) assumes each read/written tuple
is identified by a 64-bit integer whose highest-order bits carry the
table identifier, so that comparing a tuple id against a whole-table
lock is a plain prefix check.  Row number 0 is reserved: an id whose row
part is zero denotes a lock on the *entire table* (the escalation target
when a read-set grows past the multicast-practical threshold).
"""

from __future__ import annotations

__all__ = [
    "TABLE_BITS",
    "ROW_BITS",
    "ROW_MASK",
    "make_tuple_id",
    "table_of",
    "row_of",
    "table_lock_id",
    "is_table_lock",
    "covers",
]

#: Bits of the 64-bit id reserved for the table identifier.
TABLE_BITS = 16
#: Bits reserved for the row number.
ROW_BITS = 64 - TABLE_BITS

#: Mask of the row part (a zero row part marks a whole-table lock);
#: exported with ``ROW_BITS`` for the loops that inline the id layout.
ROW_MASK = (1 << ROW_BITS) - 1
_MAX_TABLE = (1 << TABLE_BITS) - 1


def make_tuple_id(table: int, row: int) -> int:
    """Encode ``(table, row)`` into one 64-bit identifier.

    ``row`` must be >= 1; row 0 is the whole-table lock (see
    :func:`table_lock_id`).
    """
    if not 0 < table <= _MAX_TABLE:
        raise ValueError(f"table id {table} out of range")
    if not 0 < row <= ROW_MASK:
        raise ValueError(f"row {row} out of range")
    return (table << ROW_BITS) | row


def table_of(tuple_id: int) -> int:
    """The table identifier encoded in ``tuple_id``."""
    return tuple_id >> ROW_BITS


def row_of(tuple_id: int) -> int:
    """The row number encoded in ``tuple_id`` (0 for a table lock)."""
    return tuple_id & ROW_MASK


def table_lock_id(table: int) -> int:
    """The identifier representing a lock on the whole ``table``."""
    if not 0 < table <= _MAX_TABLE:
        raise ValueError(f"table id {table} out of range")
    return table << ROW_BITS


def is_table_lock(tuple_id: int) -> bool:
    return (tuple_id & ROW_MASK) == 0


def covers(lock_id: int, tuple_id: int) -> bool:
    """Does ``lock_id`` conflict-cover ``tuple_id``?

    A table lock covers every tuple of its table (and the table lock
    itself); a plain tuple id covers only itself.
    """
    if is_table_lock(lock_id):
        return table_of(lock_id) == table_of(tuple_id)
    return lock_id == tuple_id
