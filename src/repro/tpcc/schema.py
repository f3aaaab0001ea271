"""TPC-C schema: tables, cardinalities, tuple sizes, identifier layout.

The paper uses the TPC-C workload purely as a realistic traffic source
(§3.2): a wholesale supplier with geographically distributed districts
and warehouses, sized at one warehouse per 10 emulated clients, tuples
ranging from 8 to 655 bytes.  Tuple identifiers are 64-bit integers with
the table id in the high-order bits (§3.3), which this module lays out
on top of :mod:`repro.db.tuples`.

Insert identifiers (orders, order lines, history rows) are striped by
site index so that two replicas can never generate the same fresh row id
— in a real system this uniqueness comes from the district's
``next_o_id`` counter, which is serialized by certification.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Tuple

from ..db.tuples import ROW_BITS, ROW_MASK, make_tuple_id, row_of, table_of

__all__ = [
    "Table",
    "TABLES",
    "TpccLayout",
    "WAREHOUSE",
    "DISTRICT",
    "CUSTOMER",
    "HISTORY",
    "NEWORDER",
    "ORDER",
    "ORDERLINE",
    "ITEM",
    "STOCK",
    "DISTRICTS_PER_WAREHOUSE",
    "CUSTOMERS_PER_DISTRICT",
    "STOCK_PER_WAREHOUSE",
    "ITEM_COUNT",
    "CLIENTS_PER_WAREHOUSE",
    "SETTLED_ROW_BASE",
    "NOHEAD_ROW_BASE",
    "WAREHOUSE_BASE",
    "CUSTOMER_BASE",
    "STOCK_BASE",
    "NOHEAD_BASE",
    "warehouse_of_tuple",
    "warehouses_of_tuples",
    "warehouses_for_clients",
]


@dataclass(frozen=True)
class Table:
    """One TPC-C table: id for the tuple-identifier prefix, typical row
    size in bytes (used to pad messages and size storage transfers)."""

    table_id: int
    name: str
    row_bytes: int


WAREHOUSE = Table(1, "warehouse", 89)
DISTRICT = Table(2, "district", 95)
CUSTOMER = Table(3, "customer", 655)
HISTORY = Table(4, "history", 46)
NEWORDER = Table(5, "neworder", 8)
ORDER = Table(6, "order", 24)
ORDERLINE = Table(7, "orderline", 54)
ITEM = Table(8, "item", 82)
STOCK = Table(9, "stock", 306)

TABLES: Dict[int, Table] = {
    t.table_id: t
    for t in (
        WAREHOUSE,
        DISTRICT,
        CUSTOMER,
        HISTORY,
        NEWORDER,
        ORDER,
        ORDERLINE,
        ITEM,
        STOCK,
    )
}

#: TPC-C scaling constants.
DISTRICTS_PER_WAREHOUSE = 10
CUSTOMERS_PER_DISTRICT = 3000
STOCK_PER_WAREHOUSE = 100_000
ITEM_COUNT = 100_000
#: Each warehouse supports 10 emulated clients (paper §3.2).
CLIENTS_PER_WAREHOUSE = 10

#: Synthetic row-id namespace for "settled" (pre-existing) order rows
#: referenced by orderstatus/delivery/stocklevel.  Fresh insert ids are
#: striped upward from zero by :class:`TpccLayout`, so settled rows get
#: their own high range to guarantee disjointness.  The encoding is
#: ``SETTLED_ROW_BASE + ((w * 10 + d) << 16) + slot`` — warehouse
#: recoverable, which the placement layer relies on.
SETTLED_ROW_BASE = 1 << 40
#: Delivery queue-head pseudo-rows, one per (warehouse, district):
#: ``NOHEAD_ROW_BASE + w * 10 + d + 1``.
NOHEAD_ROW_BASE = 1 << 39


#: Identifiers of key 0 of the keyed tables the transaction generator
#: writes by the dozen.  :class:`TpccLayout`'s constructors are linear in
#: their keys, so for an in-range key ``WAREHOUSE_BASE + w`` is
#: ``warehouse(w)``, ``CUSTOMER_BASE + (w * 10 + d) * 3000 + c`` is
#: ``customer(w, d, c)`` and ``STOCK_BASE + w * STOCK_PER_WAREHOUSE +
#: item`` is ``stock(w, item)``.  The generator, whose keys are in range
#: by construction, adds offsets directly and validates its home
#: warehouse once per transaction.
WAREHOUSE_BASE = make_tuple_id(WAREHOUSE.table_id, 1)
CUSTOMER_BASE = make_tuple_id(CUSTOMER.table_id, 1)
STOCK_BASE = make_tuple_id(STOCK.table_id, 1)
#: Identifier of the delivery queue head of (0, 0): that of
#: (warehouse, district) is ``NOHEAD_BASE + w * 10 + d``.
NOHEAD_BASE = make_tuple_id(NEWORDER.table_id, NOHEAD_ROW_BASE + 1)


class TpccLayout:
    """Maps logical TPC-C keys to 64-bit tuple identifiers.

    One instance per simulation; ``site_index``/``site_count`` stripe
    fresh insert ids across replicas so concurrent inserts at different
    sites never collide.
    """

    def __init__(self, warehouses: int, site_index: int = 0, site_count: int = 1):
        if warehouses < 1:
            raise ValueError("need at least one warehouse")
        if not 0 <= site_index < site_count:
            raise ValueError("site_index out of range")
        self.warehouses = warehouses
        self.site_index = site_index
        self.site_count = site_count
        self._insert_counter = 0

    # -- keyed rows -----------------------------------------------------
    def warehouse(self, w: int) -> int:
        self.check_warehouse(w)
        return make_tuple_id(WAREHOUSE.table_id, w + 1)

    def district(self, w: int, d: int) -> int:
        self.check_warehouse(w)
        self._check_district(d)
        return make_tuple_id(
            DISTRICT.table_id, w * DISTRICTS_PER_WAREHOUSE + d + 1
        )

    def customer(self, w: int, d: int, c: int) -> int:
        self.check_warehouse(w)
        self._check_district(d)
        if not 0 <= c < CUSTOMERS_PER_DISTRICT:
            raise ValueError(f"customer {c} out of range")
        row = (w * DISTRICTS_PER_WAREHOUSE + d) * CUSTOMERS_PER_DISTRICT + c + 1
        return make_tuple_id(CUSTOMER.table_id, row)

    def stock(self, w: int, item: int) -> int:
        self.check_warehouse(w)
        if not 0 <= item < ITEM_COUNT:
            raise ValueError(f"item {item} out of range")
        return make_tuple_id(STOCK.table_id, w * STOCK_PER_WAREHOUSE + item + 1)

    def item(self, item: int) -> int:
        if not 0 <= item < ITEM_COUNT:
            raise ValueError(f"item {item} out of range")
        return make_tuple_id(ITEM.table_id, item + 1)

    # -- fresh rows (inserts) --------------------------------------------
    def fresh_row(self, table: Table) -> int:
        """A globally unique row id for an insert into ``table``."""
        return make_tuple_id(table.table_id, self.fresh_rows(1)[0])

    def fresh_rows(self, count: int) -> range:
        """The *row numbers* of the next ``count`` inserts: consecutive
        counter values, striped by site."""
        first = self._insert_counter + 1
        self._insert_counter += count
        stride = self.site_count
        return range(
            first * stride + self.site_index + 1,
            (first + count) * stride + self.site_index + 1,
            stride,
        )

    # -- sizes ------------------------------------------------------------
    def approx_tuple_count(self) -> int:
        """Rough total database cardinality (the paper quotes > 1e9
        tuples at 2000 clients — dominated by stock and customers times
        history growth; we count the static tables)."""
        per_warehouse = (
            1
            + DISTRICTS_PER_WAREHOUSE
            + DISTRICTS_PER_WAREHOUSE * CUSTOMERS_PER_DISTRICT
            + STOCK_PER_WAREHOUSE
        )
        return self.warehouses * per_warehouse + ITEM_COUNT

    # -- validation ------------------------------------------------------
    def check_warehouse(self, w: int) -> None:
        if not 0 <= w < self.warehouses:
            raise ValueError(f"warehouse {w} out of range")

    @staticmethod
    def _check_district(d: int) -> None:
        if not 0 <= d < DISTRICTS_PER_WAREHOUSE:
            raise ValueError(f"district {d} out of range")


def warehouses_for_clients(clients: int) -> int:
    """The paper sizes the database as one warehouse per 10 clients."""
    return max(1, (clients + CLIENTS_PER_WAREHOUSE - 1) // CLIENTS_PER_WAREHOUSE)


def warehouse_of_tuple(tuple_id: int) -> Optional[int]:
    """Invert a tuple identifier to the warehouse that owns it.

    This is the inverse of the row formulas above stated per id — the
    specification; what runs is :func:`warehouses_of_tuples`, stated
    per set and pinned equal.  Returns ``None`` for ids that carry no
    warehouse: whole-table locks, the replicated item catalog, and fresh
    insert rows (striped by site counter, deliberately warehouse-free —
    a fresh row can never conflict, so it never needs placing).
    """
    table = table_of(tuple_id)
    row = row_of(tuple_id)
    if row == 0:  # whole-table lock: covers every warehouse
        return None
    if table == WAREHOUSE.table_id:
        return row - 1
    if table == DISTRICT.table_id:
        return (row - 1) // DISTRICTS_PER_WAREHOUSE
    if table == CUSTOMER.table_id:
        return (row - 1) // CUSTOMERS_PER_DISTRICT // DISTRICTS_PER_WAREHOUSE
    if table == STOCK.table_id:
        return (row - 1) // STOCK_PER_WAREHOUSE
    if row >= SETTLED_ROW_BASE:
        return ((row - SETTLED_ROW_BASE) >> 16) // DISTRICTS_PER_WAREHOUSE
    if row >= NOHEAD_ROW_BASE:
        return (row - NOHEAD_ROW_BASE - 1) // DISTRICTS_PER_WAREHOUSE
    # Item catalog rows and striped fresh-insert rows.
    return None


def warehouses_of_tuples(*tuple_sets: Iterable[int]) -> Tuple[Tuple[int, ...], bool]:
    """:func:`warehouse_of_tuple` over whole read/write sets in one
    frame — its dispatch and formulas written out, so a set costs one
    call, not four per id.  Returns ``(warehouses, table_lock)``: the
    sorted warehouses of the ids met, in the order given, before the
    first whole-table lock, and whether there was one (a table's rows
    live in every warehouse, so the walk ends there)."""
    warehouses = set()
    add = warehouses.add
    for tuple_ids in tuple_sets:
        for tuple_id in tuple_ids:
            row = tuple_id & ROW_MASK
            if row == 0:
                return tuple(sorted(warehouses)), True
            table = tuple_id >> ROW_BITS
            if table == WAREHOUSE.table_id:
                add(row - 1)
            elif table == DISTRICT.table_id:
                add((row - 1) // DISTRICTS_PER_WAREHOUSE)
            elif table == CUSTOMER.table_id:
                add((row - 1) // CUSTOMERS_PER_DISTRICT // DISTRICTS_PER_WAREHOUSE)
            elif table == STOCK.table_id:
                add((row - 1) // STOCK_PER_WAREHOUSE)
            elif row >= SETTLED_ROW_BASE:
                add(((row - SETTLED_ROW_BASE) >> 16) // DISTRICTS_PER_WAREHOUSE)
            elif row >= NOHEAD_ROW_BASE:
                add((row - NOHEAD_ROW_BASE - 1) // DISTRICTS_PER_WAREHOUSE)
    return tuple(sorted(warehouses)), False
