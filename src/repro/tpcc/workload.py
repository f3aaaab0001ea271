"""TPC-C transaction generators (paper §3.2).

Produces :class:`~repro.db.transactions.TransactionSpec` instances for
the five TPC-C transaction types, with the bimodal classes (payment,
orderstatus) split into long/short sub-classes exactly as the paper does
for its Table 1/2 breakdowns.  Only the *workload* matters here — the
benchmark's throughput constraints, screen loads and 15-minute warm-up
discard do not apply (§3.2).

Conflict structure (calibrated against the paper's Tables 1 and 2):

* **payment** updates its home warehouse's YTD row — the small, hot
  Warehouse table the paper identifies as the conflict source;
* **delivery** reads and rewrites the new-order queue heads of all ten
  districts of its warehouse, so concurrent deliveries on one warehouse
  conflict, with a rate that grows with residence time (hence with
  saturation, replication, and injected faults);
* **neworder** carries TPC-C's mandated 1 % end-of-execution rollback
  and only rarely conflicts (random stock rows, striped insert ids);
* **payment-long** and **orderstatus-long** carry a constant intrinsic
  abort probability: in the paper those classes show an offset over
  their short variants that is strikingly constant (≈ +6 points) across
  every configuration and fault load, which identifies it as a code-path
  artifact rather than contention — we reproduce it as such and document
  the substitution in EXPERIMENTS.md.
"""

from __future__ import annotations

import functools
import random
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..db.transactions import Operation, OpKind, TransactionSpec
from ..db.tuples import make_tuple_id, table_lock_id
from . import schema
from .profiles import default_profiles

__all__ = ["TpccWorkload", "MIX"]

#: Transaction mix: neworder and payment each account for 44 % of
#: submitted transactions (paper §3.2); the remainder split evenly.
MIX: Tuple[Tuple[str, float], ...] = (
    ("neworder", 0.44),
    ("payment", 0.44),
    ("orderstatus", 0.04),
    ("delivery", 0.04),
    ("stocklevel", 0.04),
)

#: TPC-C: 1 % of neworder transactions roll back on an unused item id.
NEWORDER_ROLLBACK_PROB = 0.01
#: Constant per-class abort offsets observed in the paper's Table 1
#: (long minus short ≈ 6 points in every configuration).
PAYMENT_LONG_INTRINSIC = 0.06
ORDERSTATUS_LONG_INTRINSIC = 0.06
#: TPC-C customer-selection splits.
BY_NAME_PROB = 0.60
REMOTE_CUSTOMER_PROB = 0.15
REMOTE_SUPPLY_PROB = 0.01

#: Settled-order and delivery queue-head row namespaces live in the
#: schema module so the placement layer can invert them back to a
#: warehouse (see :func:`repro.tpcc.schema.warehouse_of_tuple`).
_SETTLED_BASE = schema.SETTLED_ROW_BASE
_NOHEAD_BASE = schema.NOHEAD_ROW_BASE

#: Row 0 of the order tables: ``base + row`` is the tuple id.  The
#: builders below validate their (warehouse, district) through
#: ``TpccLayout`` and compute the ids they need by the dozen — stock,
#: fresh and settled order rows — by addition, for keys in range by
#: construction (``_distinct_items``, ``_other_warehouse``,
#: ``fresh_rows``); tests/property/test_prop_workload.py holds the sums
#: equal to what the validating constructors return.
_NEWORDER, _ORDER, _ORDERLINE = (
    table_lock_id(table.table_id)
    for table in (schema.NEWORDER, schema.ORDER, schema.ORDERLINE)
)
_DPW = schema.DISTRICTS_PER_WAREHOUSE
_CPD = schema.CUSTOMERS_PER_DISTRICT
_ITEMS = schema.ITEM_COUNT
_ITEM_BITS = _ITEMS.bit_length()
_PROCESS = OpKind.PROCESS  # bound once: see repro.db.transactions


def _below(getrandbits, n: int) -> int:
    """``random.Random._randbelow(n)`` on the generator's own primitive:
    the number ``randrange(n)`` / ``randint`` / ``sample`` would draw,
    without their two or three frames of ``random.py`` per draw — a
    neworder draws up to 17, a delivery 120 (pinned by
    tests/golden/tpcc_stream.json, proved in test_prop_workload.py)."""
    bits = n.bit_length()
    r = getrandbits(bits)
    while r >= n:
        r = getrandbits(bits)
    return r


def _distinct_items(getrandbits, k: int) -> List[int]:
    """``random.sample(range(ITEM_COUNT), k)``: distinct items by
    rejection, in draw order — its rule for so large a population."""
    items: List[int] = []
    while len(items) < k:
        item = getrandbits(_ITEM_BITS)  # ``_below`` inlined: out of range, redraw
        if item < _ITEMS and item not in items:
            items.append(item)
    return items


@functools.lru_cache(maxsize=None)
def _fetch(nbytes: int) -> Operation:
    """The frozen, shared batched fetch of ``nbytes`` (a few dozen sizes)."""
    return Operation(OpKind.FETCH, item=0, nbytes=nbytes)


class TpccWorkload:
    """Generates the transaction stream for the clients of one site."""

    def __init__(
        self,
        warehouses: int,
        rng: Optional[random.Random] = None,
        site_index: int = 0,
        site_count: int = 1,
        readset_escalation_threshold: Optional[int] = None,
    ):
        self.layout = schema.TpccLayout(warehouses, site_index, site_count)
        self.profiles = default_profiles()
        self.rng = rng or random.Random(20050628)
        #: Read-sets larger than this (per table) are escalated to a
        #: single table lock before multicast (paper §3.3); ``None``
        #: disables escalation, the default configuration.
        self.readset_escalation_threshold = readset_escalation_threshold
        self.generated: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # public interface
    # ------------------------------------------------------------------
    def next_transaction(self, client_id: int) -> TransactionSpec:
        """The next transaction for ``client_id`` per the TPC-C mix."""
        w, d = self.home_of(client_id)
        kind = self._pick_kind()
        if kind == "neworder":
            spec = self.neworder(w, d)
        elif kind == "payment":
            spec = self.payment(w, d)
        elif kind == "orderstatus":
            spec = self.orderstatus(w, d)
        elif kind == "delivery":
            spec = self.delivery(w)
        else:
            spec = self.stocklevel(w, d)
        self.generated[spec.tx_class] = self.generated.get(spec.tx_class, 0) + 1
        return spec

    def home_of(self, client_id: int) -> Tuple[int, int]:
        """Home (warehouse, district) of a client: 10 clients per
        warehouse, one per district (§3.2)."""
        w = (client_id // schema.CLIENTS_PER_WAREHOUSE) % self.layout.warehouses
        d = client_id % schema.DISTRICTS_PER_WAREHOUSE
        return w, d

    def think_time(self) -> float:
        """Exponentially distributed client think time (§3.2)."""
        return self.rng.expovariate(1.0 / self.profiles.think_time_mean)

    # ------------------------------------------------------------------
    # transaction builders
    # ------------------------------------------------------------------
    def neworder(self, w: int, d: int) -> TransactionSpec:
        rng = self.rng
        random, getrandbits = rng.random, rng.getrandbits
        ol_cnt = 5 + _below(getrandbits, 11)  # randint(5, 15)
        _below(getrandbits, _CPD)  # the customer: a plain read, only its draw matters
        # Certification read set = update-intent reads only (rows read
        # FOR UPDATE).  Plain reads (warehouse tax rate, item catalog,
        # customer discount) are never shipped: the paper's Table 1 shows
        # neworder unaffected by replication, which is only possible if
        # its plain read of the hot Warehouse row is not certified.
        # ``sizes`` collects the written rows; until the inserts join it
        # holds exactly the rows read FOR UPDATE.
        sizes = {self.layout.district(w, d): schema.DISTRICT.row_bytes}
        for item in _distinct_items(getrandbits, ol_cnt):
            supply = self._other_warehouse(w) if random() < REMOTE_SUPPLY_PROB else w
            stock = schema.STOCK_BASE + supply * schema.STOCK_PER_WAREHOUSE + item
            sizes[stock] = schema.STOCK.row_bytes
        read_set = self._finalize_reads(sizes)
        order, neworder, *lines = self.layout.fresh_rows(ol_cnt + 2)
        sizes[_ORDER + order] = schema.ORDER.row_bytes
        sizes[_NEWORDER + neworder] = schema.NEWORDER.row_bytes
        for line in lines:
            sizes[_ORDERLINE + line] = schema.ORDERLINE.row_bytes
        cpu = self.profiles.sample_cpu("neworder", rng)
        ops = self._ops(
            fetch_groups=[
                (schema.WAREHOUSE.row_bytes + schema.DISTRICT.row_bytes, 0.15),
                (schema.CUSTOMER.row_bytes, 0.15),
                (ol_cnt * (schema.ITEM.row_bytes + schema.STOCK.row_bytes), 0.70),
            ],
            total_cpu=cpu,
        )
        return TransactionSpec(
            tx_class="neworder",
            operations=ops,
            read_set=read_set,
            write_set=tuple(sorted(sizes)),
            write_sizes=sizes,
            commit_cpu=self.profiles.commit_cpu,
            commit_sectors=self.profiles.sectors("neworder"),
            intrinsic_abort=random() < NEWORDER_ROLLBACK_PROB,
        )

    def payment(self, w: int, d: int) -> TransactionSpec:
        rng = self.rng
        layout = self.layout
        by_name = rng.random() < BY_NAME_PROB
        tx_class = "payment-long" if by_name else "payment-short"
        # 15 % of payments are for a customer of another warehouse; the
        # home warehouse/district YTD rows are updated regardless.
        if rng.random() < REMOTE_CUSTOMER_PROB and self.layout.warehouses > 1:
            cw = self._other_warehouse(w)
            cd = _below(rng.getrandbits, _DPW)
        else:
            cw, cd = w, d
        customer = layout.customer(cw, cd, _below(rng.getrandbits, _CPD))
        # All three rows are read FOR UPDATE, so they are certified;
        # ``sizes`` is the read set until the history insert joins it.
        sizes = {
            layout.warehouse(w): schema.WAREHOUSE.row_bytes,  # W_YTD hotspot (§5.2)
            layout.district(w, d): schema.DISTRICT.row_bytes,
            customer: schema.CUSTOMER.row_bytes,
        }
        read_set = self._finalize_reads(sizes)
        sizes[layout.fresh_row(schema.HISTORY)] = schema.HISTORY.row_bytes
        cpu = self.profiles.sample_cpu(tx_class, rng)
        customer_bytes = schema.CUSTOMER.row_bytes * (3 if by_name else 1)
        ops = self._ops(
            fetch_groups=[
                (schema.WAREHOUSE.row_bytes + schema.DISTRICT.row_bytes, 0.3),
                (customer_bytes, 0.7),
            ],
            total_cpu=cpu,
        )
        return TransactionSpec(
            tx_class=tx_class,
            operations=ops,
            read_set=read_set,
            write_set=tuple(sorted(sizes)),
            write_sizes=sizes,
            commit_cpu=self.profiles.commit_cpu,
            commit_sectors=self.profiles.sectors(tx_class),
            intrinsic_abort=by_name and rng.random() < PAYMENT_LONG_INTRINSIC,
        )

    def orderstatus(self, w: int, d: int) -> TransactionSpec:
        rng = self.rng
        by_name = rng.random() < BY_NAME_PROB
        tx_class = "orderstatus-long" if by_name else "orderstatus-short"
        lines = 5 + _below(rng.getrandbits, 11)  # randint(5, 15)
        # Read-only: nothing is read with update intent, nothing is
        # certified — hence the 0.00 abort rows in Tables 1 and 2.
        cpu = self.profiles.sample_cpu(tx_class, rng)
        ops = self._ops(
            fetch_groups=[
                (schema.CUSTOMER.row_bytes * (3 if by_name else 1), 0.5),
                (schema.ORDER.row_bytes + lines * schema.ORDERLINE.row_bytes, 0.5),
            ],
            total_cpu=cpu,
        )
        return TransactionSpec(
            tx_class=tx_class,
            operations=ops,
            read_set=(),
            write_set=(),
            commit_cpu=self.profiles.commit_cpu,
            commit_sectors=0,
            intrinsic_abort=by_name and rng.random() < ORDERSTATUS_LONG_INTRINSIC,
        )

    def delivery(self, w: int) -> TransactionSpec:
        rng = self.rng
        getrandbits = rng.getrandbits
        # One oldest new-order per district: read + rewrite the queue
        # head, deliver the order, update the customer balance.  Every
        # row is read FOR UPDATE and written: one set serves as both.
        sizes: Dict[int, int] = {}
        for d in range(_DPW):
            settled = _SETTLED_BASE + ((w * _DPW + d) << 16)  # + slot: settled row
            sizes[self._nohead(w, d)] = schema.NEWORDER.row_bytes
            sizes[_ORDER + settled + _below(getrandbits, 64)] = schema.ORDER.row_bytes
            customer = self.layout.customer(w, d, _below(getrandbits, _CPD))
            sizes[customer] = schema.CUSTOMER.row_bytes
            lines = _ORDERLINE + settled
            for i in range(10):
                slot = getrandbits(7)  # _below(getrandbits, 64), inlined
                while slot >= 64:
                    slot = getrandbits(7)
                sizes[lines + slot * 16 + i] = schema.ORDERLINE.row_bytes
        cpu = self.profiles.sample_cpu("delivery", rng)
        per_district = schema.ORDER.row_bytes + 10 * schema.ORDERLINE.row_bytes
        ops = self._ops(
            fetch_groups=[
                (_DPW * per_district, 0.5),
                (_DPW * schema.CUSTOMER.row_bytes, 0.5),
            ],
            total_cpu=cpu,
        )
        return TransactionSpec(
            tx_class="delivery",
            operations=ops,
            read_set=self._finalize_reads(sizes),
            write_set=tuple(sorted(sizes)),
            write_sizes=sizes,
            commit_cpu=self.profiles.commit_cpu,
            commit_sectors=self.profiles.sectors("delivery"),
        )

    def stocklevel(self, w: int, d: int) -> TransactionSpec:
        rng = self.rng
        # The join over the last 20 orders' lines touches ~200 stock
        # rows — all plain reads, so nothing is certified (read-only).
        cpu = self.profiles.sample_cpu("stocklevel", rng)
        ops = self._ops(
            fetch_groups=[
                (20 * schema.ORDERLINE.row_bytes, 0.3),
                (180 * schema.STOCK.row_bytes, 0.7),
            ],
            total_cpu=cpu,
        )
        return TransactionSpec(
            tx_class="stocklevel",
            operations=ops,
            read_set=(),
            write_set=(),
            commit_cpu=self.profiles.commit_cpu,
            commit_sectors=0,
        )

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _pick_kind(self) -> str:
        u = self.rng.random()
        acc = 0.0
        for kind, weight in MIX:
            acc += weight
            if u < acc:
                return kind
        return MIX[-1][0]

    def _other_warehouse(self, w: int) -> int:
        if self.layout.warehouses == 1:
            return w
        other = _below(self.rng.getrandbits, self.layout.warehouses - 1)
        return other if other < w else other + 1

    def _ops(
        self, fetch_groups: List[Tuple[int, float]], total_cpu: float
    ) -> Tuple[Operation, ...]:
        """Interleave batched fetches with processing chunks.

        ``fetch_groups`` pairs (bytes, cpu_fraction): after each fetch
        the given fraction of the sampled CPU time is processed.  The
        model is coarse-grained on purpose — the cache is a hit ratio,
        not a page map (§3.2) — so one fetch op stands for a group of
        item fetches and keeps the event count per transaction small.
        """
        ops: List[Operation] = []
        for nbytes, fraction in fetch_groups:
            ops.append(_fetch(nbytes))
            if fraction > 0:
                ops.append(Operation(_PROCESS, None, total_cpu * fraction, 0))
        return tuple(ops)

    def _finalize_reads(self, reads: Iterable[int]) -> Tuple[int, ...]:
        """Sort the read set, applying table-lock escalation if enabled."""
        threshold = self.readset_escalation_threshold
        if threshold is None:
            return tuple(sorted(reads))
        per_table: Dict[int, List[int]] = {}
        for item in reads:
            per_table.setdefault(item >> 48, []).append(item)
        final: Set[int] = set()
        for table, items in per_table.items():
            if len(items) > threshold:
                final.add(table_lock_id(table))
            else:
                final.update(items)
        return tuple(sorted(final))

    def _nohead(self, w: int, d: int) -> int:
        """The new-order queue-head pseudo-row of (warehouse, district):
        every delivery on the warehouse reads and rewrites all ten of
        these, making warehouse-level delivery the self-conflicting class
        the paper observes."""
        row = _NOHEAD_BASE + w * schema.DISTRICTS_PER_WAREHOUSE + d + 1
        return make_tuple_id(schema.NEWORDER.table_id, row)
