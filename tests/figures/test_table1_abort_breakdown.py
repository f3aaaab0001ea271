"""Table 1 — abort rates (%) by transaction class (§5.2).

The paper's table compares, per class, centralized vs replicated
configurations at matched CPU counts: 500 clients × 1 CPU; 1000 clients
× {3 CPU, 3 sites}; 1500 clients × {6 CPU, 6 sites}.  Expected shape:
only payment (and slightly delivery) is impacted by replication — it
updates the small hot Warehouse table — while read-only classes show
0.00 and neworder stays flat; payment-long sits a near-constant offset
above payment-short.

The per-class breakdown is the :mod:`repro.analysis` ``table1`` figure
builder over the shared Figure 5 grid (the ``abort_rate[class]`` metric
family), selecting the paper's matched-load columns.
"""

import pytest

from repro.analysis import TABLE1_COLUMNS, figure_table, render_figure

COLUMN_LABELS = tuple(column for column, _, _ in TABLE1_COLUMNS)


@pytest.fixture(scope="module")
def table(performance_grid):
    # every matched-load cell is a Figure 5 grid point, so the table is
    # a pure selection over the session's shared grid
    return figure_table(performance_grid, "table1")


def test_table1_abort_rates(table):
    print(render_figure(table, "table1"))
    # read-only classes never abort for concurrency reasons
    for column in COLUMN_LABELS:
        assert table.value("orderstatus-short", column) == 0.0
        assert table.value("stocklevel", column) == 0.0

    # payment dominates every column (the Warehouse hotspot)
    for column in COLUMN_LABELS:
        payment = table.value("payment-long", column)
        assert payment >= table.value("neworder", column)
        assert payment >= table.value("delivery", column)

    # payment-long sits a consistent offset above payment-short
    for column in COLUMN_LABELS:
        spread = table.value("payment-long", column) - table.value(
            "payment-short", column
        )
        assert 2.0 < spread < 12.0, f"{column}: spread {spread:.2f}"

    # replication raises payment conflicts vs the same-CPU centralized
    # configuration (certification windows add to lock windows)
    assert (
        table.value("payment-short", "1000c x 3Sites")
        >= table.value("payment-short", "1000c x 3CPU") * 0.8
    )

    # neworder stays in the low band (intrinsic 1% + rare stock clashes)
    for column in COLUMN_LABELS:
        assert table.value("neworder", column) < 5.0
