"""Table 2 — abort rates with faults, 3 sites / 1000 clients (§5.3).

Random 5 % loss raises abort rates far more than bursty 5 % loss: the
certification delays lengthen every conflict window.  delivery and
payment — the contended classes — are hit hardest; read-only classes
stay at 0.00.

The per-class breakdown is the :mod:`repro.analysis` ``table2`` figure
builder (the ``abort_rate[class]`` metric family over the fault axis).
"""

import pytest

from repro.analysis import ResultSet, figure_table, render_figure
from repro.core.experiment import Scenario
from repro.core.scenarios import fault_config, scaled_transactions

FAULT_KINDS = ("none", "random", "bursty")


@pytest.fixture(scope="module")
def fault_table():
    items = []
    for kind in FAULT_KINDS:
        config = fault_config(
            kind,
            clients=1000,
            sites=3,
            transactions=scaled_transactions(),
            seed=55,
            sample_interval=2.0,
            drain_time=8.0,
        )
        result = Scenario(config).run()
        result.check_safety()
        items.append((kind, result, {"fault": kind}))
    return figure_table(ResultSet.from_results(items), "table2")


def test_table2_abort_rates_with_faults(fault_table):
    print(render_figure(fault_table, "table2"))

    value = fault_table.value
    # loss raises the overall abort rate (certification delays lengthen
    # every conflict window)
    assert value("All", "random") > value("All", "none")
    assert value("All", "bursty") >= value("All", "none") * 0.8
    # payment — the contended class — absorbs the damage
    assert value("payment-long", "random") > value("payment-long", "none")
    assert value("payment-short", "random") > value("payment-short", "none")
    # read-only classes stay clean no matter what
    for kind in FAULT_KINDS:
        assert value("orderstatus-short", kind) == 0.0
        assert value("stocklevel", kind) == 0.0
