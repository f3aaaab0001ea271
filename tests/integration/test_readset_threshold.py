"""Integration: a read-set escalation threshold no spec can exceed is no
threshold (a differential oracle, ROADMAP 3(e)).

``readset_escalation_threshold`` turns a table's read rows into one
table lock once there are *more* of them than the threshold (§3.3).  The
largest per-table read count any TPC-C spec carries is ``delivery``'s
100 order lines (ten districts, ten lines each), so a threshold of 100
escalates nothing: the whole ``to_dict()`` but its ``config`` must equal
the run without a threshold, bit for bit.  One below it escalates every
delivery's order lines, and the result must differ — otherwise the
relation says nothing, and an off-by-one (``>=``) would pass it.
"""

import random
from collections import Counter
from dataclasses import replace

import pytest

from repro.core.experiment import Scenario, ScenarioConfig
from repro.core.metrics import TX_RECORD_FIELDS
from repro.tpcc.workload import TpccWorkload

#: The largest per-table read count of any spec: delivery's order lines.
LARGEST = 100

CELLS = {
    "dbsm": ScenarioConfig(
        sites=3, clients=90, transactions=150, seed=21, protocol="dbsm"
    ),
    "partial": ScenarioConfig(
        sites=6, clients=180, transactions=150, seed=21, protocol="partial",
        fragments=2,
    ),
}


def observed(config):
    result = Scenario(config).run().to_dict()
    del result["config"]
    return result


@pytest.fixture(scope="module")
def unescalated():
    return {protocol: observed(config) for protocol, config in CELLS.items()}


def test_deliverys_order_lines_are_the_largest_read_count():
    workload = TpccWorkload(4, rng=random.Random(3))
    largest = Counter()
    for client in range(2000):
        spec = workload.next_transaction(client % 40)
        per_table = Counter(item >> 48 for item in spec.read_set)
        if per_table:
            largest[spec.tx_class] = max(largest[spec.tx_class], *per_table.values())
    assert workload.generated["delivery"] > 0
    assert max(largest.values()) == largest["delivery"] == LARGEST


@pytest.mark.parametrize("protocol", sorted(CELLS))
def test_the_largest_read_count_as_threshold_is_no_threshold(unescalated, protocol):
    config = replace(CELLS[protocol], readset_escalation_threshold=LARGEST)
    result = observed(config)
    assert result["metrics"]["columns"][0] and all(result["commit_logs"])
    assert result == unescalated[protocol]


@pytest.mark.parametrize("protocol", sorted(CELLS))
def test_one_below_it_escalates(unescalated, protocol):
    config = replace(CELLS[protocol], readset_escalation_threshold=LARGEST - 1)
    result = observed(config)
    classes = set(result["metrics"]["columns"][TX_RECORD_FIELDS.index("tx_class")])
    assert "delivery" in classes
    assert result != unescalated[protocol]
