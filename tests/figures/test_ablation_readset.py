"""Ablation — read-set table-lock escalation (§3.3).

"The size of the read-set may render its multicast impractical.  In
this case, a threshold may be set, which defines when a table should be
locked instead of a large subset of its tuples."  The trade-off:
escalation shrinks termination messages but coarsens certification —
table locks conflict with every concurrent write on the table, so
delivery (the large-read-set class) aborts far more often.
"""

import pytest

from repro.analysis import format_table, metric_value
from repro.core.experiment import Scenario, ScenarioConfig
from repro.core.scenarios import scaled_transactions

THRESHOLDS = (None, 16)


@pytest.fixture(scope="module")
def escalation_sweep():
    results = {}
    for threshold in THRESHOLDS:
        config = ScenarioConfig(
            sites=3,
            cpus_per_site=1,
            clients=300,
            transactions=max(800, scaled_transactions() // 3),
            seed=61,
            readset_escalation_threshold=threshold,
            sample_interval=2.0,
            drain_time=8.0,
        )
        result = Scenario(config).run()
        result.check_safety()
        results[threshold] = result
    return results


def _delivery_message_bytes(threshold):
    """Mean marshaled termination-message size for delivery — the class
    whose read set is big enough to escalate (§3.3)."""
    import random

    from repro.dbsm.marshal import CommitRequest, marshal_request
    from repro.tpcc.workload import TpccWorkload

    workload = TpccWorkload(
        10, rng=random.Random(5), readset_escalation_threshold=threshold
    )
    sizes = []
    for _ in range(50):
        spec = workload.delivery(0)
        request = CommitRequest(
            origin=0,
            tx_id=1,
            start_seq=0,
            tx_class=spec.tx_class,
            read_set=spec.read_set,
            write_set=spec.write_set,
            write_bytes=spec.write_bytes(),
            commit_cpu=spec.commit_cpu,
            commit_sectors=spec.commit_sectors,
        )
        sizes.append(len(marshal_request(request)))
    return sum(sizes) / len(sizes)


def test_ablation_escalation_tradeoff(escalation_sweep):
    message_bytes = {t: _delivery_message_bytes(t) for t in THRESHOLDS}
    aborts = {
        threshold: (
            metric_value(r, "abort_rate[delivery]"),
            metric_value(r, "abort_rate"),
        )
        for threshold, r in escalation_sweep.items()
    }
    rows = [
        (
            "off" if threshold is None else threshold,
            f"{message_bytes[threshold]:8.1f}",
            f"{aborts[threshold][0]:6.2f}",
            f"{aborts[threshold][1]:6.2f}",
        )
        for threshold in THRESHOLDS
    ]
    print(
        format_table(
            "Ablation: read-set escalation threshold (delivery class)",
            ("threshold", "termination msg bytes", "delivery abort %", "all abort %"),
            rows,
        )
    )
    # escalation shrinks the termination message: the shipped read set
    # collapses from ~130 tuple ids to a handful of table locks
    assert message_bytes[16] < message_bytes[None] - 500
    # and coarsens conflicts: table locks collide with every concurrent
    # write on the table, so delivery aborts jump
    assert aborts[16][0] > aborts[None][0] + 5.0
