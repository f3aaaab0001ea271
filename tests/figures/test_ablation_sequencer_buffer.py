"""Ablation — buffer share vs sequencer blocking (§5.3's mitigation).

The paper: "the buffer share of the sequencer process is exhausted and
the whole system blocked temporarily waiting for garbage collection.
The problem is mitigated by increasing available buffer space."  This
bench runs the random-loss scenario with increasing per-sender shares
and shows blocking time collapsing while throughput recovers.
"""

import pytest

from repro.analysis import format_table, metric_value
from repro.core.experiment import Scenario
from repro.core.scenarios import fault_config, prototype_gcs_config, scaled_transactions

SHARES = (24, 56, 256)


@pytest.fixture(scope="module")
def share_sweep():
    results = {}
    for share in SHARES:
        gcs = prototype_gcs_config()
        gcs.buffer_share = share
        config = fault_config(
            "random",
            clients=750,
            sites=3,
            transactions=max(1000, scaled_transactions() // 2),
            seed=91,
            gcs=gcs,
            sample_interval=2.0,
            drain_time=8.0,
        )
        result = Scenario(config).run()
        result.check_safety()
        results[share] = result
    return results


def test_ablation_buffer_share_mitigates_blocking(share_sweep):
    stats = {
        share: (
            sum(s.gcs.reliable.stats["blocked_time"] for s in r.sites),
            sum(s.gcs.reliable.stats["blocked_events"] for s in r.sites),
            metric_value(r, "mean_latency_ms"),
        )
        for share, r in share_sweep.items()
    }
    rows = [
        (share, f"{stats[share][0]:7.2f}", stats[share][1], f"{stats[share][2]:7.1f}")
        for share in SHARES
    ]
    print(
        format_table(
            "Ablation: per-sender buffer share under 5% random loss",
            ("share", "blocked (s)", "block events", "mean latency (ms)"),
            rows,
        )
    )
    blocked = {share: stats[share][0] for share in SHARES}
    # more buffer -> monotonically less blocking; the big share
    # eliminates it almost entirely
    assert blocked[SHARES[0]] >= blocked[SHARES[1]] >= blocked[SHARES[2]]
    assert blocked[SHARES[0]] > 0.5
    assert blocked[SHARES[2]] < 0.2 * max(blocked[SHARES[0]], 1e-9)
