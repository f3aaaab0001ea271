"""Ablation — sequencer batching window.

The fixed sequencer amortizes SEQUENCE traffic by batching assignments
over a small window.  Larger windows cut sequencer messages (and its
buffer-share pressure — §5.3) at the cost of added certification
latency; window 0 ships one SEQUENCE per transaction.
"""

import pytest

from repro.analysis import format_table
from repro.analysis.metrics import cert_latencies
from repro.core.experiment import Scenario, ScenarioConfig
from repro.core.scenarios import scaled_transactions
from repro.gcs.config import GcsConfig

import statistics

WINDOWS = (0.0, 0.002, 0.010)


@pytest.fixture(scope="module")
def batching_sweep():
    results = {}
    for window in WINDOWS:
        config = ScenarioConfig(
            sites=3,
            cpus_per_site=1,
            clients=300,
            transactions=max(800, scaled_transactions() // 3),
            seed=71,
            gcs=GcsConfig(sequence_batch_interval=window),
            sample_interval=2.0,
            drain_time=8.0,
        )
        scenario = Scenario(config)
        result = scenario.run()
        result.check_safety()
        results[window] = scenario, result
    return results


def test_ablation_sequence_batching(batching_sweep):
    stats = {
        window: (
            scenario.sites[0].gcs.total_order.stats["sequence_msgs"],
            statistics.median(cert_latencies(result)),
        )
        for window, (scenario, result) in batching_sweep.items()
    }
    rows = [
        (f"{window*1000:.0f} ms", stats[window][0], f"{stats[window][1]*1000:6.2f}")
        for window in WINDOWS
    ]
    print(
        format_table(
            "Ablation: sequencer batching window",
            ("window", "SEQUENCE msgs", "median cert latency (ms)"),
            rows,
        )
    )
    # bigger windows send fewer SEQUENCE messages...
    assert stats[0.010][0] < stats[0.002][0] <= stats[0.0][0]
    # ...and cost certification latency
    assert stats[0.010][1] > stats[0.0][1]
    # the default window keeps the median in the paper's few-ms band
    assert stats[0.002][1] < 0.010
