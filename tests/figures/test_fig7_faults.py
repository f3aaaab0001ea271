"""Figure 7 — performance under fault injection (§5.3).

3 sites, 750 clients, with (a) the ECDF of transaction latency and (b)
the ECDF of certification latency for: no faults, 5 % random loss, and
5 % bursty loss (mean burst 5 messages); (c) CPU usage by real protocol
jobs.  Expected shapes: random loss hurts far more than the same amount
of bursty loss — a long certification tail (the stability detector can
only collect the contiguous common prefix, so independent loss at each
site stalls garbage collection until the sequencer's buffer share
blocks); protocol CPU rises ~1.5x from retransmission work.

ECDF quantiles and the protocol-CPU table come from the
:mod:`repro.analysis` ``fig7a``/``fig7b``/``fig7c`` figure builders.
"""

import pytest

from repro.analysis import ResultSet, figure_table, render_figure
from repro.analysis.metrics import cert_latencies
from repro.core.experiment import Scenario
from repro.core.scenarios import fault_config, scaled_transactions

FAULT_KINDS = ("none", "random", "bursty")


@pytest.fixture(scope="module")
def fault_runs():
    runs = {}
    for kind in FAULT_KINDS:
        config = fault_config(
            kind,
            clients=750,
            sites=3,
            transactions=scaled_transactions(),
            seed=77,
            sample_interval=2.0,
            drain_time=8.0,
        )
        runs[kind] = Scenario(config).run()
        runs[kind].check_safety()  # §5.3: safety holds under every load
    return runs


@pytest.fixture(scope="module")
def fault_rs(fault_runs):
    return ResultSet.from_results(
        (kind, fault_runs[kind], {"fault": kind}) for kind in FAULT_KINDS
    )


def test_fig7a_latency_ecdf(fault_rs):
    table = figure_table(fault_rs, "fig7a")
    print(render_figure(table, "fig7a"))
    # loss shifts the body of the distribution right: the median and
    # upper quartile under random loss clearly exceed the fault-free run
    p50 = {kind: table.value("p50", kind) for kind in FAULT_KINDS}
    p75 = {kind: table.value("p75", kind) for kind in FAULT_KINDS}
    assert p50["random"] > 1.15 * p50["none"]
    assert p75["random"] > 1.2 * p75["none"]
    # random loss dominates the same amount of bursty loss
    assert p75["random"] > p75["bursty"] * 0.95
    # but most transactions stay in the same order of magnitude
    assert p50["random"] < 4.0 * p50["none"]


def test_fig7b_certification_ecdf(fault_rs, fault_runs):
    table = figure_table(fault_rs, "fig7b")
    print(render_figure(table, "fig7b"))
    median_none = table.value("p50", "none")
    p90_random = table.value("p90", "random")
    # the tail under random loss reaches tens of the fault-free median —
    # the paper's plot spans two orders of magnitude
    assert p90_random > 10 * median_none
    # 5% loss delays 30-40% of messages at the application (total-order
    # head-of-line blocking, §5.3): count certifications slower than 4x
    # the fault-free median
    threshold = 4 * median_none

    def delayed_fraction(kind):
        values = cert_latencies(fault_runs[kind])
        return sum(1 for v in values if v > threshold) / len(values)

    assert 0.15 < delayed_fraction("random") < 0.60
    # bursty loss delays visibly fewer messages than random loss
    assert delayed_fraction("bursty") < delayed_fraction("random")


def test_fig7c_protocol_cpu(fault_rs):
    table = figure_table(fault_rs, "fig7c")
    print(render_figure(table, "fig7c"))
    usage = {
        kind: table.value(kind, "cpu_protocol") * 100.0
        for kind in FAULT_KINDS
    }
    # retransmission work raises protocol CPU under loss (paper: 1.22 ->
    # ~1.90); both loss kinds land in the same band
    assert usage["random"] > 1.2 * usage["none"]
    assert usage["bursty"] > usage["none"]
    # magnitudes stay in the paper's single-digit band
    assert 0.2 < usage["none"] < 5.0
    assert usage["random"] < 10.0


def test_fig7_stability_backlog_diagnosis(fault_runs):
    """§5.3's diagnosis: loss injected independently at each participant
    shortens the stable common prefix, so garbage collection lags and
    unstable-message backlogs grow toward the buffer shares — the
    precondition of the sequencer blocking the paper observes (its
    mitigation, a larger share, is the ablation bench)."""
    peaks = {
        kind: max(s.gcs.reliable.pool.stats["peak_occupancy"] for s in run.sites)
        for kind, run in fault_runs.items()
    }
    assert peaks["random"] > 1.3 * peaks["none"]
    assert peaks["bursty"] > peaks["none"]
    # blocking time under loss is at least never better than fault-free
    blocked = {
        kind: sum(s.gcs.reliable.stats["blocked_time"] for s in run.sites)
        for kind, run in fault_runs.items()
    }
    assert blocked["random"] >= blocked["none"]
