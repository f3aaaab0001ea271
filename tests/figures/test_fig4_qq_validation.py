"""Figure 4 — Q-Q validation of transaction latency (§4.2).

The paper runs TPC-C with 20 clients / 5000 transactions on the real
system and on the model, then compares latency distributions per group
(read-only vs update) with quantile-quantile plots: a good model puts
the points on the diagonal.  Our "real" sample is the reference latency
decomposition of the calibrated profiles (repro.core.validation); the
simulated sample is a full model run at the same load.
"""

import pytest

from repro.analysis import format_table
from repro.core.experiment import Scenario, ScenarioConfig
from repro.core.metrics import qq_points
from repro.core.scenarios import scale
from repro.core.validation import reference_latency_sample

TRANSACTIONS = max(1000, int(5000 * scale()))

READONLY = ("orderstatus-long", "orderstatus-short", "stocklevel")
UPDATE = ("neworder", "payment-long", "payment-short", "delivery")


@pytest.fixture(scope="module")
def validation_run():
    config = ScenarioConfig(
        sites=1,
        cpus_per_site=1,
        clients=20,
        transactions=TRANSACTIONS,
        seed=1717,
    )
    return Scenario(config).run()


def _simulated(result, classes):
    return [
        r.latency
        for r in result.metrics.records
        if r.committed and r.tx_class in classes
    ]


def _composition(result, classes):
    """Class labels with multiplicity, matching the simulated sample —
    the reference must be drawn from the same workload composition or
    the Q-Q plot compares different mixtures."""
    return tuple(
        r.tx_class
        for r in result.metrics.records
        if r.committed and r.tx_class in classes
    )


def _reference(composition, count):
    return reference_latency_sample(composition, count=count, seed=99)


def _qq_print(simulated, reference, label):
    points = qq_points(simulated, reference, points=21)
    body = points[2:-2]
    rows = [
        (f"{qa*1000:8.2f}", f"{qb*1000:8.2f}", f"{(qa/qb if qb else 1):5.2f}")
        for qa, qb in body
    ]
    print(
        format_table(
            f"Figure 4 Q-Q ({label}): sim vs real quantiles (ms)",
            ("sim", "real", "ratio"),
            rows,
        )
    )


def _qq_check_per_class(result, classes, tolerance):
    """Assert diagonal fit class by class.

    The mixtures are bimodal (e.g. orderstatus ~8 ms vs stocklevel
    ~40 ms), so mixture quantiles near a mode boundary are statistically
    unstable at 20-client sample sizes; the paper splits classes into
    homogeneous groups for its analysis (§4.1) and we assert on those."""
    for cls in classes:
        simulated = _simulated(result, (cls,))
        if len(simulated) < 20:
            continue  # too thin for a quantile comparison
        reference = _reference((cls,), len(simulated))
        points = qq_points(simulated, reference, points=11)
        for qa, qb in points[1:-1]:
            assert qa == pytest.approx(qb, rel=tolerance), (
                f"{cls}: quantile {qa*1000:.2f} ms vs {qb*1000:.2f} ms "
                f"off the diagonal"
            )


def test_fig4a_readonly_latency_qq(validation_run):
    simulated = _simulated(validation_run, READONLY)
    assert len(simulated) > 30
    composition = _composition(validation_run, READONLY)
    reference = _reference(composition, len(simulated))
    _qq_print(simulated, reference, "read-only")
    _qq_check_per_class(validation_run, READONLY, tolerance=0.35)


def test_fig4b_update_latency_qq(validation_run):
    simulated = _simulated(validation_run, UPDATE)
    assert len(simulated) > 200
    composition = _composition(validation_run, UPDATE)
    reference = _reference(composition, len(simulated))
    _qq_print(simulated, reference, "update")
    _qq_check_per_class(validation_run, UPDATE, tolerance=0.35)
