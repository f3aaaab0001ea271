"""Regression pins: the bad cells of the monitored safety sweep.

CI's non-gating ``seed-sweep`` job runs ``safety-monitored`` over
workload seeds 1000-1019 at 150 transactions (``plan_seed`` 7, every
monitor armed).  These 32 of its 200 cells do not earn the ``ok``
verdict; each case here runs one of them and states what a correct run
looks like.  They are ``xfail(strict=True)``: a fix that turns a cell
``ok`` fails the suite until its case is deleted here.
``test_seed_1007_pin.py`` pins the view-id collision behind the
``partition-heal-sequencer`` cells at 300 transactions.
"""

import pytest

from repro import Scenario, get_campaign
from repro.core.safety import verdict

BAD_CELLS = {
    ("partition-heal-member", "diverged"): (
        1001, 1002, 1003, 1004, 1006, 1007, 1008,
        1011, 1012, 1015, 1016, 1017, 1018,
    ),
    ("partition-heal-sequencer", "diverged"): (
        1001, 1003, 1004, 1006, 1007, 1008, 1011,
        1012, 1014, 1015, 1016, 1017, 1018,
    ),
    ("crash-sequencer", "diverged"): (1001,),
    ("crash-recover-member", "no-rejoin"): (1003, 1012, 1017, 1018),
    ("crash-recover-sequencer", "no-rejoin"): (1018,),
}

CASES = [
    pytest.param(
        fault,
        seed,
        id=f"{fault}-seed-{seed}",
        marks=pytest.mark.xfail(
            strict=True, raises=AssertionError, reason=f"verdict is {seen}"
        ),
    )
    for (fault, seen), seeds in BAD_CELLS.items()
    for seed in seeds
]


@pytest.mark.parametrize("fault,seed", CASES)
def test_sweep_cell_is_ok(fault, seed):
    spec = (
        get_campaign("safety-monitored")
        .with_axis("seed", (seed,))
        .with_axis("fault", (fault,))
        .with_axis("transactions", (150,))
    )
    ((_, config),) = spec.expand()
    assert verdict(Scenario(config).run()) == "ok"
