"""Regression pins: the bad cells of the monitored safety sweep.

CI's non-gating ``seed-sweep`` job runs ``safety-monitored`` over
workload seeds 1000-1019 at 150 transactions (``plan_seed`` 7, every
monitor armed).  These 32 of its 200 cells do not earn the ``ok``
verdict; each case here runs one of them and states what a correct run
looks like.  They are ``xfail(strict=True)``: a fix that turns a cell
``ok`` fails the suite until its case is deleted here.
``test_seed_1007_pin.py`` pins the view-id collision behind the
``partition-heal-sequencer`` cells at 300 transactions.  F5, the
sequencer crashing inside its batch window, has a second reproduction
below: the benchmark's ``faults-monitored`` ``crash-sequencer`` cell at
seed 982, with its config written out.

Beside each verdict case, a passing case pins why the cell ends that
way (the triage behind ROADMAP item 10(b)), read off the cell's
``FaultSchedule``: all but three have an episode still open just past
``sim_time``, or a rejoin (``RecoveryEvent``) that never completed.  Two
end at a heal's own instant, which ``open_at(sim_time)`` counts as open.
Each cell runs once per module.
"""

import math

import pytest

from repro import Scenario, ScenarioConfig, ScenarioResult, get_campaign
from repro.core.faults import FaultPlan, FaultSchedule
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

OPEN = "an episode is still open"
#: The cells whose cause is not an open episode.
CAUSES = {
    # F5: the sequencer crashes for good, so no episode is left to close.
    ("crash-sequencer", 1001): "every episode is closed",
    # The run stops at the very instant of the heal: no rejoin begins.
    ("partition-heal-member", 1011): "an episode closes at the end",
    ("partition-heal-sequencer", 1014): "an episode closes at the end",
}

#: F5's second reproduction: site0, the sequencer, crashes at 20.0 and
#: the last of its 148 commits is ``(148, 460)`` where the survivors
#: agreed on ``(148, 471)``; ``gcs-ordering`` sees global 374 as
#: ``(2, 140)`` at site0 and ``(1, 99)`` at the survivors.
SEED_982 = ScenarioConfig(
    sites=3,
    clients=90,
    transactions=300,
    seed=982,
    protocol="dbsm",
    faults={0: FaultPlan(actions=((20.0, "crash"),), seed=7)},
    monitors=("all",),
    max_sim_time=600.0,
    probe_interval=0.1,
)

CELLS = [
    (fault, seed, seen) for (fault, seen), seeds in BAD_CELLS.items() for seed in seeds
]
VERDICT_CASES = [
    pytest.param(
        fault,
        seed,
        id=f"{fault}-seed-{seed}",
        marks=pytest.mark.xfail(
            strict=True, raises=AssertionError, reason=f"verdict is {seen}"
        ),
    )
    for fault, seed, seen in CELLS
]
CAUSE_CASES = [
    pytest.param(fault, seed, id=f"{fault}-seed-{seed}") for fault, seed, _ in CELLS
]


@pytest.fixture(scope="module")
def run_cell():
    """``run_cell(fault, seed)``: the cell's config and its result as a
    campaign stores it, each cell run once per module."""
    cache = {}

    def run(fault, seed):
        if (fault, seed) not in cache:
            spec = (
                get_campaign("safety-monitored")
                .with_axis("seed", (seed,))
                .with_axis("fault", (fault,))
                .with_axis("transactions", (150,))
            )
            ((_, config),) = spec.expand()
            stored = ScenarioResult.from_dict(Scenario(config).run().to_dict())
            cache[fault, seed] = config, stored
        return cache[fault, seed]

    return run


def triage(config, result) -> str:
    """How the run's fault episodes stand at ``sim_time``."""
    schedule = FaultSchedule(config.faults, config.sites)
    end = result.sim_time
    if schedule.open_at(math.nextafter(end, math.inf)) or any(
        event.live_at < 0 for event in result.recovery_events
    ):
        return OPEN
    if schedule.open_at(end) and not result.recovery_events:
        return "an episode closes at the end"
    return "every episode is closed"


@pytest.mark.parametrize("fault,seed", VERDICT_CASES)
def test_sweep_cell_is_ok(run_cell, fault, seed):
    _config, result = run_cell(fault, seed)
    assert verdict(result) == "ok"


@pytest.mark.parametrize("fault,seed", CAUSE_CASES)
def test_sweep_cell_states_its_cause(run_cell, fault, seed):
    config, result = run_cell(fault, seed)
    assert triage(config, result) == CAUSES.get((fault, seed), OPEN)


@pytest.fixture(scope="module")
def seed_982():
    return ScenarioResult.from_dict(Scenario(SEED_982).run().to_dict())


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="verdict is diverged")
def test_crash_sequencer_seed_982_is_ok(seed_982):
    assert verdict(seed_982) == "ok"


def test_crash_sequencer_seed_982_states_its_cause(seed_982):
    assert triage(SEED_982, seed_982) == "every episode is closed"
