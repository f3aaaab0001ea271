"""Unit tests for the cell verdict (``repro.core.safety.verdict``).

Every case is a clean 3-site crash -> recover artifact payload edited by
hand, so each check is driven by exactly the fields it reads, and the
verdict of a payload is the verdict of the run that would produce it.
"""

import copy

import pytest

from repro import Scenario, ScenarioConfig, ScenarioResult, run_campaign
from repro.core.faults import FaultPlan, crash_recover, partition_heal
from repro.core.safety import VERDICTS, verdict
from repro.runner import ArtifactStore

CONFIG = ScenarioConfig(
    sites=3,
    clients=40,
    transactions=120,
    seed=3,
    faults={2: crash_recover(5.0, 8.0)},
    max_sim_time=600.0,
)

VIOLATION = {
    "monitor": "one-copy-sr",
    "site": "site1",
    "sim_time": 12.0,
    "detail": "seeded by hand",
    "seq": 4,
}


@pytest.fixture(scope="module")
def live():
    return Scenario(CONFIG).run()


@pytest.fixture(scope="module")
def clean(live):
    payload = live.to_dict()
    assert payload["recovery"] and payload["violations"] == []
    return payload


def judged(payload, edit=None):
    payload = copy.deepcopy(payload)
    if edit is not None:
        edit(payload)
    return verdict(ScenarioResult.from_dict(payload))


def drop_entry(payload):
    log = payload["commit_logs"][1]  # site1 stays operational
    log["commit_seq"].pop()
    log["tx_id"].pop()


def add_violation(payload):
    payload["violations"].append(VIOLATION)


def lose_rejoin(payload):
    payload["recovery"] = []


def test_clean_payload_is_ok(clean):
    assert judged(clean) == "ok"


@pytest.mark.parametrize(
    "edits, expected",
    [
        ((drop_entry,), "diverged"),
        ((add_violation,), "violated"),
        ((lose_rejoin,), "no-rejoin"),
        ((lose_rejoin, add_violation, drop_entry), "diverged"),
        ((lose_rejoin, add_violation), "violated"),
    ],
    ids=["diverged", "violated", "no-rejoin", "all-three", "order"],
)
def test_each_check_names_its_verdict(clean, edits, expected):
    def edit(payload):
        for step in edits:
            step(payload)

    assert judged(clean, edit) == expected
    assert expected in VERDICTS


def test_recover_after_the_run_needs_no_rejoin(clean):
    def edit(payload):
        lose_rejoin(payload)
        plan = payload["config"]["faults"]["2"]
        plan["actions"][-1][0] = payload["sim_time"] + 1.0

    assert judged(clean, edit) == "ok"


@pytest.mark.parametrize(
    "sites, faults, expected",
    [
        # one site of three cut away: a strict minority rejoins
        (3, {"2": (10.0, 20.0)}, "no-rejoin"),
        # two of four cut at one instant: an equal split resumes in place
        (4, {"2": (10.0, 20.0), "3": (10.0, 20.0)}, "ok"),
        # two of four cut at different instants: two minorities
        (4, {"2": (10.0, 20.0), "3": (11.0, 20.0)}, "no-rejoin"),
        # healed after the run ended: nothing to rejoin yet
        (3, {"2": (10.0, 1e6)}, "ok"),
    ],
    ids=["minority", "equal-split", "two-cuts", "heal-after-end"],
)
def test_heal_rejoins_only_a_strict_minority(clean, sites, faults, expected):
    def edit(payload):
        lose_rejoin(payload)
        payload["config"]["sites"] = sites
        payload["config"]["faults"] = {
            site: partition_heal(*times).to_dict()
            for site, times in faults.items()
        }

    assert judged(clean, edit) == expected


CRASH = ((5.0, "crash"), (8.0, "recover"))  # CONFIG's episode at site 2
SECOND_CRASH = CRASH + ((20.0, "crash"), (30.0, "recover"))


@pytest.mark.parametrize(
    "sites, plans, rejoins_live_at, expected",
    [
        # the first rejoin (live at ~10.4 s) does not cover the second recover
        (3, {"2": SECOND_CRASH}, (), "no-rejoin"),
        (3, {"2": SECOND_CRASH}, (32.4,), "ok"),
        # one rejoin covers a crash overlapping a minority cut healed at 9 s
        (3, {"2": CRASH + ((6.0, "partition"), (9.0, "heal"))}, (), "ok"),
        # ... but not one healed after it went live
        (3, {"2": CRASH + ((6.0, "partition"), (11.0, "heal"))}, (), "no-rejoin"),
        # two of four cut at one instant: that heal needs no rejoin ...
        (4, {"2": CRASH + ((20.0, "partition"), (30.0, "heal")),
             "3": ((20.0, "partition"), (30.0, "heal"))}, (), "ok"),
        # ... one of four does
        (4, {"2": CRASH + ((20.0, "partition"), (30.0, "heal"))}, (), "no-rejoin"),
        # the second episode closes after the run ended
        (3, {"2": CRASH + ((20.0, "crash"), (1e6, "recover"))}, (), "ok"),
    ],
    ids=[
        "second-rejoin-missing", "both-rejoins", "overlap-one-rejoin",
        "overlap-heal-after-rejoin", "equal-split-heal", "minority-heal",
        "second-closes-after-end",
    ],
)
def test_last_closing_needs_a_later_rejoin(
    clean, sites, plans, rejoins_live_at, expected
):
    """Edited payloads store multi-episode plans in the ``actions`` form;
    each extra rejoin is a copy of the recorded one, going live later."""

    def edit(payload):
        payload["config"]["sites"] = sites
        payload["config"]["faults"] = {
            site: FaultPlan(actions=actions).to_dict()
            for site, actions in plans.items()
        }
        (event,) = payload["recovery"]
        for live_at in rejoins_live_at:
            payload["recovery"].append(
                dict(event, started_at=live_at - 2.4, live_at=live_at)
            )

    assert judged(clean, edit) == expected


def test_same_verdict_on_every_source(live, clean, tmp_path):
    """Live result, its from_dict(to_dict()) and the run_campaign cell
    executed in-process, in a worker, and resumed from its artifact."""
    expected = verdict(live)
    assert judged(clean) == expected
    for workers, source in ((1, "in-process"), (2, "worker")):
        cells = [("crash-recover", CONFIG), ("twin", CONFIG)]
        (cell, _) = run_campaign(cells, workers=workers).cells
        assert (cell.source, cell.status) == (source, expected)

    # a stored payload edited into each bad verdict resumes with it
    store = ArtifactStore(tmp_path)
    for edit in (drop_entry, add_violation, lose_rejoin):
        payload = copy.deepcopy(clean)
        edit(payload)
        store.save("crash-recover", ScenarioResult.from_dict(payload))
        (cell,) = run_campaign(
            [("crash-recover", CONFIG)], artifact_dir=tmp_path, journal=False
        ).cells
        assert cell.source == "artifact"
        assert cell.status == judged(payload) != "ok"
