"""Exact kernel-event budget: a noise-free performance regression gate.

``Simulator.events_executed`` is a pure function of ``(config, seed)``,
so it compares two commits without timing anything: a change that makes
a cell execute more events made it slower, however the host felt that
day.  Fewer events for the same results is an optimisation — re-baseline
and say so in the PR.  Simulated *results* are pinned elsewhere (the
determinism suites); this file pins only the work done to produce them.
"""

import json
from pathlib import Path

import pytest

from repro.core.experiment import Scenario, ScenarioConfig

GOLDEN = Path(__file__).resolve().parent.parent / "golden" / "event_budget.json"
BUDGET = json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("cell", sorted(BUDGET))
def test_events_executed_matches_budget(cell):
    entry = BUDGET[cell]
    scenario = Scenario(ScenarioConfig(**entry["config"]))
    scenario.run()
    old, new = entry["events_executed"], scenario.sim.events_executed
    assert new == old, (
        f"{cell}: kernel events {old} -> {new} ({new - old:+d}, "
        f"{(new - old) / old:+.2%}).  If the change is intended — results "
        f"bit-identical and the new count explained in the PR — re-baseline "
        f"by setting \"events_executed\": {new} for \"{cell}\" in "
        f"tests/golden/event_budget.json."
    )
