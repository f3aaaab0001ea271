"""Regression pin: the view-id collision of ROADMAP finding F2.

``partition-heal-sequencer`` on three sites with workload seed 1007: at
the partition instant the sequencer (site 0) still counts site 1 alive
and proposes view 2 = (0, 1) while the majority proposes and installs
view 2 = (1, 2) — one view id, two member sets.  Site 0 never learns it
was excluded, never rejoins, and its log diverges from the majority's.

The test states what a correct run looks like and is expected to fail
until ROADMAP item 1(a) fixes ``gcs/views.py``; the PR that does deletes
the ``xfail`` marker (``strict``: an unnoticed fix fails the suite).
"""

import pytest

from repro import CampaignSpec, Scenario

SPEC = {
    "format": "repro.campaign_spec/1",
    "name": "seed-1007",
    "kind": "safety",
    "axes": [["fault", ["partition-heal-sequencer"]]],
    "template": {
        "sites": 3,
        "clients": 90,
        "plan_seed": 7,
        "transactions": 300,
        "seed": 1007,
        "protocol": "dbsm",
        "monitors": ["all"],
        "max_sim_time": 600.0,
    },
    "label": "{fault}",
}


@pytest.mark.xfail(strict=True, reason="ROADMAP F2: view-id collision")
def test_partitioned_sequencer_rejoins_and_logs_agree():
    ((_, config),) = CampaignSpec.from_dict(SPEC).expand()
    result = Scenario(config).run()
    assert result.violations == []
    result.check_safety()  # raises SafetyViolation on divergence
    assert [event.site for event in result.completed_rejoins()] == [0]
