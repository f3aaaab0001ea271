"""Integration: a fault plan whose every action falls after the run is
the empty plan (a differential oracle, ROADMAP 3(e)).

The site carrying the plan holds a fault injector whose hooks run on
every boundary crossing; a site without faults holds none and calls no
hook.  Neither may show in the result: the whole ``to_dict()`` but its
``config`` must equal the fault-free run's, bit for bit.
"""

from dataclasses import replace

import pytest

from repro.core.experiment import Scenario, ScenarioConfig
from repro.core.faults import crash_recover, partition_heal

CELLS = {
    "dbsm": ScenarioConfig(
        sites=3, clients=90, transactions=150, seed=21, protocol="dbsm"
    ),
    "primary-copy": ScenarioConfig(
        sites=3, clients=90, transactions=150, seed=21, protocol="primary-copy"
    ),
    "partial": ScenarioConfig(
        sites=6, clients=180, transactions=150, seed=21, protocol="partial",
        fragments=2,
    ),
}
LATE_PLANS = {
    "crash-recover": crash_recover(10_000.0, 10_050.0),
    "partition-heal": partition_heal(10_000.0, 10_010.0),
}


def observed(scenario):
    result = scenario.run().to_dict()
    del result["config"]
    return result


@pytest.fixture(scope="module")
def fault_free():
    return {
        protocol: observed(Scenario(config)) for protocol, config in CELLS.items()
    }


@pytest.mark.parametrize("site", [0, 1])
@pytest.mark.parametrize("plan", sorted(LATE_PLANS))
@pytest.mark.parametrize("protocol", sorted(CELLS))
def test_late_plan_is_the_empty_plan(fault_free, protocol, plan, site):
    config = replace(CELLS[protocol], faults={site: LATE_PLANS[plan]})
    scenario = Scenario(config)
    assert scenario.sites[site].runtime.interceptor is not None
    assert all(
        other.runtime.interceptor is None
        for other in scenario.sites if other.index != site
    )
    result = observed(scenario)
    assert result["metrics"]["records"] and all(result["commit_logs"])
    assert result == fault_free[protocol]
