"""Integration: the §5.3 safety condition under every fault type.

"First, we ensure that all operational sites must commit exactly the
same sequence of transactions by comparing logs off-line after the
simulation has finished" — for clock drift, scheduling latency, random
loss, bursty loss, crash, crash→recover and partition→heal.  The bar is
protocol-independent: every registered replication protocol must earn
the ``ok`` verdict on the same matrix — the logs agree and every site
that must rejoin did (for primary-copy, the crash plans
additionally exercise primary failover — site 0 is both the initial
primary and the sequencer).
"""

import pytest

from repro.core.experiment import Scenario, ScenarioConfig
from repro.core.safety import verdict
from repro.core.scenarios import safety_fault_plans
from repro.protocols import available_protocols

PLANS = safety_fault_plans(sites=3, seed=5)


@pytest.mark.parametrize("protocol", available_protocols())
@pytest.mark.parametrize("fault_name", sorted(PLANS))
def test_same_commit_sequence_under_fault(fault_name, protocol):
    config = ScenarioConfig(
        sites=3,
        cpus_per_site=1,
        clients=60,
        transactions=300,
        seed=31,
        protocol=protocol,
        faults=PLANS[fault_name],
        max_sim_time=600.0,
    )
    scenario = Scenario(config)
    result = scenario.run()
    assert verdict(result) == "ok"
    operational = [
        site for site in scenario.sites if not site.replica.crashed
    ]
    assert len(operational) >= 2
    assert all(s.replica.commit_log.entries for s in operational)


def test_crash_blocks_only_faulty_sites_clients():
    """Crashes block clients connected to faulty replicas (§5.3); the
    survivors keep committing."""
    from repro.core.faults import FaultPlan

    config = ScenarioConfig(
        sites=3,
        cpus_per_site=1,
        clients=60,
        transactions=400,
        seed=37,
        faults={2: FaultPlan(actions=((25.0, "crash"),))},
        max_sim_time=600.0,
    )
    scenario = Scenario(config)
    result = scenario.run()
    crashed_site = scenario.sites[2]
    survivor_commits = [
        len(s.replica.commit_log.entries) for s in scenario.sites[:2]
    ]
    crashed_commits = len(crashed_site.replica.commit_log.entries)
    assert all(c > crashed_commits for c in survivor_commits)
    # survivors agreed on a longer sequence; crashed is a prefix
    assert verdict(result) == "ok"


def test_sequencer_crash_survivors_commit_new_work():
    from repro.core.faults import FaultPlan

    config = ScenarioConfig(
        sites=3,
        cpus_per_site=1,
        clients=60,
        transactions=400,
        seed=41,
        faults={0: FaultPlan(actions=((25.0, "crash"),))},
        max_sim_time=600.0,
    )
    scenario = Scenario(config)
    result = scenario.run()
    assert verdict(result) == "ok"
    survivors = scenario.sites[1:]
    assert all(s.gcs.view_id >= 2 for s in survivors)
    assert all(s.gcs.members == (1, 2) for s in survivors)
    # commits continued after the crash instant at survivors
    post_crash = [
        r
        for r in result.metrics.records
        if r.submit_time > 30.0 and r.committed and not r.readonly
    ]
    assert post_crash, "no update commits after the sequencer crash"
