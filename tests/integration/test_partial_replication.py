"""Integration: the partial-replication protocol end to end.

The properties the scale-out campaign rests on: bit-identical
determinism across every execution path (direct, in-process runner,
worker pool), per-group one-copy serializability with disjoint
fragment histories, crash→recover survival inside one fragment group,
zero violations from the fragment-aware runtime monitors, and — the
differential oracle — with one fragment, the decisions of ``dbsm``.
"""

from dataclasses import replace

import pytest

from repro.campaigns import get_campaign
from repro.core.experiment import Scenario, ScenarioConfig
from repro.core.safety import SafetyViolation, check_consistency
from repro.core.scenarios import fault_config
from repro.placement import sites_of_fragment
from repro.runner import run_campaign


def partial_config(**overrides):
    defaults = dict(
        sites=4,
        cpus_per_site=1,
        clients=120,
        transactions=200,
        seed=11,
        protocol="partial",
        fragments=2,
        placement="range",
    )
    defaults.update(overrides)
    return ScenarioConfig(**defaults)


def observables(result):
    return {
        "records": [
            (r.tx_class, r.site, r.submit_time, r.end_time, r.outcome,
             r.certification_latency)
            for r in result.metrics.records
        ],
        "commit_seqs": [
            [seq for seq, _ in log.sequence()]
            for log in result.commit_logs()
        ],
        "sim_time": result.sim_time,
        "safety": result.check_safety(),
    }


class TestPartialDeterminism:
    def test_identical_runs_bit_for_bit(self):
        a = Scenario(partial_config()).run()
        b = Scenario(partial_config()).run()
        assert observables(a) == observables(b)

    def test_sequential_workers1_and_pool_identical(self, tmp_path):
        config = partial_config(transactions=150)
        grid = [("cell", config)]
        direct = Scenario(config).run()
        in_process, = run_campaign(grid, workers=1, artifact_dir=tmp_path).cells
        pooled, = run_campaign(grid, workers=2).cells
        resumed, = run_campaign(grid, workers=1, artifact_dir=tmp_path).cells
        expect = observables(direct)
        for cell, source in (
            (in_process, "in-process"),
            (pooled, "worker"),
            (resumed, "artifact"),
        ):
            assert cell.source == source
            assert observables(cell.result) == expect, source

    def test_placement_changes_the_execution(self):
        ranged = Scenario(partial_config()).run()
        robin = Scenario(partial_config(placement="round-robin")).run()
        assert observables(ranged) != observables(robin)


class TestPartialSafety:
    def test_per_group_histories_consistent_and_disjoint(self):
        config = partial_config()
        result = Scenario(config).run()
        counts = result.check_safety()
        assert sorted(counts) == [f"site{i}" for i in range(config.sites)]
        logs = result.commit_logs()
        group_seqs = []
        for fragment in range(config.fragments):
            members = sites_of_fragment(
                fragment, config.sites, config.fragments
            )
            check_consistency([logs[i] for i in members])
            group_seqs.append(
                {seq for seq, _ in logs[members[0]].sequence()}
            )
        # Each group runs its own commit sequence; histories are not
        # one global stream.
        assert all(seqs for seqs in group_seqs)

    def test_cross_group_logs_are_not_one_history(self):
        # A whole-system consistency check across independently numbered
        # fragment histories must NOT silently pass: the per-group
        # scoping in ScenarioResult.check_safety is load-bearing.
        result = Scenario(partial_config()).run()
        logs = result.commit_logs()
        with pytest.raises(SafetyViolation):
            check_consistency(logs)

    def test_monitors_stay_clean_on_fragmented_run(self):
        result = Scenario(partial_config(monitors=("all",))).run()
        result.check_safety()
        assert list(result.violations) == []

    def test_crash_recover_inside_one_fragment_group(self):
        # sites=6 / fragments=2 keeps three members per group, so the
        # group holding the crashed site retains a view majority and
        # readmits it via state transfer.
        config = fault_config(
            "crash-recover",
            clients=120,
            sites=6,
            transactions=300,
            seed=9,
            protocol="partial",
            fault_at=5.0,
            repair_after=3.0,
            fragments=2,
            placement="range",
        )
        result = Scenario(config).run()
        counts = result.check_safety()
        assert sorted(counts) == [f"site{i}" for i in range(6)]
        assert result.completed_rejoins()

    def test_stats_expose_cross_fragment_traffic(self):
        result = Scenario(partial_config()).run()
        stats = list(result.site_stats.values())
        assert sum(s["submitted"] for s in stats) > 0
        assert sum(s["single_fragment"] for s in stats) > 0
        # 120 clients over 12 warehouses: neworder remote stock reads
        # guarantee some cross-fragment certification.
        assert sum(s["cross_fragment"] for s in stats) > 0
        assert sum(s["decisions"] for s in stats) > 0


#: The ten ``safety`` fault-loads at 150 transactions and two fault-free
#: cells of the same shape on other seeds.  150 transactions commit
#: before the crashes and partitions (at 20 s), so those six fault-loads
#: also run at 400, where the faults cut through the workload.
DIFFERENTIAL_CELLS = {
    f"{label} t{config.transactions}": config
    for transactions in (150, 400)
    for label, config in get_campaign("safety")
    .with_axis("transactions", (transactions,))
    .expand()
    if transactions == 150 or label.startswith(("crash", "partition"))
}
DIFFERENTIAL_CELLS.update(
    (
        f"fault-free seed={seed} t150",
        ScenarioConfig(sites=3, clients=90, transactions=150, seed=seed),
    )
    for seed in (21, 1000)
)


def decisions(result):
    return {
        "commit_logs": [log.sequence() for log in result.commit_logs()],
        "outcomes": [(r.tx_id, r.outcome) for r in result.metrics.records],
    }


class TestOneFragmentIsDbsm:
    """``partial`` with ``fragments=1`` takes the single-group fast path
    for every transaction, so it must decide exactly what ``dbsm``
    decides: the same commit sequence at every site and the same outcome
    for every transaction.  (It is not bit-identical: ``partial`` tags
    its messages, which moves latencies in the last digits.)"""

    @pytest.mark.parametrize("label", sorted(DIFFERENTIAL_CELLS))
    def test_same_decisions_as_dbsm(self, label):
        config = replace(DIFFERENTIAL_CELLS[label], protocol="dbsm")
        dbsm = Scenario(config).run()
        partial = Scenario(replace(config, protocol="partial", fragments=1)).run()
        expect = decisions(dbsm)
        assert expect["commit_logs"][0] and expect["outcomes"]
        assert decisions(partial) == expect
