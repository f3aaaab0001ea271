"""Integration: the pluggable replication-protocol layer.

Every registered protocol must be deterministic and safety-clean on the
same (config, seed); primary-copy must additionally route updates to
the primary, serve reads locally, and fail over to the lowest-id
survivor when the primary crashes.
"""

import pytest

from repro.analysis import metric_value
from repro.core.experiment import Scenario, ScenarioConfig
from repro.core.faults import FaultPlan
from repro.protocols import available_protocols
from repro.protocols.primary_copy import PrimaryCopyReplica


def config_for(protocol, seed=3, transactions=250, clients=45, **overrides):
    return ScenarioConfig(
        sites=3,
        cpus_per_site=1,
        clients=clients,
        transactions=transactions,
        seed=seed,
        protocol=protocol,
        **overrides,
    )


def observables(result):
    return {
        "records": [
            (r.tx_class, r.site, r.submit_time, r.end_time, r.outcome)
            for r in result.metrics.records
        ],
        "commit_seqs": [
            [seq for seq, _ in log.sequence()] for log in result.commit_logs()
        ],
        "sim_time": result.sim_time,
        "safety": result.check_safety(),
    }


@pytest.mark.parametrize("protocol", available_protocols())
class TestEveryProtocol:
    def test_deterministic_and_safe(self, protocol):
        a = Scenario(config_for(protocol)).run()
        b = Scenario(config_for(protocol)).run()
        assert observables(a) == observables(b)
        assert metric_value(a, "throughput_tpm") > 0

    def test_commit_logs_at_every_site(self, protocol):
        result = Scenario(config_for(protocol)).run()
        logs = result.commit_logs()
        assert len(logs) == 3
        assert all(len(log.entries) > 0 for log in logs)

    def test_site_stats_serialization_round_trip(self, protocol):
        result = Scenario(config_for(protocol)).run()
        clone = type(result).from_dict(result.to_dict())
        assert clone.site_stats == result.site_stats
        assert clone.check_safety() == result.check_safety()
        assert clone.config.protocol == protocol


class TestCrossProtocol:
    def test_protocols_diverge_on_identical_config(self):
        """Same workload, same seed — only the protocol differs, and the
        measured behavior differs with it (routing changes timings)."""
        dbsm = Scenario(config_for("dbsm")).run()
        pc = Scenario(config_for("primary-copy")).run()
        assert observables(dbsm) != observables(pc)
        # both are nonetheless complete and safe
        assert len(dbsm.metrics.records) >= 250
        assert len(pc.metrics.records) >= 250

    def test_explicit_dbsm_matches_default(self):
        """protocol="dbsm" is the default: threading the field through
        the scenario must not perturb the existing protocol's results."""
        default = Scenario(config_for("dbsm")).run()
        implicit = ScenarioConfig(
            sites=3, cpus_per_site=1, clients=45, transactions=250, seed=3
        )
        assert implicit.protocol == "dbsm"
        assert observables(Scenario(implicit).run()) == observables(default)


class TestPrimaryCopy:
    def test_updates_execute_on_primary_reads_locally(self):
        result = Scenario(config_for("primary-copy")).run()
        stats = result.site_stats
        # every write-set broadcast originated at the primary …
        assert stats["site0"]["submitted"] > 0
        assert stats["site1"]["submitted"] == 0
        assert stats["site2"]["submitted"] == 0
        # … backups forwarded their update transactions there …
        assert stats["site1"]["forwarded"] > 0
        assert stats["site2"]["forwarded"] > 0
        # … applied the primary's write-sets, and no failover happened
        assert stats["site1"]["backup_applies"] == stats["site1"]["sequenced"]
        assert all(stats[s]["failovers"] == 0 for s in stats)
        # read-only transactions committed at every site (served locally)
        for site in ("site0", "site1", "site2"):
            local_reads = [
                r
                for r in result.metrics.records
                if r.site == site and r.readonly and r.outcome == "commit"
            ]
            assert local_reads, f"no local read-only commits at {site}"

    def test_update_commits_recorded_at_primary_only(self):
        result = Scenario(config_for("primary-copy")).run()
        update_commits = [
            r
            for r in result.metrics.records
            if not r.readonly and r.outcome == "commit"
        ]
        assert update_commits
        assert {r.site for r in update_commits} == {"site0"}

    def test_primary_crash_fails_over_and_survivors_commit(self):
        config = config_for(
            "primary-copy",
            seed=41,
            transactions=400,
            clients=60,
            faults={0: FaultPlan(actions=((25.0, "crash"),))},
            max_sim_time=600.0,
        )
        result = Scenario(config).run()
        result.check_safety()  # crashed primary's log is a prefix
        stats = result.site_stats
        # both survivors observed exactly one failover, to site 1
        assert stats["site1"]["failovers"] == 1
        assert stats["site2"]["failovers"] == 1
        for site in result.sites[1:]:
            assert isinstance(site.replica, PrimaryCopyReplica)
            assert site.replica.primary_id == 1
        # the new primary took over write-set broadcasting
        assert stats["site1"]["submitted"] > 0
        # update transactions kept committing after the crash instant
        post_crash = [
            r
            for r in result.metrics.records
            if r.submit_time > 30.0 and r.committed and not r.readonly
        ]
        assert post_crash, "no update commits after the primary crash"
        assert {r.site for r in post_crash} == {"site1"}
        # requests routed while no primary was reachable were parked and
        # later retried (deterministic for this seed)
        parked = stats["site1"]["parked"] + stats["site2"]["parked"]
        assert parked > 0
        survivors = [len(log.entries) for log in result.commit_logs()[1:]]
        crashed = len(result.commit_logs()[0].entries)
        assert all(c > crashed for c in survivors)

    def test_backup_crash_keeps_primary_serving(self):
        config = config_for(
            "primary-copy",
            seed=37,
            transactions=400,
            clients=60,
            faults={2: FaultPlan(actions=((25.0, "crash"),))},
            max_sim_time=600.0,
        )
        result = Scenario(config).run()
        result.check_safety()
        stats = result.site_stats
        # no failover: the primary survived
        assert stats["site0"]["failovers"] == 0
        assert stats["site1"]["failovers"] == 0
        assert result.sites[0].replica.primary_id == 0
        survivor_commits = [
            len(log.entries) for log in result.commit_logs()[:2]
        ]
        crashed_commits = len(result.commit_logs()[2].entries)
        assert all(c > crashed_commits for c in survivor_commits)
