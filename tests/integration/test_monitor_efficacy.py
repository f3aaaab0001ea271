"""Seeded-bug efficacy: each runtime monitor catches exactly the class
of protocol bug it was built for, and none fires on correct code.

Five bugs are seeded by patching protocol objects after ``Scenario``
construction (the production source stays correct):

* a *leaky certifier* that skips one genuine conflict check — only the
  ``one-copy-sr`` monitor may flag it;
* a *swapping sequencer* that assigns two of one origin's messages in
  the wrong order (consistently at every site, so commit logs still
  agree) — only the ``gcs-ordering`` FIFO check may flag it;
* a *minority primary* whose view-majority rule is weakened so a
  partitioned singleton keeps committing — the ``primary-component``
  monitor must flag it;
* a *never-aborting certifier* at every replica (F3), and an
  *off-by-one certifier* that reads every ``start_seq`` one too high —
  the replicas agree on a history that is not serialisable, so no
  monitor and no consistency check can flag either: they are pinned
  for a serialisability oracle to catch.

The determinism guard at the bottom asserts monitors are provably free
when disabled: monitors-on and monitors-off runs produce bit-identical
result payloads, across the direct, sequential and pool runner paths.
"""

import dataclasses
import json

import pytest

from repro.analysis.metrics import metric_value
from repro.core.experiment import Scenario, ScenarioConfig
from repro.core.faults import FaultPlan, crash_recover
from repro.core.safety import verdict
from repro.runner.runner import run_campaign

MONITORS = ("one-copy-sr", "view-synchrony", "primary-component", "gcs-ordering")


def config(**overrides):
    base = dict(
        sites=3,
        cpus_per_site=1,
        clients=60,
        transactions=400,
        seed=21,
        monitors=("all",),
    )
    base.update(overrides)
    return ScenarioConfig(**base)


def by_monitor(result):
    counts = {name: 0 for name in MONITORS}
    for violation in result.violations:
        counts[violation.monitor] += 1
    return counts


class TestCleanRuns:
    """Correct protocol code triggers no monitor, under faults included."""

    @pytest.mark.parametrize("protocol", ["dbsm", "primary-copy"])
    def test_fault_free(self, protocol):
        result = Scenario(config(protocol=protocol)).run()
        assert result.violations == []
        assert result.check_safety()

    @pytest.mark.parametrize("protocol", ["dbsm", "primary-copy"])
    def test_crash_recover(self, protocol):
        result = Scenario(
            config(
                protocol=protocol,
                faults={1: crash_recover(15.0, 30.0)},
                max_sim_time=400.0,
            )
        ).run()
        assert result.violations == []
        assert result.recovery_events, "rejoin did not complete"


class TestLeakyCertifier:
    """Skipping one conflict check diverges the commit logs: the 1SR
    certifier flags it; the ordering/view/primary monitors stay quiet
    (delivery and membership are untouched)."""

    def seeded_run(self):
        # Escalated read sets make genuine certification conflicts
        # common enough to leak one deterministically.
        scenario = Scenario(config(readset_escalation_threshold=20))
        certifier = scenario.sites[1].replica.certifier
        genuine = certifier._conflicts
        skipped = {"count": 0}

        def leaky(request):
            if genuine(request):
                if skipped["count"] == 0:
                    skipped["count"] += 1
                    return False
                return True
            return False

        certifier._conflicts = leaky
        return scenario.run(), skipped["count"]

    def test_flagged_by_one_copy_sr_only(self):
        result, skipped = self.seeded_run()
        assert skipped > 0, "workload produced no conflict to leak"
        counts = by_monitor(result)
        assert counts["one-copy-sr"] > 0
        assert counts["gcs-ordering"] == 0
        assert counts["view-synchrony"] == 0
        assert counts["primary-component"] == 0

    def test_violation_is_cell_addressable(self):
        result, _ = self.seeded_run()
        violation = next(
            v for v in result.violations if v.monitor == "one-copy-sr"
        )
        assert violation.site in {"site0", "site1", "site2"}
        assert violation.sim_time >= 0.0
        assert "diverg" in violation.detail or "sequence" in violation.detail
        data = json.loads(json.dumps(result.to_dict()))
        assert data["violations"][0]["monitor"] == "one-copy-sr"


@pytest.fixture(scope="module")
def never_aborting():
    """F3's cell: ``Certifier._conflicts`` returns ``False`` at every
    replica.  ``(result, genuine conflicts it ignored)``."""
    scenario = Scenario(config(readset_escalation_threshold=20))
    ignored = []
    for site in scenario.sites:
        certifier = site.replica.certifier

        def never(request, genuine=certifier._conflicts):
            if genuine(request):
                ignored.append(request)
            return False

        certifier._conflicts = never
    return scenario.run(), len(ignored)


class TestNeverAbortingCertifier:
    """The same bug at every replica keeps the commit logs in agreement,
    and agreement is all that the monitors and the consistency check
    compare: the history stops being serialisable and the run reads
    ``ok``."""

    def test_genuine_conflicts_commit_unnoticed(self, never_aborting):
        result, ignored = never_aborting
        assert ignored == 27  # 9 requests, each at all three replicas
        # 4.914 % with the genuine certifier
        assert metric_value(result, "abort_rate") == pytest.approx(2.494, abs=1e-3)
        assert result.violations == []
        assert result.check_safety()

    @pytest.mark.xfail(
        strict=True, reason="F3: no serialisability oracle, ROADMAP item 3(a)"
    )
    def test_the_verdict_catches_it(self, never_aborting):
        result, _ = never_aborting
        assert verdict(result) != "ok"


@pytest.fixture(scope="module")
def off_by_one():
    """F3's cell, with every replica's certifier deciding each request as
    if its ``start_seq`` were one higher: a conflict with the commit
    right after the transaction's snapshot goes unseen.  ``(result,
    genuine conflicts it ignored)``.  The genuine test runs only where
    the shifted one passes, and charges no CPU, so the run pays the
    shifted test alone."""
    scenario = Scenario(config(readset_escalation_threshold=20))
    ignored = []
    for site in scenario.sites:
        certifier = site.replica.certifier

        def shifted(request, certifier=certifier, genuine=certifier._conflicts):
            late = dataclasses.replace(request, start_seq=request.start_seq + 1)
            if genuine(late):
                return True
            charge, certifier._charge = certifier._charge, lambda seconds: None
            try:
                if genuine(request):
                    ignored.append(request)
            finally:
                certifier._charge = charge
            return False

        certifier._conflicts = shifted
    return scenario.run(), len(ignored)


class TestOffByOneCertifier:
    """Item 3(b)'s second seeded bug: the same off-by-one at every
    replica, so the logs agree on a history that is not serialisable."""

    def test_genuine_conflicts_commit_unnoticed(self, off_by_one):
        result, ignored = off_by_one
        assert ignored == 18  # 6 requests, each at all three replicas
        # 4.914 % with the genuine certifier
        assert metric_value(result, "abort_rate") == pytest.approx(3.440, abs=1e-3)
        assert result.violations == []
        assert result.check_safety()

    @pytest.mark.xfail(
        strict=True, reason="no serialisability oracle, ROADMAP item 3(a)"
    )
    def test_the_verdict_catches_it(self, off_by_one):
        result, _ = off_by_one
        assert verdict(result) != "ok"


class TestSwappingSequencer:
    """Assigning two messages of one origin out of order — consistently
    at every site — breaks per-origin FIFO everywhere while commit logs
    still agree: only the gcs-ordering monitor may fire."""

    def seeded_run(self):
        scenario = Scenario(config())
        total_order = scenario.sites[0].gcs.total_order
        assert total_order.is_sequencer
        genuine = total_order._queue_assignment
        held = {}

        def swapping(origin, seq):
            if origin == 1 and "done" not in held:
                if "first" not in held:
                    held["first"] = (origin, seq)
                    return  # hold back until the origin's next message
                held["done"] = True
                genuine(origin, seq)  # later message gets earlier global
                genuine(*held.pop("first"))
                return
            genuine(origin, seq)

        total_order._queue_assignment = swapping
        return scenario.run()

    def test_flagged_by_gcs_ordering_only(self):
        result = self.seeded_run()
        counts = by_monitor(result)
        assert counts["gcs-ordering"] > 0
        assert counts["one-copy-sr"] == 0
        assert counts["view-synchrony"] == 0
        assert counts["primary-component"] == 0
        violation = next(
            v for v in result.violations if v.monitor == "gcs-ordering"
        )
        assert "FIFO" in violation.detail
        assert violation.seq > 0
        # The swap is consistent across sites: commit logs still agree.
        assert result.check_safety()


class TestMinorityPrimary:
    """A 2-of-5 minority partition whose majority rule is weakened
    installs a view without majority-of-predecessor and keeps
    committing; the primary-component monitor flags it.  (The run is
    split-brain by construction, so only this monitor is enabled — the
    1SR monitor would legitimately co-fire on the divergent logs.)"""

    def seeded_run(self):
        cfg = config(
            sites=5,
            monitors=("primary-component",),
            faults={
                3: FaultPlan(actions=((5.0, "partition"),)),
                4: FaultPlan(actions=((5.0, "partition"),)),
            },
            max_sim_time=200.0,
        )
        scenario = Scenario(cfg)
        for site in (3, 4):
            scenario.sites[site].gcs.views.majority = lambda: 2
        return scenario.run()

    def test_flagged_by_primary_component(self):
        result = self.seeded_run()
        assert result.violations, "minority commits went unflagged"
        assert {v.monitor for v in result.violations} == {"primary-component"}
        assert {v.site for v in result.violations} <= {"site3", "site4"}
        kinds = {
            "view" if "majority" in v.detail else "commit"
            for v in result.violations
        }
        assert "view" in kinds, "rogue view install itself went unflagged"


def strip_monitoring(result):
    payload = json.loads(json.dumps(result.to_dict()))
    payload.pop("violations", None)
    payload["config"].pop("monitors", None)
    return payload


class TestZeroCostWhenDisabled:
    """Monitors-on and monitors-off runs are bit-identical apart from
    the violations/monitors fields themselves."""

    def test_direct_path(self):
        cfg = config()
        on = Scenario(cfg).run()
        off = Scenario(dataclasses.replace(cfg, monitors=())).run()
        assert strip_monitoring(on) == strip_monitoring(off)

    def test_faulted_run(self):
        cfg = config(
            faults={1: crash_recover(15.0, 30.0)}, max_sim_time=400.0
        )
        on = Scenario(cfg).run()
        off = Scenario(dataclasses.replace(cfg, monitors=())).run()
        assert strip_monitoring(on) == strip_monitoring(off)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_runner_paths(self, workers):
        cfg = config(transactions=150)
        grid = [
            ("on", cfg),
            ("off", dataclasses.replace(cfg, monitors=())),
        ]
        campaign = run_campaign(grid, workers=workers)
        results = dict(campaign.pairs())
        assert strip_monitoring(results["on"]) == strip_monitoring(
            results["off"]
        )
        assert results["on"].violations == []
