"""Integration: the parallel campaign runner end to end.

The acceptance bar for the runner subsystem: a grid executed with
``workers>1`` produces metrics identical to the sequential path, a
failed cell is recorded (with its traceback) without killing the rest of
the campaign, and a repeated invocation against the same artifact
directory skips completed cells.
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from helpers import raising_run

from repro.analysis import metric_value
from repro.core.experiment import Scenario, ScenarioConfig
from repro.core.faults import random_loss
from repro.gcs.config import GcsConfig
from repro.runner import ArtifactStore, CampaignError, run_campaign


def grid_configs(transactions=120):
    """A miniature Fig. 5-style grid: centralized and replicated cells."""
    grid = []
    for label, sites, cpus in (("1 CPU", 1, 1), ("3 Sites", 3, 1)):
        for clients in (20, 40):
            grid.append(
                (
                    f"{label} c{clients}",
                    ScenarioConfig(
                        sites=sites,
                        cpus_per_site=cpus,
                        clients=clients,
                        transactions=transactions,
                        seed=42 + clients,
                    ),
                )
            )
    return grid


def observables(result):
    """Everything a figure reads, excluding process-global tx ids."""
    return {
        **{
            name: metric_value(result, name)
            for name in (
                "throughput_tpm", "mean_latency_ms", "abort_rate",
                "cpu_total", "cpu_protocol", "disk", "net_kbps",
            )
        },
        "sim_time": result.sim_time,
        "records": [
            (r.tx_class, r.site, r.submit_time, r.end_time, r.outcome,
             r.readonly, r.certification_latency, r.abort_reason)
            for r in result.metrics.records
        ],
        "commit_seqs": [
            [seq for seq, _ in log.sequence()] for log in result.commit_logs()
        ],
        "safety": result.check_safety(),
    }


class TestPoolMatchesSequential:
    def test_pool_grid_identical_to_sequential(self, tmp_path):
        grid = grid_configs()
        sequential = [
            (label, Scenario(config).run()) for label, config in grid
        ]
        campaigns = {
            "in-process": run_campaign(grid, workers=1, artifact_dir=tmp_path),
            "worker": run_campaign(grid, workers=2),
            "artifact": run_campaign(grid, workers=1, artifact_dir=tmp_path),
        }
        for source, campaign in campaigns.items():
            for (label, direct), cell in zip(sequential, campaign.cells):
                assert cell.source == source, label
                assert observables(cell.result) == observables(direct), label

    def test_pairs_keep_grid_order_and_match_direct_runs(self):
        grid = grid_configs()[:2]
        direct = [(label, Scenario(c).run()) for label, c in grid]
        for workers in (1, 2):
            pairs = run_campaign(grid, workers=workers).pairs()
            assert [label for label, _ in pairs] == [l for l, _ in grid]
            for (_, a), (_, b) in zip(direct, pairs):
                assert observables(a) == observables(b)


class TestWorkerFailureIsolation:
    #: Constructible and picklable, but Scenario assembly raises inside
    #: the worker: ``build_protocol`` knows no such protocol.
    BAD_CONFIG = ScenarioConfig(
        sites=3, clients=20, transactions=100, seed=5, protocol="no-such-protocol",
    )

    def failing_grid(self):
        good = ScenarioConfig(sites=3, clients=20, transactions=100, seed=5)
        return [
            ("before", good),
            ("poison", self.BAD_CONFIG),
            ("after", ScenarioConfig(sites=1, clients=20, transactions=100,
                                     seed=6)),
        ]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failed_cell_recorded_rest_completes(self, workers):
        campaign = run_campaign(self.failing_grid(), workers=workers)
        assert [c.status for c in campaign.cells] == ["ok", "failed", "ok"]
        poison = campaign.get("poison")
        assert poison.result is None
        assert "unknown replication protocol" in poison.error
        assert "Traceback" in poison.error
        assert metric_value(campaign.get("before").result, "throughput_tpm") > 0
        assert metric_value(campaign.get("after").result, "throughput_tpm") > 0

    def test_pairs_surfaces_failure(self):
        campaign = run_campaign(self.failing_grid()[:2], workers=1)
        with pytest.raises(CampaignError) as excinfo:
            campaign.pairs()
        assert "poison" in str(excinfo.value)


class TestWorkerInterrupts:
    """An interrupt or exit raised inside one cell of a pool worker is
    not the campaign's: the executor ships it back as the future's
    exception, the cell is recorded as failed, and the rest run."""

    GRID = [
        (f"cell{i}", ScenarioConfig(sites=1, clients=10, transactions=60, seed=3 + i))
        for i in range(3)
    ]

    @pytest.mark.parametrize("raised", [KeyboardInterrupt, SystemExit])
    def test_interrupt_in_a_worker_fails_only_its_cell(self, monkeypatch, raised):
        monkeypatch.setattr(Scenario, "run", raising_run(raised))
        campaign = run_campaign(self.GRID, workers=2)  # returns normally
        assert [c.status for c in campaign.cells] == ["ok", "failed", "ok"]
        assert campaign.get("cell1").error == repr(raised("raised inside the cell"))
        assert campaign.get("cell1").result is None
        assert all(
            c.source == "worker" for c in campaign.cells if c.label != "cell1"
        )


class TestResumability:
    def test_second_invocation_skips_completed_cells(self, tmp_path, monkeypatch):
        grid = grid_configs(transactions=80)
        art = tmp_path / "campaign"
        first = run_campaign(grid, workers=2, artifact_dir=art)
        assert first.ok
        assert {c.source for c in first.cells} == {"worker"}

        # the repeat must not execute any scenario: break Scenario.run
        # in this process and keep workers=1 so the pool cannot dodge it
        monkeypatch.setattr(
            Scenario, "run",
            lambda self: pytest.fail("cell re-executed despite artifact"),
        )
        second = run_campaign(grid, workers=1, artifact_dir=art)
        assert {c.source for c in second.cells} == {"artifact"}
        for (label, a), (_, b) in zip(first.pairs(), second.pairs()):
            assert metric_value(a, "throughput_tpm") == metric_value(
                b, "throughput_tpm"
            ), label
            assert a.check_safety() == b.check_safety(), label

    def test_changed_config_invalidates_only_that_cell(self, tmp_path):
        grid = grid_configs(transactions=80)
        art = tmp_path / "campaign"
        run_campaign(grid, workers=1, artifact_dir=art)
        label0, config0 = grid[0]
        changed = [(label0, ScenarioConfig(
            sites=config0.sites, cpus_per_site=config0.cpus_per_site,
            clients=config0.clients, transactions=config0.transactions,
            seed=config0.seed + 1,
        ))] + grid[1:]
        second = run_campaign(changed, workers=1, artifact_dir=art)
        assert second.get(label0).source == "in-process"
        assert all(
            second.get(label).source == "artifact" for label, _ in grid[1:]
        )

    def test_failed_cells_are_not_cached(self, tmp_path):
        bad = TestWorkerFailureIsolation.BAD_CONFIG
        art = tmp_path / "campaign"
        first = run_campaign([("poison", bad)], workers=1, artifact_dir=art)
        assert not first.ok
        second = run_campaign([("poison", bad)], workers=1, artifact_dir=art)
        assert second.get("poison").source == "in-process"  # re-attempted

    @pytest.mark.parametrize(
        "workers, source", [(1, "in-process"), (2, "worker")]
    )
    def test_artifact_is_keyed_on_the_result_config(self, tmp_path, workers, source):
        """A cell is stored under the config its result carries, which
        is the requested cell's encoding whichever source ran it."""
        config = ScenarioConfig(
            sites=2, clients=10, transactions=60, seed=3, monitors=("all",),
            faults={1: random_loss(0.02, seed=4)}, gcs=GcsConfig(buffer_share=17),
        )
        art = tmp_path / "campaign"
        first = run_campaign([("cell", config)], workers=workers, artifact_dir=art)
        assert first.get("cell").source == source
        stored = json.loads(ArtifactStore(art).path_for("cell").read_text())
        assert "config" not in stored
        assert stored["result"]["config"] == json.loads(json.dumps(config.to_dict()))
        again = run_campaign([("cell", config)], workers=1, artifact_dir=art)
        assert again.get("cell").source == "artifact"

    def test_env_knobs(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "2")
        monkeypatch.setenv("REPRO_ARTIFACT_DIR", str(tmp_path))
        grid = grid_configs(transactions=80)[:1]
        first = run_campaign(grid, campaign="env-test")
        assert first.get(grid[0][0]).source == "worker"
        assert (tmp_path / "env-test").is_dir()
        second = run_campaign(grid, campaign="env-test")
        assert second.get(grid[0][0]).source == "artifact"
