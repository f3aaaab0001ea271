"""Unit tests for the campaign runner: store, progress, plumbing."""

import gc
import json
import sys
import weakref
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from helpers import raising_run

from repro.analysis import ResultSet, metric_value
from repro.core.experiment import Scenario, ScenarioConfig
from repro.core.kernel import Simulator
from repro.runner import (
    ETA_WINDOW,
    ArtifactCollisionError,
    ArtifactStore,
    CampaignCell,
    CampaignError,
    CampaignProgress,
    CampaignResult,
    resolve_workers,
    run_campaign,
)
from repro.runner.store import _slug


def tiny_config(seed=3, **overrides):
    overrides.setdefault("sites", 1)
    overrides.setdefault("clients", 10)
    overrides.setdefault("transactions", 60)
    return ScenarioConfig(seed=seed, **overrides)


class TestResolveWorkers:
    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "7")
        assert resolve_workers(3) == 3

    def test_env_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "4")
        assert resolve_workers() == 4

    def test_fallback_is_sequential(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert resolve_workers() == 1

    def test_garbage_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "many")
        assert resolve_workers() == 1

    def test_floor_at_one(self):
        assert resolve_workers(0) == 1
        assert resolve_workers(-3) == 1


class TestArtifactStore:
    def test_slug_is_safe_and_collision_free(self):
        a = _slug("3 Sites c500")
        b = _slug("3/Sites c500")
        assert a != b
        assert "/" not in b and " " not in a

    def test_save_load_round_trip(self, tmp_path):
        store = ArtifactStore(tmp_path / "campaign")
        config = tiny_config()
        result = Scenario(config).run()
        store.save("cell", result)
        loaded = store.load("cell", config)
        assert loaded is not None
        assert metric_value(loaded, "throughput_tpm") == metric_value(
            result, "throughput_tpm"
        )

    def test_missing_cell_loads_none(self, tmp_path):
        store = ArtifactStore(tmp_path)
        assert store.load("absent", tiny_config()) is None

    def test_config_mismatch_invalidates(self, tmp_path):
        store = ArtifactStore(tmp_path)
        config = tiny_config()
        store.save("cell", Scenario(config).run())
        other = tiny_config(seed=4)
        assert store.load("cell", other) is None

    def test_corrupt_artifact_ignored(self, tmp_path):
        store = ArtifactStore(tmp_path)
        config = tiny_config()
        store.save("cell", Scenario(config).run())
        store.path_for("cell").write_text("{not json")
        assert store.load("cell", config) is None

    @staticmethod
    def fingerprinted(store, config):
        """A cell as older stores wrote it for a custom CPU profile: a
        sha1 fingerprint in the ``profiles`` slot."""
        path = store.save("cell", Scenario(config).run())
        data = json.loads(path.read_text())
        data["config"]["profiles"] = "0123456789abcdef0123456789abcdef01234567"
        data["result"]["config"] = data["config"]
        path.write_text(json.dumps(data))

    def test_fingerprinted_artifact_is_rerun(self, tmp_path):
        store = ArtifactStore(tmp_path)
        config = tiny_config()
        self.fingerprinted(store, config)
        assert store.load("cell", config) is None
        (cell,) = run_campaign(
            [("cell", config)], artifact_dir=tmp_path, journal=False
        ).cells
        assert (cell.source, cell.status) == ("in-process", "ok")

    def test_fingerprinted_artifact_still_loads_for_analysis(self, tmp_path):
        config = tiny_config()
        self.fingerprinted(ArtifactStore(tmp_path), config)
        (cell,) = ResultSet.from_artifacts(tmp_path).cells
        assert cell.label == "cell"
        assert cell.result.config == config

    def test_artifact_is_plain_json(self, tmp_path):
        store = ArtifactStore(tmp_path)
        config = tiny_config()
        path = store.save("cell", Scenario(config).run())
        data = json.loads(path.read_text())
        assert data["label"] == "cell"
        assert data["config"]["seed"] == config.seed


class TestArtifactCollisions:
    """Stem collisions raise loudly instead of overwriting artifacts."""

    @pytest.fixture
    def collide(self, monkeypatch):
        """Force every label onto one artifact file stem."""
        monkeypatch.setattr("repro.runner.store._slug", lambda label: "same")

    def test_path_for_detects_claim_conflict(self, tmp_path, collide):
        store = ArtifactStore(tmp_path)
        store.path_for("first")
        with pytest.raises(ArtifactCollisionError, match="rename one"):
            store.path_for("second")

    def test_save_refuses_cross_process_overwrite(self, tmp_path, collide):
        ArtifactStore(tmp_path).save("first", Scenario(tiny_config()).run())
        # a fresh store (another process) has no claim registry
        with pytest.raises(ArtifactCollisionError, match="refusing to overwrite"):
            ArtifactStore(tmp_path).save("second", Scenario(tiny_config()).run())

    def test_load_raises_on_label_mismatch(self, tmp_path, collide):
        config = tiny_config()
        ArtifactStore(tmp_path).save("first", Scenario(config).run())
        with pytest.raises(ArtifactCollisionError, match="collide"):
            ArtifactStore(tmp_path).load("second", config)

    def test_collision_is_not_a_value_error(self):
        # the tolerant load paths swallow ValueError (corrupt artifacts
        # are re-run); a collision must never ride that path
        assert not issubclass(ArtifactCollisionError, ValueError)
        assert issubclass(ArtifactCollisionError, RuntimeError)


class TestCampaignProgress:
    def test_eta_uses_executed_cells_only(self):
        clock = iter([0.0, 1.0, 2.0, 3.0]).__next__
        progress = CampaignProgress(total=4, workers=1, clock=clock)
        event = progress.event("a", "ok", "artifact", 0.0)
        assert event.eta is None  # cache hits say nothing about cost
        event = progress.event("b", "ok", "in-process", 2.0)
        assert event.eta == pytest.approx(2.0 * 2)  # 2 left at 2s each
        assert event.done == 2 and event.total == 4

    def test_eta_divides_by_workers(self):
        progress = CampaignProgress(total=5, workers=4)
        progress.event("a", "ok", "worker", 8.0)
        assert progress.eta() == pytest.approx(8.0 * 4 / 4)

    def test_eta_unskewed_by_resumed_cache_hits(self):
        """A resumed campaign's ~0s cache hits must not drag the ETA.

        90 of 100 cells resume from artifacts in ~0s; the two that
        execute cost 10s each.  The naive mean over all finished cells
        (~0.2s/cell) would predict ~2s for the remaining 8 cells; the
        executed-window estimate predicts the honest 80s.
        """
        progress = CampaignProgress(total=100, workers=1)
        for i in range(90):
            progress.event(f"cached{i}", "ok", "artifact", 0.0)
        assert progress.eta() is None  # nothing executed yet
        progress.event("run0", "ok", "in-process", 10.0)
        progress.event("run1", "ok", "in-process", 10.0)
        assert progress.eta() == pytest.approx(10.0 * 8)

    def test_eta_rounds_resumed_tail_up_to_one_wave(self):
        """Fewer pending cells than workers still costs one full wave."""
        progress = CampaignProgress(total=10, workers=4)
        for i in range(7):
            progress.event(f"cached{i}", "ok", "artifact", 0.0)
        progress.event("run", "ok", "worker", 6.0)
        # 2 cells remain on 4 workers: one wave, not 2/4 of a cell
        assert progress.eta() == pytest.approx(6.0)

    def test_eta_window_forgets_ancient_cells(self):
        """Only the last ETA_WINDOW executed cells feed the estimate."""
        progress = CampaignProgress(total=2 * ETA_WINDOW + 1, workers=1)
        progress.event("slow", "ok", "in-process", 100.0)
        for i in range(ETA_WINDOW):
            progress.event(f"fast{i}", "ok", "in-process", 1.0)
        remaining = progress.total - ETA_WINDOW - 1
        assert progress.eta() == pytest.approx(1.0 * remaining)

    def test_elapsed_tracks_the_clock(self):
        clock = iter([0.0, 2.5]).__next__
        progress = CampaignProgress(total=1, workers=1, clock=clock)
        assert progress.elapsed() == pytest.approx(2.5)

    def test_printer_emits_one_line_per_cell(self, capsys):
        import sys

        progress = CampaignProgress(total=1, workers=1, stream=sys.stderr)
        progress(progress.event("cell", "ok", "in-process", 0.5))
        err = capsys.readouterr().err
        assert "[1/1]" in err and "cell" in err


class TestCampaignResult:
    def test_pairs_raises_on_failure_with_labels(self):
        cells = [
            CampaignCell("good", "ok", None, None, 0.0, "in-process"),
            CampaignCell("bad", "failed", None, "Boom\nValueError: x", 0.0,
                         "worker"),
        ]
        campaign = CampaignResult(cells)
        assert not campaign.ok
        with pytest.raises(CampaignError) as excinfo:
            campaign.pairs()
        assert "bad" in str(excinfo.value)
        assert "ValueError: x" in str(excinfo.value)

    def test_get_by_label(self):
        cell = CampaignCell("a", "ok", None, None, 0.0, "in-process")
        assert CampaignResult([cell]).get("a") is cell
        with pytest.raises(KeyError):
            CampaignResult([cell]).get("b")


class TestRunCampaignInProcess:
    def test_duplicate_labels_rejected(self):
        grid = [("same", tiny_config()), ("same", tiny_config())]
        with pytest.raises(ValueError):
            run_campaign(grid, workers=1)

    def test_empty_grid(self):
        campaign = run_campaign([], workers=1)
        assert campaign.cells == [] and campaign.ok

    def test_order_preserved_and_events_fire(self):
        events = []
        grid = [(f"cell{i}", tiny_config(seed=3 + i)) for i in range(3)]
        campaign = run_campaign(grid, workers=1, progress=events.append)
        assert [c.label for c in campaign.cells] == ["cell0", "cell1", "cell2"]
        assert [c.source for c in campaign.cells] == ["in-process"] * 3
        assert len(events) == 3
        assert events[-1].done == 3 and events[-1].total == 3


class TestInProcessInterrupts:
    GRID = [(f"cell{i}", tiny_config(seed=3 + i)) for i in range(3)]

    def test_keyboard_interrupt_aborts_the_campaign(self, monkeypatch):
        monkeypatch.setattr(Scenario, "run", raising_run(KeyboardInterrupt))
        events = []
        with pytest.raises(KeyboardInterrupt):
            run_campaign(self.GRID, workers=1, progress=events.append)
        assert [e.label for e in events] == ["cell0"]

    def test_interrupt_closes_the_journal(self, monkeypatch, tmp_path):
        from repro.dashboard.journal import (
            JournalWriter,
            journal_path,
            read_journal,
        )

        closed = []
        real_close = JournalWriter.close

        def close(self):
            closed.append(self)
            real_close(self)

        monkeypatch.setattr(JournalWriter, "close", close)
        monkeypatch.setattr(Scenario, "run", raising_run(SystemExit))
        with pytest.raises(SystemExit):
            run_campaign(self.GRID, workers=1, artifact_dir=tmp_path)
        assert len(closed) == 1
        kinds = [e["kind"] for e in read_journal(journal_path(tmp_path))]
        assert kinds == ["campaign-start", "cell-start", "cell-finish",
                         "cell-start"]

    def test_other_exceptions_become_one_failed_cell(self, monkeypatch):
        monkeypatch.setattr(Scenario, "run", raising_run(RuntimeError))
        campaign = run_campaign(self.GRID, workers=1)
        assert [c.status for c in campaign.cells] == ["ok", "failed", "ok"]
        error = campaign.get("cell1").error
        assert "Traceback" in error
        assert "RuntimeError: raised inside the cell" in error


class TestCollectorOwnership:
    """The runner pauses the collector per cell and hands it back as it
    found it; each cell's simulation graph is gone before the next."""

    GRID = [(f"cell{i}", tiny_config(seed=3 + i)) for i in range(4)]

    @pytest.fixture(params=[True, False], ids=["gc-enabled", "gc-disabled"])
    def collector(self, request):
        was_enabled = gc.isenabled()
        (gc.enable if request.param else gc.disable)()
        yield request.param
        (gc.enable if was_enabled else gc.disable)()

    @pytest.mark.parametrize("raised", [None, RuntimeError, KeyboardInterrupt])
    def test_collector_state_restored(self, collector, raised, monkeypatch):
        if raised is not None:
            monkeypatch.setattr(Scenario, "run", raising_run(raised))
        try:
            run_campaign(self.GRID, workers=1)
        except KeyboardInterrupt:
            assert raised is KeyboardInterrupt
        assert gc.isenabled() == collector

    def test_graph_reclaimed_before_each_progress_event(self, monkeypatch):
        alive = weakref.WeakSet()
        real_init = Simulator.__init__

        def tracking_init(self, *args, **kwargs):
            real_init(self, *args, **kwargs)
            alive.add(self)

        monkeypatch.setattr(Simulator, "__init__", tracking_init)
        # cell1's Scenario assembles (building its Simulator), then
        # fails inside run()
        monkeypatch.setattr(Scenario, "run", raising_run(RuntimeError))
        reclaimed = []
        seen = []

        def on_event(event):
            reclaimed.append(len(alive) == 0)
            seen.append(event.status)

        campaign = run_campaign(self.GRID, workers=1, progress=on_event)
        assert seen == ["ok", "failed", "ok", "ok"]
        assert reclaimed == [True] * 4
        assert all(c.result.sites == [] for c in campaign.cells if c.result)
