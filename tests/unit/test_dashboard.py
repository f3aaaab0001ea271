"""Unit tests for the dashboard: view model, HTTP API, HTML report."""

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.analysis.metrics import HEADLINE_METRICS
from repro.analysis.resultset import ResultSet
from repro.core.experiment import ScenarioConfig
from repro.dashboard import journal_path
from repro.dashboard.journal import JournalWriter
from repro.dashboard.page import render_live_html, render_report_html
from repro.dashboard.server import ENDPOINTS, DashboardServer
from repro.dashboard.state import CELL_STATUSES, DASHBOARD_SCHEMA, CampaignView
from repro.runner import ArtifactStore, run_campaign
from repro.runner.__main__ import main


def tiny_config(seed=3, **overrides):
    overrides.setdefault("sites", 1)
    overrides.setdefault("clients", 10)
    overrides.setdefault("transactions", 40)
    return ScenarioConfig(seed=seed, **overrides)


@pytest.fixture(scope="module")
def campaign_dir(tmp_path_factory):
    """A small finished campaign with journal and artifacts."""
    root = tmp_path_factory.mktemp("campaign")
    cells = [(f"cell{i}", tiny_config(seed=i)) for i in range(3)]
    result = run_campaign(cells, artifact_dir=root)
    assert result.ok
    return root


class TestCampaignView:
    def test_statuses_and_metrics(self, campaign_dir):
        view = CampaignView(campaign_dir)
        payload = view.cells_payload()
        assert payload["schema"] == DASHBOARD_SCHEMA
        assert [c["label"] for c in payload["cells"]] == [
            "cell0", "cell1", "cell2",
        ]
        for cell in payload["cells"]:
            assert cell["status"] == "ok"
            assert cell["source"] == "in-process"
            assert isinstance(cell["worker"], int)
            assert set(HEADLINE_METRICS) <= set(cell["metrics"])
            assert cell["axes"]["sites"] == 1

    def test_campaign_payload_counts(self, campaign_dir):
        payload = CampaignView(campaign_dir).campaign_payload()
        assert payload["total"] == 3
        assert payload["done"] == 3
        assert payload["finished"] is True
        assert payload["counts"]["ok"] == 3
        assert payload["journal"]["events"] > 0
        assert payload["journal"]["skipped"] == 0

    def test_metrics_payload(self, campaign_dir):
        payload = CampaignView(campaign_dir).metrics_payload("throughput_tpm")
        assert [p["label"] for p in payload["points"]] == [
            "cell0", "cell1", "cell2",
        ]
        assert all(p["value"] > 0 for p in payload["points"])

    def test_unknown_metric_raises(self, campaign_dir):
        with pytest.raises(KeyError, match="unknown metric"):
            CampaignView(campaign_dir).metrics_payload("nope")

    def test_events_since(self, campaign_dir):
        view = CampaignView(campaign_dir)
        everything = view.events_payload(0)
        assert everything["events"][0]["kind"] == "campaign-start"
        last = everything["last_seq"]
        assert view.events_payload(last)["events"] == []

    def test_journal_only_liveness(self, tmp_path):
        """Cells report running/failed from the journal alone."""
        with JournalWriter(journal_path(tmp_path)) as writer:
            writer.campaign_started("x", total=2, workers=1)
            writer.cell_started("a")
            writer.cell_finished("a", "failed", "in-process", 0.5,
                                 done=1, total=2)
            writer.cell_started("b")
        view = CampaignView(tmp_path)
        cells = {c["label"]: c["status"]
                 for c in view.cells_payload()["cells"]}
        assert cells == {"a": "failed", "b": "running"}
        campaign = view.campaign_payload()
        assert campaign["counts"]["failed"] == 1
        assert campaign["counts"]["running"] == 1
        assert campaign["finished"] is False

    def test_artifacts_without_journal(self, campaign_dir, tmp_path):
        """A journal-less directory still serves cells and metrics."""
        clone = tmp_path / "nojournal"
        clone.mkdir()
        for path in campaign_dir.glob("*.json"):
            (clone / path.name).write_bytes(path.read_bytes())
        view = CampaignView(clone)
        cells = view.cells_payload()["cells"]
        assert len(cells) == 3
        assert all(c["status"] == "ok" for c in cells)
        assert view.campaign_payload()["finished"] is True

    def test_artifact_verdict_is_the_status(self, tmp_path):
        """A stored result's verdict is its cell's status — whatever the
        journal said when it ran, on resume, and with no journal."""
        cells = [("bad", tiny_config(seed=1))]
        run_campaign(cells, artifact_dir=tmp_path)
        path = ArtifactStore(tmp_path).path_for("bad")
        envelope = json.loads(path.read_text())
        envelope["result"]["violations"].append(
            {"monitor": "one-copy-sr", "site": "site0", "sim_time": 1.0,
             "detail": "seeded", "seq": 1}
        )
        path.write_text(json.dumps(envelope))

        def statuses(root):
            view = CampaignView(root)
            campaign = view.campaign_payload()
            assert campaign["counts"]["violated"] == campaign["done"] == 1
            return [c["status"] for c in view.cells_payload()["cells"]]

        assert statuses(tmp_path) == ["violated"]  # journal said "ok"
        run_campaign(cells, artifact_dir=tmp_path)  # resumes it
        assert statuses(tmp_path) == ["violated"]
        journal_path(tmp_path).unlink()
        assert statuses(tmp_path) == ["violated"]

    def test_violations_feed(self, tmp_path):
        """Monitored cells flush tagged violations through the view."""
        # seed a synthetic violation through the journal and an
        # artifact-backed clean cell side by side
        result = run_campaign(
            [("clean", tiny_config(seed=1, monitors=["one-copy-sr"]))],
            artifact_dir=tmp_path,
        )
        assert result.ok
        payload = CampaignView(tmp_path).violations_payload()
        assert payload["schema"] == DASHBOARD_SCHEMA
        assert payload["total"] == 0  # healthy protocol: no violations


@pytest.fixture(scope="module")
def server(campaign_dir):
    srv = DashboardServer(campaign_dir, port=0)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    yield srv
    srv.shutdown()
    srv.server_close()


def get(server, path, expect=200):
    try:
        with urllib.request.urlopen(server.url.rstrip("/") + path) as res:
            return res.status, json.loads(res.read())
    except urllib.error.HTTPError as exc:
        body = json.loads(exc.read())
        assert exc.code == expect
        return exc.code, body


class TestServer:
    def test_every_endpoint_answers(self, server):
        for endpoint in ENDPOINTS:
            path = endpoint
            if endpoint == "/api/metrics":
                path += "?name=throughput_tpm"
            status, payload = get(server, path)
            assert status == 200, endpoint
            assert payload["schema"] == DASHBOARD_SCHEMA, endpoint

    def test_campaign_golden(self, server):
        _, payload = get(server, "/api/campaign")
        assert payload["total"] == 3
        assert payload["counts"]["ok"] == 3
        assert payload["finished"] is True

    def test_cells_golden(self, server):
        _, payload = get(server, "/api/cells")
        assert len(payload["cells"]) == 3
        assert payload["metrics"] == list(HEADLINE_METRICS)
        assert all(c["metrics"]["throughput_tpm"] > 0
                   for c in payload["cells"])

    def test_events_since_param(self, server):
        _, everything = get(server, "/api/events?since=0")
        last = everything["last_seq"]
        assert last > 0
        _, tail = get(server, f"/api/events?since={last}")
        assert tail["events"] == []

    def test_bad_requests(self, server):
        status, payload = get(server, "/api/metrics?name=bogus", expect=400)
        assert status == 400 and "unknown metric" in payload["error"]
        status, payload = get(server, "/api/metrics", expect=400)
        assert status == 400
        status, payload = get(server, "/api/events?since=x", expect=400)
        assert status == 400
        status, payload = get(server, "/api/nope", expect=404)
        assert status == 404 and sorted(ENDPOINTS) == payload["endpoints"]

    def test_index_serves_live_page(self, server):
        with urllib.request.urlopen(server.url) as res:
            html = res.read().decode()
        assert res.headers["Content-Type"].startswith("text/html")
        assert 'const MODE = "live"' in html
        for endpoint in ENDPOINTS:
            assert endpoint in html  # the page polls the documented API


class TestHtmlReport:
    def test_byte_deterministic(self, campaign_dir):
        rs1 = ResultSet.from_artifacts(campaign_dir)
        rs2 = ResultSet.from_artifacts(campaign_dir)
        assert render_report_html(rs1) == render_report_html(rs2)

    def test_embeds_data_and_needs_no_server(self, campaign_dir):
        html = render_report_html(ResultSet.from_artifacts(campaign_dir))
        assert 'const MODE = "report"' in html
        assert "cell0" in html
        assert "fetch(" in html  # live path present but inert in report mode
        assert "<script" in html and "</script>" in html

    def test_live_page_has_no_embedded_data(self):
        html = render_live_html()
        assert "const EMBEDDED = null" in html

    @pytest.mark.parametrize("status", CELL_STATUSES)
    def test_every_status_has_a_legend_entry(self, status):
        """Colour never carries a status alone: each ships an icon and a
        label in the legend."""
        assert f'  ["{status}", "' in render_live_html()

    def test_cli_report_html(self, campaign_dir, tmp_path, capsys):
        out1 = tmp_path / "r1.html"
        out2 = tmp_path / "r2.html"
        assert main(["report", str(campaign_dir), "--html", "-o", str(out1)]) == 0
        assert main(["report", str(campaign_dir), "--format", "html",
                     "-o", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert b"<!DOCTYPE html>" in out1.read_bytes()

    def test_cli_html_rejects_view_selectors(self, campaign_dir, capsys):
        assert main(["report", str(campaign_dir), "--html",
                     "--figure", "fig5a"]) == 2
        assert "cannot be combined" in capsys.readouterr().err
