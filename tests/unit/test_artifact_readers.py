"""Unit: one reader for a campaign directory, one shape for a cell.

Resume (``ArtifactStore.load``), ``ResultSet.from_artifacts``, the
``report`` subcommand and the dashboard's ``CampaignView`` all read a
campaign directory through ``repro.runner.store`` and build cells with
``repro.analysis.resultset.artifact_cell``.  These tests pin what that
buys: the same verdict about the same half-broken directory whoever
looks (resume re-runs, the view skips, ``report`` under a manifest
fails), each file read once, and the live page and the exported report
serving the same records.
"""

import gc
import json
import re
import shutil
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

from repro.analysis import AnalysisError, ResultSet, run_report
from repro.campaigns import CampaignSpec
from repro.core.experiment import RESULT_FORMAT
from repro.core.metrics import TX_RECORD_FIELDS
from repro.dashboard import JOURNAL_NAME, CampaignView
from repro.dashboard.page import render_report_html
from repro.runner import (
    MANIFEST_NAME,
    ArtifactCollisionError,
    ArtifactError,
    ArtifactStore,
    run_campaign,
)
from repro.runner.__main__ import main

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

SPEC = CampaignSpec(
    name="readers",
    description="three tiny centralized cells",
    kind="performance",
    label="c{clients}",
    template={"sites": 1, "cpus_per_site": 1, "transactions": 40},
    axes=[("clients", (5, 8, 10))],
)
LABELS = ["c5", "c8", "c10"]
VICTIM = "c8"
FOREIGN = "someone-else"


def run(root):
    return run_campaign(SPEC.expand(), artifact_dir=root, manifest=SPEC.manifest())


@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    root = tmp_path_factory.mktemp("readers") / "store"
    assert run(root).ok
    return root


# ----------------------------------------------------------------------
# (a) the malformed-artifact matrix
# ----------------------------------------------------------------------
def _rewrite(**changes):
    def edit(path):
        payload = json.loads(path.read_text())
        payload.update(changes)
        path.write_text(json.dumps(payload))

    return edit


def _drop_result(path):
    payload = json.loads(path.read_text())
    del payload["result"]
    path.write_text(json.dumps(payload))


def _edit_first_record(edit):
    """Damage one stored transaction row; the other rows stay good."""

    def apply(path):
        payload = json.loads(path.read_text())
        edit(payload["result"]["metrics"]["records"][0])
        path.write_text(json.dumps(payload))

    return apply


#: What is done to the victim cell's file.
CASES = {
    "truncated-json": lambda path: path.write_text(path.read_text()[:40]),
    "not-an-object": lambda path: path.write_text("[1, 2, 3]"),
    "no-result-key": _drop_result,
    "empty-result": _rewrite(result={}),
    "format-only-result": _rewrite(result={"format": RESULT_FORMAT}),
    "list-result": _rewrite(result=[]),
    "short-record-row": _edit_first_record(lambda row: row.pop()),
    "long-record-row": _edit_first_record(lambda row: row.append(0)),
    "text-in-time-column": _edit_first_record(
        lambda row: row.__setitem__(TX_RECORD_FIELDS.index("submit_time"), "x")
    ),
    "foreign-label": _rewrite(label=FOREIGN),
    "foreign-spec-hash": _rewrite(spec_hash="f" * 16),
}
#: Cases whose file is unusable to every consumer.
UNUSABLE = [name for name in CASES if not name.startswith("foreign")]


@pytest.fixture(params=list(CASES))
def broken(request, pristine, tmp_path):
    """``(case, root)``: a copy of the finished campaign with the victim
    cell's file damaged, journal removed so the view shows what the
    artifacts alone say."""
    root = tmp_path / "store"
    shutil.copytree(pristine, root)
    (root / JOURNAL_NAME).unlink()
    CASES[request.param](ArtifactStore(root).path_for(VICTIM))
    return request.param, root


def test_resume_reruns_what_it_cannot_use(broken):
    case, root = broken
    if case == "foreign-label":
        # never downgraded to a re-run: that would overwrite the file
        with pytest.raises(ArtifactCollisionError, match="collide"):
            run(root)
        return
    campaign = run(root)
    assert campaign.ok
    sources = {cell.label: cell.source for cell in campaign.cells}
    # provenance never affects resume-matching; everything else re-runs
    rerun = VICTIM if case in UNUSABLE else None
    assert sources == {
        label: "in-process" if label == rerun else "artifact" for label in LABELS
    }
    if rerun:  # and the re-run repaired the file
        assert ResultSet.from_artifacts(root).labels() == LABELS


def test_resultset_under_a_manifest_fails_loudly(broken):
    case, root = broken
    victim = ArtifactStore(root).path_for(VICTIM)
    if case in UNUSABLE:
        with pytest.raises(ArtifactError, match=re.escape(str(victim))):
            ResultSet.from_artifacts(root)
    elif case == "foreign-label":
        with pytest.raises(AnalysisError, match="collide") as info:
            ResultSet.from_artifacts(root)
        assert FOREIGN in str(info.value) and repr(VICTIM) in str(info.value)
    else:
        with pytest.raises(AnalysisError, match="different campaign"):
            ResultSet.from_artifacts(root)


def _unmanifested_labels(case):
    if case in UNUSABLE:
        return sorted(set(LABELS) - {VICTIM})
    if case == "foreign-label":  # listed as what the file says it is
        return sorted(set(LABELS) - {VICTIM} | {FOREIGN})
    return sorted(LABELS)  # no manifest, no spec hash to disagree with


def test_resultset_without_a_manifest_skips(broken):
    case, root = broken
    (root / MANIFEST_NAME).unlink()
    rs = ResultSet.from_artifacts(root)
    assert sorted(rs.labels()) == _unmanifested_labels(case)


@pytest.mark.parametrize("manifest", [True, False])
def test_report_command_never_shows_a_traceback(broken, manifest, capsys):
    case, root = broken
    if not manifest:
        (root / MANIFEST_NAME).unlink()
    code = main(["report", str(root)])  # an uncaught exception fails here
    out, err = capsys.readouterr()
    if manifest:
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "Traceback" not in err
        if case in UNUSABLE:
            assert str(ArtifactStore(root).path_for(VICTIM)) in err
    else:
        assert code == 0 and err == ""
        listed = [line.split()[0] for line in out.splitlines()[2:]]
        assert sorted(listed) == _unmanifested_labels(case)


def test_view_skips_what_it_cannot_use(broken):
    case, root = broken
    view = CampaignView(root)
    cells = {c["label"]: c for c in view.cells_payload()["cells"]}
    points = {
        p["label"]: p["value"]
        for p in view.metrics_payload("p99_latency_ms")["points"]
    }
    served = {label for label, cell in cells.items() if cell["status"] == "ok"}
    assert served == {label for label, value in points.items() if value is not None}
    if case == "foreign-spec-hash":
        assert served == set(LABELS)
        return
    # the manifest still expects the victim; nothing serves it
    assert cells[VICTIM]["status"] == "pending"
    assert cells[VICTIM]["metrics"] is None and points[VICTIM] is None
    if case == "foreign-label":  # cells appear as seen: under *their* label
        assert served == set(LABELS) - {VICTIM} | {FOREIGN}
    else:
        assert served == set(LABELS) - {VICTIM}


def test_a_malformed_sample_row_is_the_same_artifact_error(pristine):
    path = ArtifactStore(pristine).path_for(VICTIM)
    for row in ([1.0, 0.5, 0.1, 0.2, 10, 0], [1.0, 0.5, 0.1, 0.2]):
        payload = ArtifactStore.read_cell(path)
        payload["result"]["samples"]["samples"].append(row)
        with pytest.raises(ArtifactError, match=re.escape(str(path))):
            ArtifactStore.decode(path, payload)


# ----------------------------------------------------------------------
# (b) the incremental contract
# ----------------------------------------------------------------------
@pytest.fixture
def reads(monkeypatch):
    """File names handed to the store's envelope reader, in call order."""
    seen = []
    real = ArtifactStore.read_cell

    def spy(path):
        seen.append(Path(path).name)
        return real(path)

    monkeypatch.setattr(ArtifactStore, "read_cell", staticmethod(spy))
    return seen


def test_view_reads_each_artifact_once_until_it_changes(pristine, tmp_path, reads):
    root = tmp_path / "store"
    shutil.copytree(pristine, root)
    view = CampaignView(root)
    view.refresh()
    assert sorted(reads) == sorted(p.name for p, _, _ in ArtifactStore(root).list_cells())
    assert len(reads) == len(LABELS)
    del reads[:]
    view.refresh()
    assert reads == []
    path = ArtifactStore(root).path_for(VICTIM)
    path.write_text(json.dumps(json.loads(path.read_text()), indent=1))
    view.refresh()
    assert reads == [path.name]
    # an unusable file is not re-read on every poll either
    path.write_text("{not json")
    view.refresh()
    view.refresh()
    assert reads == [path.name, path.name]


@pytest.mark.parametrize("manifest", [True, False])
def test_resultset_reads_each_cell_once(pristine, tmp_path, reads, manifest):
    root = tmp_path / "store"
    shutil.copytree(pristine, root)
    if not manifest:
        (root / MANIFEST_NAME).unlink()
    ResultSet.from_artifacts(root)
    assert len(reads) == len(set(reads)) == len(LABELS)


def test_view_keeps_values_not_results(pristine, monkeypatch):
    """``serve`` on a full-scale campaign depends on it: a refresh
    extracts numbers and drops every decoded result."""
    decoded = []
    real = ArtifactStore.decode

    def spy(path, payload):
        result = real(path, payload)
        decoded.append(weakref.ref(result))
        return result

    monkeypatch.setattr(ArtifactStore, "decode", staticmethod(spy))
    view = CampaignView(pristine)
    view.refresh()
    view.metrics_payload("p99_latency_ms")
    gc.collect()
    assert len(decoded) == 2 * len(LABELS)
    assert all(ref() is None for ref in decoded)


# ----------------------------------------------------------------------
# (c) structural guard: nobody grows a second reader
# ----------------------------------------------------------------------
def test_only_the_store_decodes_artifacts():
    callers = {
        str(path.relative_to(SRC))
        for path in SRC.rglob("*.py")
        if "ScenarioResult.from_dict(" in path.read_text()
    }
    assert callers == {"runner/store.py", "runner/runner.py"}
    # the runner's one call rebuilds a worker's payload, not a file
    runner = (SRC / "runner" / "runner.py").read_text()
    assert runner.count("ScenarioResult.from_dict(") == 1
    body = runner.split("def _cell_from(", 1)[1].split("\ndef ", 1)[0]
    assert "ScenarioResult.from_dict(" in body
    for module in ("analysis/resultset.py", "dashboard/state.py"):
        assert "json.loads" not in (SRC / module).read_text(), module


# ----------------------------------------------------------------------
# (d) the live page and the report serve the same records
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "argv",
    [
        ["fig5", "--set", "clients=100", "--transactions", "40"],
        ["safety-monitored", "--set", "fault=random-loss", "--transactions", "120"],
    ],
    ids=["fig5", "safety-monitored"],
)
def test_api_cells_axes_equal_report_json_axes(argv, tmp_path, capsys):
    root = tmp_path / "store"
    assert main(["run", *argv, "--artifact-dir", str(root), "--quiet"]) == 0
    capsys.readouterr()
    report = {
        cell["label"]: cell["axes"]
        for cell in json.loads(run_report(str(root), fmt="json"))["cells"]
    }
    live = {
        cell["label"]: cell["axes"]
        for cell in json.loads(json.dumps(CampaignView(root).cells_payload()))["cells"]
    }
    assert live == report
    for axes in live.values():  # spec axes, not only config fields
        assert "cpus_per_site" in axes
        assert ("system" in axes) or ("fault" in axes and "monitors" in axes)


def test_html_report_agrees_with_the_view(pristine, tmp_path):
    """One cell missing, one violating: same counts, same feed."""
    root = tmp_path / "store"
    shutil.copytree(pristine, root)
    (root / JOURNAL_NAME).unlink()
    store = ArtifactStore(root)
    store.path_for("c5").unlink()
    path = store.path_for("c10")
    payload = json.loads(path.read_text())
    payload["result"]["violations"] = [
        {"monitor": "one-copy-sr", "site": "site0", "sim_time": 1.5,
         "detail": "seeded for the test", "seq": 7}
    ]
    path.write_text(json.dumps(payload))

    html = render_report_html(ResultSet.from_artifacts(root))
    embedded = json.loads(
        re.search(r"const EMBEDDED = (.*);\n", html).group(1).replace("<\\/", "</")
    )
    view = CampaignView(root)
    campaign = view.campaign_payload()
    for key in ("total", "done", "counts", "violations"):
        assert embedded["campaign"][key] == campaign[key], key
    assert campaign["counts"]["pending"] == 1 and campaign["violations"] == 1
    feed = view.violations_payload()
    assert embedded["violations"]["violations"] == feed["violations"]
    assert embedded["violations"]["total"] == feed["total"] == 1
    assert feed["violations"][0]["label"] == "c10"
    live = {c["label"]: c for c in view.cells_payload()["cells"]}
    assert embedded["missing"] == ["c5"] and live["c5"]["status"] == "pending"
    for cell in embedded["cells"]["cells"]:
        assert cell == {**live[cell["label"]], "source": "artifact"}


# ----------------------------------------------------------------------
# (e) building the command line stays cheap
# ----------------------------------------------------------------------
def test_list_does_not_import_the_http_server():
    code = (
        "import runpy, sys\n"
        "sys.argv = ['repro.runner', 'list']\n"
        "try:\n"
        "    runpy.run_module('repro.runner', run_name='__main__')\n"
        "except SystemExit as exit:\n"
        "    assert exit.code == 0, exit.code\n"
        "assert 'repro.analysis.report' in sys.modules\n"
        "assert 'http.server' not in sys.modules\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={"PYTHONPATH": str(SRC.parent), "PATH": ""},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
