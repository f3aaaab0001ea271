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
import os
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
from repro.core.faults import FaultPlan
from repro.core.metrics import TX_RECORD_FIELDS
from repro.core.safety import CommitLog
from repro.dashboard import JOURNAL_NAME, CampaignView
from repro.gcs import RecoveryEvent
from repro.monitors import InvariantViolation
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


def _edit_result(edit):
    def apply(path):
        payload = json.loads(path.read_text())
        edit(payload["result"])
        path.write_text(json.dumps(payload))

    return apply


def _nest_past_the_recursion_limit(path):
    depth = 2 * sys.getrecursionlimit()  # well-formed JSON, too deep to parse
    path.write_text("[" * depth + "]" * depth)


#: An integer JSON carries exactly and a float cannot hold.
HUGE = 10**400


def _edit_columns(edit):
    """Damage the stored transaction columns; the other parts stay good."""

    def apply(path):
        payload = json.loads(path.read_text())
        edit(payload["result"]["metrics"]["columns"])
        path.write_text(json.dumps(payload))

    return apply


def _as_older_format(version):
    """The cell as a ``repro.scenario_result/<version>`` store wrote it:
    that format tag and each commit log as ``[commit_seq, tx_id]`` pairs
    under ``entries``.  A ``/1`` or ``/2`` store also wrote the
    transaction log as rows under ``records``, and a ``/1`` store a null
    ``profiles`` slot in the stored config and the config again at the
    top of the envelope."""

    def rewrite(path):
        payload = json.loads(path.read_text())
        result = payload["result"]
        metrics = result["metrics"]
        result["format"] = f"repro.scenario_result/{version}"
        for log in result["commit_logs"]:
            pairs = zip(log.pop("commit_seq"), log.pop("tx_id"))
            log["entries"] = list(map(list, pairs))
        if version < 3:
            metrics["records"] = list(map(list, zip(*metrics.pop("columns"))))
        if version == 1:
            result["config"]["profiles"] = None
            payload["config"] = result["config"]
        path.write_text(json.dumps(payload))

    return rewrite


def _new_fault_plan(config):
    config["sites"] = 2
    config["faults"] = {"1": FaultPlan(actions=((20.0, "crash"),)).to_dict()}
    return config["faults"]["1"]


#: Where an unknown key is slipped into a stored config, and which one.
UNKNOWN_KEYS = {
    "ScenarioConfig": (lambda config: config, "profiles"),
    "GcsConfig": (lambda config: config["gcs"], "nack_batch"),
    "FaultPlan": (_new_fault_plan, "crash_at"),
}


def _add_unknown_key(owner):
    where, key = UNKNOWN_KEYS[owner]
    return _edit_result(lambda result: where(result["config"]).__setitem__(key, None))


#: A stored record slipped into a result with one of its keys missing:
#: owner -> (result list, the record, the key dropped).  A decoder that
#: filled the key with its default would report on a damaged file (a
#: rejoin without ``live_at`` reads as one that never went live).
MISSING_KEYS = {
    "RecoveryEvent": (
        "recovery",
        RecoveryEvent(site=0, started_at=1.0, view_installed_at=2.0, live_at=3.0),
        "live_at",
    ),
    "InvariantViolation": (
        "violations",
        InvariantViolation("one-copy-sr", "site0", 1.0, "synthetic", 7),
        "seq",
    ),
}


def _add_record_without_key(owner):
    where, record, key = MISSING_KEYS[owner]
    data = record.to_dict()
    del data[key]
    return _edit_result(lambda result: result[where].append(data))


def _add_record(where, **changes):
    """Slip the ``MISSING_KEYS`` record stored under ``where`` into a
    result, with ``changes`` made to its stored form."""
    (record,) = (record for key, record, _ in MISSING_KEYS.values() if key == where)
    return lambda result: result[where].append({**record.to_dict(), **changes})


def _add_commit_log(**changes):
    """The matrix's cells are centralized and keep no commit log: slip
    one in, with ``changes`` made to its stored form."""
    log = CommitLog("site0", [1], [1]).to_dict()
    return lambda result: result["commit_logs"].append({**log, **changes})


#: A stored log or record in another form than the one its decoder
#: reads, and what the decode error names.
LOG_FORMS = {
    "no-fields-header": (
        lambda result: result["metrics"].pop("fields"), "KeyError: 'fields'"
    ),
    "unknown-MetricsCollector-key": (
        lambda result: result["metrics"].__setitem__("records", []),
        "unknown MetricsCollector keys ['records']",
    ),
    "unknown-SampleSeries-key": (
        lambda result: result["samples"].__setitem__("bucket_seconds", 1.0),
        "unknown SampleSeries keys ['bucket_seconds']",
    ),
    "unknown-CommitLog-key": (
        _add_commit_log(digest=None), "unknown CommitLog keys ['digest']"
    ),
    "unknown-ScenarioResult-key": (
        lambda result: result.__setitem__("profiles", None),
        "unknown ScenarioResult keys ['profiles']",
    ),
    "unknown-capture-key": (
        lambda result: result["capture"].__setitem__("entries", []),
        "unknown PacketCapture keys ['entries']",
    ),
    # Values of the wrong type are refused, never coerced: ``bool("false")``
    # would turn a site's §5.3 check from equality into prefix.
    "text-crashed-flag": (
        _add_commit_log(crashed="false"), "CommitLog crashed must be bool"
    ),
    "int-commit-log-site": (
        _add_commit_log(site=7), "CommitLog site must be str, not 7"
    ),
    # The commit log is two int columns of one length, checked by column.
    "ragged-commit-log": (
        _add_commit_log(commit_seq=[1, 2]), "site0: commit log needs two int columns"
    ),
    "bool-in-commit-log": (
        _add_commit_log(tx_id=[True]), "site0: commit log needs two int columns"
    ),
    "float-in-commit-log": (
        _add_commit_log(commit_seq=[1.0]), "site0: commit log needs two int columns"
    ),
    # A ``repro.scenario_result/3`` commit log: the pairs are not read.
    "commit-log-as-pairs": (
        lambda result: result["commit_logs"].append(
            {"site": "site0", "entries": [[1, 1]], "crashed": False}
        ),
        "unknown CommitLog keys ['entries']",
    ),
    "text-sim-time": (
        lambda result: result.__setitem__("sim_time", "38.0"),
        "sim_time must be float, not '38.0'",
    ),
    "text-capture-total": (
        lambda result: result["capture"].__setitem__("total_bytes", "512"),
        "capture total_bytes must be int, not '512'",
    ),
    "fractional-site-count": (
        lambda result: result["site_stats"].__setitem__("site0", {"committed": 2.9}),
        "site0 committed must be int, not 2.9",
    ),
    "text-violation-seq": (
        _add_record("violations", seq="7"),
        "InvariantViolation seq must be int, not '7'",
    ),
    "text-rejoin-instant": (
        _add_record("recovery", live_at="3.0"),
        "RecoveryEvent live_at must be float, not '3.0'",
    ),
}


#: What is done to the victim cell's file.
CASES = {
    "truncated-json": lambda path: path.write_text(path.read_text()[:40]),
    "not-an-object": lambda path: path.write_text("[1, 2, 3]"),
    "no-result-key": _drop_result,
    "empty-result": _rewrite(result={}),
    "format-only-result": _rewrite(result={"format": RESULT_FORMAT}),
    "list-result": _rewrite(result=[]),
    "missing-column": _edit_columns(lambda columns: columns.pop()),
    "extra-column": _edit_columns(lambda columns: columns.append(columns[0])),
    "text-in-time-column": _edit_columns(
        lambda columns: columns[TX_RECORD_FIELDS.index("submit_time")].__setitem__(
            0, "x"
        )
    ),
    "ragged-columns": _edit_columns(lambda columns: columns[-1].pop()),
    "nested-past-the-recursion-limit": _nest_past_the_recursion_limit,
    "sim-time-past-float-range": _edit_result(
        lambda result: result.__setitem__("sim_time", HUGE)
    ),
    "sample-interval-past-float-range": _edit_result(
        lambda result: result["samples"].__setitem__("interval", HUGE)
    ),
    "format-1": _as_older_format(1),
    "format-2": _as_older_format(2),
    "format-3": _as_older_format(3),
    **{f"unknown-{owner}-key": _add_unknown_key(owner) for owner in UNKNOWN_KEYS},
    **{
        f"{owner}-without-{MISSING_KEYS[owner][2]}": _add_record_without_key(owner)
        for owner in MISSING_KEYS
    },
    **{name: _edit_result(edit) for name, (edit, _) in LOG_FORMS.items()},
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


@pytest.mark.parametrize("owner", list(UNKNOWN_KEYS))
def test_an_unknown_config_key_is_an_artifact_error(pristine, owner):
    path = ArtifactStore(pristine).path_for(VICTIM)
    payload = ArtifactStore.read_cell(path)
    where, key = UNKNOWN_KEYS[owner]
    where(payload["result"]["config"])[key] = None
    with pytest.raises(ArtifactError, match=re.escape(str(path))) as info:
        ArtifactStore.decode(path, payload)
    assert f"unknown {owner} keys ['{key}']" in str(info.value)


@pytest.mark.parametrize("owner", list(MISSING_KEYS))
def test_a_record_missing_a_key_is_an_artifact_error(pristine, tmp_path, owner):
    path = tmp_path / "cell.json"
    shutil.copy(ArtifactStore(pristine).path_for(VICTIM), path)
    _add_record_without_key(owner)(path)
    with pytest.raises(ArtifactError, match=re.escape(str(path))) as info:
        ArtifactStore.decode(path, ArtifactStore.read_cell(path))
    assert f"KeyError: '{MISSING_KEYS[owner][2]}'" in str(info.value)


@pytest.mark.parametrize("form", list(LOG_FORMS))
def test_a_log_in_another_form_is_an_artifact_error(pristine, form):
    path = ArtifactStore(pristine).path_for(VICTIM)
    payload = ArtifactStore.read_cell(path)
    edit, message = LOG_FORMS[form]
    edit(payload["result"])
    with pytest.raises(ArtifactError, match=re.escape(str(path))) as info:
        ArtifactStore.decode(path, payload)
    assert message in str(info.value)


@pytest.mark.parametrize("version", [1, 2, 3])
def test_an_older_format_directory_reruns_every_cell(
    pristine, tmp_path, capsys, version
):
    """Resume re-runs every cell of a ``/1``, ``/2`` or ``/3`` directory;
    ``report`` on it fails and names the first cell instead of showing a
    traceback."""
    root = tmp_path / "store"
    shutil.copytree(pristine, root)
    store = ArtifactStore(root)
    for label in LABELS:
        _as_older_format(version)(store.path_for(label))
    first = store.path_for(LABELS[0])
    with pytest.raises(ArtifactError, match=re.escape(str(first))):
        ResultSet.from_artifacts(root)
    assert main(["report", str(root)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" not in err
    assert err.startswith(f"error: {first}: ")
    campaign = run(root)
    assert campaign.ok
    assert [cell.source for cell in campaign.cells] == ["in-process"] * len(LABELS)
    assert ResultSet.from_artifacts(root).labels() == LABELS


def test_a_format_3_replicated_directory_reruns_its_cells(tmp_path):
    """The matrix's cells keep no commit log; a replicated ``/3`` cell
    stores its logs as pairs, and resume re-runs it into columns."""
    spec = CampaignSpec(
        name="pairs",
        description="one replicated cell",
        kind="performance",
        label="c{clients}",
        template={"sites": 3, "protocol": "dbsm", "transactions": 40},
        axes=[("clients", (10,))],
    )
    root = tmp_path / "store"
    assert run_campaign(spec.expand(), artifact_dir=root).ok
    path = ArtifactStore(root).path_for("c10")
    _as_older_format(3)(path)
    (log, *_) = json.loads(path.read_text())["result"]["commit_logs"]
    assert sorted(log) == ["crashed", "entries", "site"] and log["entries"]
    campaign = run_campaign(spec.expand(), artifact_dir=root)
    assert [cell.source for cell in campaign.cells] == ["in-process"]
    (log, *_) = json.loads(path.read_text())["result"]["commit_logs"]
    assert sorted(log) == ["commit_seq", "crashed", "site", "tx_id"]


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
        env={
            "PYTHONPATH": str(SRC.parent),
            "PATH": "",
            # the child writes bytecode into the checkout only where
            # this process would
            **{k: v for k, v in os.environ.items() if k == "PYTHONDONTWRITEBYTECODE"},
        },
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
