"""Unit tests for the events.jsonl journal: writer, reader, recovery."""

import json

import pytest

from repro.dashboard.journal import (
    JOURNAL_NAME,
    JOURNAL_VERSION,
    JournalReader,
    JournalWriter,
    journal_path,
    read_journal,
)


def fake_clock():
    state = {"t": 100.0}

    def clock():
        state["t"] += 1.0
        return state["t"]

    return clock


class TestWriter:
    def test_round_trip(self, tmp_path):
        path = journal_path(tmp_path)
        assert path.name == JOURNAL_NAME
        with JournalWriter(path, clock=fake_clock()) as writer:
            writer.campaign_started("smoke", total=2, workers=1, spec_hash="abc")
            writer.cell_started("a")
            writer.cell_finished(
                "a", "ok", "in-process", 1.25, worker=123,
                done=1, total=2, eta=1.3, elapsed=1.25, violations=0,
            )
            writer.campaign_finished(ok=1, failed=1, elapsed=2.5)
        events = read_journal(path)
        assert [e["kind"] for e in events] == [
            "campaign-start", "cell-start", "cell-finish", "campaign-end",
        ]
        assert [e["seq"] for e in events] == [1, 2, 3, 4]
        assert all(e["v"] == JOURNAL_VERSION for e in events)
        finish = events[2]
        assert finish["label"] == "a"
        assert finish["worker"] == 123
        assert finish["duration"] == 1.25
        assert events[3]["ok"] == 1 and events[3]["failed"] == 1

    def test_seq_resumes_from_existing_file(self, tmp_path):
        path = journal_path(tmp_path)
        with JournalWriter(path) as writer:
            writer.cell_started("a")
            writer.cell_started("b")
        with JournalWriter(path) as writer:
            writer.cell_started("c")
        assert [e["seq"] for e in read_journal(path)] == [1, 2, 3]

    def test_violation_event_uses_tagged_payload(self, tmp_path):
        from repro.monitors import InvariantViolation

        violation = InvariantViolation("log-prefix", "site1", 2.0, "boom", 7)
        path = journal_path(tmp_path)
        with JournalWriter(path) as writer:
            writer.violation("cell-x", violation)
        (event,) = read_journal(path)
        assert event["kind"] == "violation"
        assert event["label"] == "cell-x"
        assert event["violation"] == {**violation.to_dict(), "label": "cell-x"}

    def test_since_filter(self, tmp_path):
        path = journal_path(tmp_path)
        with JournalWriter(path) as writer:
            for label in "abc":
                writer.cell_started(label)
        assert [e["label"] for e in read_journal(path, since=2)] == ["c"]


class TestReader:
    def test_missing_file_is_empty(self, tmp_path):
        assert read_journal(tmp_path / "nope.jsonl") == []
        assert JournalReader(tmp_path / "nope.jsonl").poll() == []

    def test_incremental_poll(self, tmp_path):
        path = journal_path(tmp_path)
        reader = JournalReader(path)
        writer = JournalWriter(path)
        writer.cell_started("a")
        assert [e["label"] for e in reader.poll()] == ["a"]
        assert reader.poll() == []
        writer.cell_started("b")
        assert [e["label"] for e in reader.poll()] == ["b"]
        assert reader.last_seq == 2
        writer.close()

    def test_truncated_final_line_left_for_next_poll(self, tmp_path):
        path = journal_path(tmp_path)
        with JournalWriter(path) as writer:
            writer.cell_started("a")
        complete = path.read_bytes()
        partial = json.dumps(
            {"v": JOURNAL_VERSION, "seq": 2, "kind": "cell-start", "label": "b"}
        )
        path.write_bytes(complete + partial[:10].encode())
        reader = JournalReader(path)
        assert [e["label"] for e in reader.poll()] == ["a"]
        assert reader.skipped == 0  # a partial line is pending, not corrupt
        # the writer finishes the line: the next poll picks it up whole
        path.write_bytes(complete + partial.encode() + b"\n")
        assert [e["label"] for e in reader.poll()] == ["b"]

    def test_corrupt_and_wrong_version_lines_skipped(self, tmp_path):
        path = journal_path(tmp_path)
        good = {"v": JOURNAL_VERSION, "seq": 1, "kind": "cell-start", "label": "a"}
        lines = [
            json.dumps(good),
            "{not json",
            json.dumps({"v": 999, "seq": 2, "kind": "cell-start"}),
            json.dumps({"v": JOURNAL_VERSION, "seq": "x", "kind": "cell-start"}),
            json.dumps([1, 2, 3]),
        ]
        path.write_text("\n".join(lines) + "\n")
        reader = JournalReader(path)
        assert [e["label"] for e in reader.poll()] == ["a"]
        assert reader.skipped == 4

    def test_truncated_file_rereads_from_start(self, tmp_path):
        path = journal_path(tmp_path)
        with JournalWriter(path) as writer:
            writer.cell_started("a")
            writer.cell_started("b")
        reader = JournalReader(path)
        assert len(reader.poll()) == 2
        # the journal is replaced by a shorter one (fresh campaign)
        with JournalWriter(tmp_path / "other.jsonl") as other:
            other.cell_started("z")
        path.write_bytes((tmp_path / "other.jsonl").read_bytes())
        assert [e["label"] for e in reader.poll()] == ["z"]


class TestRunnerIntegration:
    def test_run_campaign_writes_journal(self, tmp_path):
        from repro.core.experiment import ScenarioConfig
        from repro.runner import run_campaign

        cells = [
            ("a", ScenarioConfig(sites=1, clients=10, transactions=40, seed=1)),
            ("b", ScenarioConfig(sites=1, clients=10, transactions=40, seed=2)),
        ]
        run_campaign(cells, artifact_dir=tmp_path)
        events = read_journal(journal_path(tmp_path))
        kinds = [e["kind"] for e in events]
        assert kinds == [
            "campaign-start",
            "cell-start", "cell-finish",
            "cell-start", "cell-finish",
            "campaign-end",
        ]
        start = events[0]
        assert start["total"] == 2 and start["workers"] == 1
        finishes = [e for e in events if e["kind"] == "cell-finish"]
        assert [e["label"] for e in finishes] == ["a", "b"]
        assert all(isinstance(e["worker"], int) for e in finishes)
        assert [e["done"] for e in finishes] == [1, 2]

    def test_resume_appends_with_artifact_source(self, tmp_path):
        from repro.core.experiment import ScenarioConfig
        from repro.runner import run_campaign

        cells = [
            ("a", ScenarioConfig(sites=1, clients=10, transactions=40, seed=1)),
        ]
        run_campaign(cells, artifact_dir=tmp_path)
        run_campaign(cells, artifact_dir=tmp_path)
        events = read_journal(journal_path(tmp_path))
        seqs = [e["seq"] for e in events]
        assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)
        finishes = [e for e in events if e["kind"] == "cell-finish"]
        assert [e["source"] for e in finishes] == ["in-process", "artifact"]

    def test_cell_finish_carries_the_verdict(self, tmp_path):
        """A resumed cell's status is its artifact's verdict; the
        campaign-end counts keep their keys, ``failed`` counting every
        cell that is not ok."""
        from repro.core.experiment import ScenarioConfig
        from repro.runner import ArtifactStore, run_campaign

        cells = [
            ("a", ScenarioConfig(sites=1, clients=10, transactions=40, seed=1)),
        ]
        run_campaign(cells, artifact_dir=tmp_path)
        path = ArtifactStore(tmp_path).path_for("a")
        envelope = json.loads(path.read_text())
        envelope["result"]["violations"].append(
            {"monitor": "one-copy-sr", "site": "site0", "sim_time": 1.0,
             "detail": "seeded", "seq": 1}
        )
        path.write_text(json.dumps(envelope))
        (cell,) = run_campaign(cells, artifact_dir=tmp_path).cells
        assert (cell.source, cell.status) == ("artifact", "violated")
        events = read_journal(journal_path(tmp_path))
        finishes = [e["status"] for e in events if e["kind"] == "cell-finish"]
        assert finishes == ["ok", "violated"]
        assert (events[-1]["ok"], events[-1]["failed"]) == (0, 1)

    def test_journal_off_leaves_no_file(self, tmp_path):
        from repro.core.experiment import ScenarioConfig
        from repro.runner import run_campaign

        cells = [
            ("a", ScenarioConfig(sites=1, clients=10, transactions=40, seed=1)),
        ]
        run_campaign(cells, artifact_dir=tmp_path, journal=False)
        assert not journal_path(tmp_path).exists()

    @pytest.mark.parametrize("removed", [True, None, object()])
    def test_only_auto_and_false_are_journal_values(self, removed, tmp_path):
        """The forms nothing used (require-a-store, None, a caller-owned
        writer) are rejected, not silently read as one of the two kept."""
        from repro.runner import run_campaign

        with pytest.raises(ValueError, match='"auto" or False'):
            run_campaign([], artifact_dir=tmp_path, journal=removed)
        assert not journal_path(tmp_path).exists()

    def test_journal_is_pure_observability(self, tmp_path):
        """Results are bit-identical with the journal on or off."""
        from repro.core.experiment import ScenarioConfig
        from repro.runner import run_campaign

        config = ScenarioConfig(sites=3, clients=50, transactions=60, seed=7)
        on = run_campaign([("x", config)], artifact_dir=tmp_path / "on")
        off = run_campaign(
            [("x", config)], artifact_dir=tmp_path / "off", journal=False
        )
        bare = run_campaign([("x", config)])
        assert journal_path(tmp_path / "on").exists()
        assert not journal_path(tmp_path / "off").exists()
        payloads = [
            c.result.to_dict() for c in (on.cells[0], off.cells[0], bare.cells[0])
        ]
        assert payloads[0] == payloads[1] == payloads[2]
