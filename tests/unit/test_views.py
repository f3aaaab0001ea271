"""Unit tests for view synchrony: failure detection and view change."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from helpers import make_group

from repro.gcs.config import GcsConfig

FAST_VIEWS = GcsConfig(
    heartbeat_interval=0.05,
    suspect_after=0.4,
    view_retransmit=0.05,
    stability_interval=0.05,
)


class TestCrashMember:
    def test_survivors_install_new_view(self):
        harness = make_group(3, config=FAST_VIEWS)
        harness.start()
        harness.sim.schedule(0.5, harness.runtimes[2].crash)
        harness.sim.run(until=5.0)
        for stack in harness.stacks[:2]:
            assert stack.view_id == 2
            assert stack.members == (0, 1)

    def test_sends_resume_after_view_change(self):
        harness = make_group(3, config=FAST_VIEWS)
        harness.start()
        harness.sim.schedule(0.5, harness.runtimes[2].crash)
        harness.sim.schedule(3.0, harness.stacks[1].multicast, b"after")
        harness.sim.run(until=6.0)
        payloads_at_0 = [p for _, _, p in harness.delivered[0]]
        assert b"after" in payloads_at_0
        assert harness.sequences()[0] == harness.sequences()[1]

    def test_in_flight_messages_flushed_consistently(self):
        harness = make_group(3, config=FAST_VIEWS)
        harness.start()
        # the doomed member multicasts just before dying
        harness.sim.schedule(0.45, harness.stacks[2].multicast, b"last-words")
        harness.sim.schedule(0.5, harness.runtimes[2].crash)
        harness.sim.run(until=5.0)
        assert harness.sequences()[0] == harness.sequences()[1]


class TestCrashSequencer:
    def test_new_sequencer_takes_over(self):
        harness = make_group(3, config=FAST_VIEWS)
        harness.start()
        harness.sim.schedule(0.5, harness.runtimes[0].crash)
        harness.sim.run(until=5.0)
        for stack in harness.stacks[1:]:
            assert stack.members == (1, 2)
        assert harness.stacks[1].is_sequencer

    def test_total_order_continues_after_sequencer_crash(self):
        harness = make_group(3, config=FAST_VIEWS)
        harness.start()
        harness.sim.schedule(0.2, harness.stacks[1].multicast, b"before")
        harness.sim.schedule(0.5, harness.runtimes[0].crash)
        harness.sim.schedule(3.0, harness.stacks[2].multicast, b"after")
        harness.sim.run(until=6.0)
        seq1 = harness.sequences()[1]
        seq2 = harness.sequences()[2]
        assert seq1 == seq2
        payloads = [p for _, _, p in harness.delivered[1]]
        assert b"before" in payloads and b"after" in payloads
        # global sequence stays gapless across the handoff
        globals_seen = [g for g, _ in seq1]
        assert globals_seen == sorted(globals_seen)
        assert len(set(globals_seen)) == len(globals_seen)


class TestStability:
    def test_no_view_change_without_faults(self):
        harness = make_group(3, config=FAST_VIEWS)
        harness.start()
        for i in range(5):
            harness.sim.schedule(0.1 * i, harness.stacks[i % 3].multicast, b"x")
        harness.sim.run(until=3.0)
        assert all(s.view_id == 1 for s in harness.stacks)
        assert all(s.views.stats["view_changes"] == 0 for s in harness.stacks)

    def test_note_heard_tracks_view(self):
        harness = make_group(2, config=FAST_VIEWS)
        harness.start()
        harness.sim.run(until=0.5)
        views = harness.stacks[0].views
        assert views.peer_view[1] >= 1
        assert set(views.alive_members()) == {0, 1}
