"""Unit tests for the assembled GCS stack: fragmentation, dispatch."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from helpers import make_group

from repro.gcs.config import GcsConfig


class TestFragmentation:
    def test_large_message_reassembled(self):
        harness = make_group(2)
        harness.start()
        big = bytes(range(256)) * 20  # 5120 bytes > 1400 max_packet
        harness.stacks[0].multicast(big)
        harness.sim.run(until=1.0)
        payloads = [p for _, _, p in harness.delivered[1]]
        assert payloads == [big]
        assert harness.stacks[0].stats["fragments_sent"] == 4

    def test_small_message_not_fragmented(self):
        harness = make_group(2)
        harness.start()
        harness.stacks[0].multicast(b"small")
        harness.sim.run(until=1.0)
        assert harness.stacks[0].stats["fragments_sent"] == 0

    def test_interleaved_large_messages_from_two_senders(self):
        harness = make_group(3)
        harness.start()
        big_a = b"A" * 4000
        big_b = b"B" * 4000
        harness.stacks[1].multicast(big_a)
        harness.stacks[2].multicast(big_b)
        harness.sim.run(until=2.0)
        for member in range(3):
            payloads = sorted(p[:1] for _, _, p in harness.delivered[member])
            assert payloads == [b"A", b"B"]
        # delivery order identical everywhere despite interleaving
        assert harness.sequences()[0] == harness.sequences()[1]

    def test_fragment_boundary_exact_multiple(self):
        config = GcsConfig(max_packet=100)
        harness = make_group(2, config=config)
        harness.start()
        exact = b"z" * 200  # exactly 2 fragments
        harness.stacks[0].multicast(exact)
        harness.sim.run(until=1.0)
        assert [p for _, _, p in harness.delivered[1]] == [exact]


class TestDispatch:
    def test_corrupt_datagram_ignored(self):
        harness = make_group(2)
        harness.start()
        harness.stacks[0]._on_wire(None, b"\xff\xff garbage")
        harness.stacks[0].multicast(b"fine")
        harness.sim.run(until=1.0)
        assert len(harness.delivered[1]) == 1

    def test_delivery_stats(self):
        harness = make_group(2)
        harness.start()
        harness.stacks[0].multicast(b"one")
        harness.stacks[1].multicast(b"two")
        harness.sim.run(until=1.0)
        assert harness.stacks[0].stats["delivered"] == 2
        assert harness.stacks[0].stats["messages_multicast"] == 1


class TestFailureDetection:
    """A stack maps a datagram's source to its member from ``members``
    alone, so every peer's heartbeats reach the failure detector."""

    def test_heard_peers_are_never_suspected(self):
        harness = make_group(3)
        harness.start()
        config = harness.stacks[0].config
        harness.sim.run(until=5 * config.suspect_after)
        for stack in harness.stacks:
            assert stack.views.alive_members() == (0, 1, 2)
            assert stack.reliable.suspected == set()
            assert stack.view_id == 1 and stack.members == (0, 1, 2)
            assert stack.views.stats["view_changes"] == 0

    def test_a_silenced_member_is_still_suspected(self):
        harness = make_group(3)
        harness.start()
        harness.runtimes[2].crash()
        config = harness.stacks[0].config
        harness.sim.run(until=5 * config.suspect_after)
        for stack in harness.stacks[:2]:
            assert stack.members == (0, 1)
            assert stack.view_id > 1
            assert stack.views.stats["view_changes"] >= 1
