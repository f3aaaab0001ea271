"""Unit tests for the reliable multicast layer over a simulated LAN."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from helpers import make_group

from repro.core.faults import random_loss
from repro.gcs.config import GcsConfig


class TestDissemination:
    def test_all_members_fifo_deliver(self):
        harness = make_group(3)
        harness.start()
        fifo = {i: [] for i in range(3)}
        for stack in harness.stacks:
            stack.total_order.on_to_deliver = None  # bypass ordering
            member = stack.member_id
            stack.reliable.on_fifo_deliver = (
                lambda o, s, p, m=member: fifo[m].append((o, s))
            )
        harness.sim.schedule(0.01, harness.stacks[0].reliable.multicast, b"m1")
        harness.sim.schedule(0.02, harness.stacks[0].reliable.multicast, b"m2")
        harness.sim.schedule(0.03, harness.stacks[1].reliable.multicast, b"m3")
        harness.sim.run(until=1.0)
        for member in range(3):
            assert (0, 1) in fifo[member]
            assert (0, 2) in fifo[member]
            assert (1, 1) in fifo[member]
            # per-origin FIFO
            origin0 = [s for o, s in fifo[member] if o == 0]
            assert origin0 == sorted(origin0)

    def test_sender_self_delivers(self):
        harness = make_group(2)
        harness.start()
        fifo = []
        harness.stacks[0].reliable.on_fifo_deliver = (
            lambda o, s, p: fifo.append((o, s))
        )
        harness.stacks[0].reliable.multicast(b"self")
        harness.sim.run(until=0.1)
        assert (0, 1) in fifo


class TestLossRecovery:
    def test_nack_recovers_dropped_messages(self):
        config = GcsConfig(nack_timeout=0.01, stability_interval=0.02)
        harness = make_group(
            3,
            config=config,
            fault_plans={1: random_loss(0.30, seed=5)},
        )
        harness.start()
        count = 30
        for i in range(count):
            harness.sim.schedule(
                0.01 * (i + 1), harness.stacks[0].multicast, b"msg%d" % i
            )
        harness.sim.run(until=5.0)
        # the lossy member still delivers everything, in total order
        assert len(harness.delivered[1]) == count
        assert harness.sequences()[1] == harness.sequences()[0]
        assert harness.stacks[1].reliable.stats["nacks_sent"] > 0

    def test_duplicates_suppressed(self):
        harness = make_group(2)
        harness.start()
        harness.stacks[0].multicast(b"once")
        harness.sim.run(until=0.2)
        # replay origin 0's seq 1 at member 1: the receive window
        # remembers the contiguous prefix even after stability GC
        from repro.gcs.messages import DataMsg

        dup = DataMsg(0, 0, 1, b"\x00replayed")
        harness.stacks[1].reliable.handle_data(dup)
        harness.sim.run(until=0.4)
        assert len(harness.delivered[1]) == 1
        assert harness.stacks[1].reliable.stats["duplicates"] >= 1


class TestBufferShares:
    def test_sender_blocks_when_share_exhausted(self):
        config = GcsConfig(
            buffer_share=4,
            stability_interval=10.0,  # effectively no GC during the test
        )
        harness = make_group(2, config=config)
        harness.start()
        for i in range(10):
            harness.stacks[0].reliable.multicast(b"m%d" % i)
        harness.sim.run(until=0.5)
        rel = harness.stacks[0].reliable
        assert rel.blocked_sends > 0
        assert rel.stats["blocked_events"] >= 1
        assert rel.pool.occupancy(0) <= 4

    def test_stability_gc_unblocks_sender(self):
        config = GcsConfig(buffer_share=4, stability_interval=0.02)
        harness = make_group(2, config=config)
        harness.start()
        for i in range(12):
            harness.stacks[0].multicast(b"m%d" % i)
        harness.sim.run(until=5.0)
        rel = harness.stacks[0].reliable
        assert rel.blocked_sends == 0
        assert len(harness.delivered[1]) == 12
        assert rel.stats["blocked_time"] > 0

    def test_departed_member_traffic_discarded(self):
        harness = make_group(2)
        harness.start()
        rel = harness.stacks[1].reliable
        rel.reset_membership({1: rel.members[1]})
        from repro.gcs.messages import DataMsg

        rel.handle_data(DataMsg(0, 0, 1, b"ghost"))
        assert rel.pool.get(0, 1) is None
