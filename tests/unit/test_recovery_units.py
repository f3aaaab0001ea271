"""Unit tests for the recovery subsystem's building blocks: fault-plan
actions, network partitions, rejoin wire messages, window fast-forward
and buffer purging, and recovery-event serialization."""

import pytest

from repro.core.faults import (
    FAULT_ACTIONS,
    FaultPlan,
    crash_recover,
    partition_heal,
)
from repro.core.kernel import Simulator
from repro.gcs.messages import (
    DecideMsg,
    FlushAckMsg,
    StateMsg,
    StateReqMsg,
    marshal,
    unmarshal,
)
from repro.gcs.statetransfer import RecoveryEvent
from repro.gcs.window import BufferPool, ReceiveWindow
from repro.net.network import Network


class TestFaultPlanActions:
    def test_taxonomy_is_the_documented_one(self):
        assert FAULT_ACTIONS == ("crash", "recover", "partition", "heal")

    def test_recover_requires_crash(self):
        with pytest.raises(ValueError):
            FaultPlan(actions=((5.0, "recover"),))

    def test_recover_must_follow_crash(self):
        with pytest.raises(ValueError):
            FaultPlan(actions=((10.0, "crash"), (10.0, "recover")))

    def test_heal_requires_partition(self):
        with pytest.raises(ValueError):
            FaultPlan(actions=((5.0, "heal"),))

    def test_heal_must_follow_partition(self):
        with pytest.raises(ValueError):
            FaultPlan(actions=((8.0, "partition"), (3.0, "heal")))

    def test_partition_counts_as_fault(self):
        assert partition_heal(1.0, 2.0).has_faults()
        assert crash_recover(1.0, 2.0).has_faults()
        assert not FaultPlan().has_faults()

    def test_round_trip_preserves_actions(self):
        plan = FaultPlan(actions=(
            (10.0, "crash"), (20.0, "recover"), (30.0, "partition"), (40.0, "heal")
        ))
        clone = FaultPlan.from_dict(plan.to_dict())
        assert clone == plan


class TestNetworkPartition:
    def make_net(self):
        sim = Simulator()
        net = Network(sim)
        for name in ("a", "b", "c"):
            net.add_host(name)
        return sim, net

    def test_reachability_across_cut(self):
        _, net = self.make_net()
        net.partition([{"c"}])
        assert not net.reachable("a", "c")
        assert not net.reachable("c", "b")
        assert net.reachable("a", "b")
        assert net.reachable("c", "c")
        net.heal()
        assert net.reachable("a", "c")

    def test_components_keep_internal_connectivity(self):
        _, net = self.make_net()
        net.partition([{"a", "b"}])
        assert net.reachable("a", "b")
        assert not net.reachable("a", "c")

    def test_unknown_host_rejected(self):
        _, net = self.make_net()
        with pytest.raises(ValueError):
            net.partition([{"nope"}])

    def test_host_in_two_components_rejected(self):
        _, net = self.make_net()
        with pytest.raises(ValueError):
            net.partition([{"a"}, {"a", "b"}])

    def test_packets_dropped_in_flight(self):
        from repro.net.address import Endpoint
        from repro.net.udp import UdpSocket

        sim, net = self.make_net()
        received = []
        sock_a = UdpSocket(net.hosts["a"], 9)
        sock_c = UdpSocket(net.hosts["c"], 9)
        sock_c.set_receiver(lambda src, payload: received.append(payload))
        net.partition([{"c"}])
        sock_a.send(Endpoint("c", 9), b"hello")
        sim.run(until=1.0)
        assert received == []
        net.heal()
        sock_a.send(Endpoint("c", 9), b"again")
        sim.run(until=2.0)
        assert received == [b"again"]


class TestRejoinMessages:
    def test_decide_round_trip_with_joined_and_pending(self):
        msg = DecideMsg(
            sender=1,
            view_id=4,
            members=(0, 1, 2),
            targets=((0, 10), (1, 7)),
            assignments=((1, 0, 1), (2, 1, 1)),
            pending=((0, 9), (0, 10)),
            joined=(2,),
        )
        assert unmarshal(marshal(msg)) == msg

    def test_flush_ack_round_trip_with_pending(self):
        msg = FlushAckMsg(
            sender=2,
            view_id=3,
            contiguous=((0, 5), (1, 6)),
            assignments=((1, 0, 1),),
            pending=((1, 6),),
        )
        assert unmarshal(marshal(msg)) == msg

    def test_state_req_round_trip(self):
        msg = StateReqMsg(sender=2, view_id=0)
        assert unmarshal(marshal(msg)) == msg

    def test_state_fragment_round_trip(self):
        msg = StateMsg(
            sender=0,
            view_id=0,
            snapshot_id=7,
            frag_index=3,
            frag_count=9,
            payload=b"\x00\x01chunk",
        )
        assert unmarshal(marshal(msg)) == msg


class TestWindowFastForward:
    def test_fast_forward_skips_history(self):
        window = ReceiveWindow()
        window.fast_forward(10)
        assert window.contiguous == 10
        assert not window.receive(5)  # history is a duplicate
        assert window.receive(11)
        assert window.contiguous == 11

    def test_fast_forward_absorbs_pending(self):
        window = ReceiveWindow()
        window.receive(3)
        window.receive(11)
        window.fast_forward(10)
        assert window.contiguous == 11  # 11 was pending and is absorbed

    def test_fast_forward_never_rewinds(self):
        window = ReceiveWindow()
        for seq in (1, 2, 3):
            window.receive(seq)
        window.fast_forward(2)
        assert window.contiguous == 3

    def test_purge_origin_above(self):
        pool = BufferPool(share=16)
        for seq in range(1, 6):
            pool.store(7, seq, b"x")
        pool.store(8, 1, b"y")
        assert pool.purge_origin_above(7, 2) == 3
        assert pool.get(7, 2) == b"x"
        assert pool.get(7, 3) is None
        assert pool.get(8, 1) == b"y"
        assert pool.occupancy(7) == 2


class TestRecoveryEventSerialization:
    def test_round_trip(self):
        event = RecoveryEvent(
            site=2,
            started_at=35.0,
            view_installed_at=37.4,
            live_at=37.5,
            snapshot_bytes=1234,
            requests_sent=2,
            backlog_replayed=5,
            orphaned_commits=1,
        )
        clone = RecoveryEvent.from_dict(event.to_dict())
        assert clone == event
        assert clone.time_to_rejoin() == pytest.approx(2.5)

    def test_incomplete_rejoin_has_no_time(self):
        event = RecoveryEvent(site=0, started_at=1.0)
        assert event.time_to_rejoin() is None
