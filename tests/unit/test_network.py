"""Unit tests for the network fabric: links, routing, multicast, the switch."""

import pytest

from repro.core.kernel import Simulator
from repro.net.address import Endpoint, GroupAddress
from repro.net.capture import PacketCapture
from repro.net.link import RateLimitedLink, WIRE_OVERHEAD_BYTES
from repro.net.network import (
    FRAGMENT_OVERHEAD_BYTES,
    LOOPBACK_LATENCY,
    SWITCH_LATENCY,
    Network,
)
from repro.net.udp import UdpSocket


class TestAddresses:
    """Addresses are ``typing.NamedTuple`` rows over ``(name, port)``."""

    def test_construction_and_str(self):
        assert Endpoint("h1", 5) == Endpoint(host="h1", port=5)
        assert GroupAddress("g", 7) == GroupAddress(group="g", port=7)
        assert str(Endpoint("h1", 5)) == "h1:5"
        assert str(GroupAddress("g", 7)) == "mcast:g:7"

    def test_ordering_is_host_then_port(self):
        assert Endpoint("a", 9) < Endpoint("b", 1) < Endpoint("b", 2)
        assert sorted([Endpoint("b", 1), Endpoint("a", 9)])[0].host == "a"

    def test_hash_is_the_tuple_hash(self):
        # The value the generated dataclass __hash__ returned: no dict or
        # set keyed by addresses changes its iteration order.
        assert hash(Endpoint("site3", 4000)) == hash(("site3", 4000))
        assert hash(GroupAddress("g", 7)) == hash(("g", 7))

    @pytest.mark.parametrize("address", [Endpoint("h", 1), GroupAddress("g", 1)])
    def test_immutable_and_closed(self, address):
        with pytest.raises(AttributeError):
            address.port = 2
        with pytest.raises(AttributeError):
            address.extra = 1


class TestRateLimitedLink:
    def test_transmission_time_includes_framing(self):
        sim = Simulator()
        link = RateLimitedLink(sim, "l", bandwidth_bps=100e6, latency=0.0)
        expected = (1000 + WIRE_OVERHEAD_BYTES) * 8 / 100e6
        assert link.transmission_time(1000) == pytest.approx(expected)

    def test_delivery_is_priced_with_the_transmission_time_float(self):
        sim = Simulator()
        link = RateLimitedLink(sim, "l", bandwidth_bps=100e6, latency=50e-6)
        arrivals = []
        link.deliver(137, lambda: arrivals.append(sim.now))
        sim.run()
        assert arrivals == [link.transmission_time(137) + 50e-6]  # exact
        assert link.stats.busy_time == link.transmission_time(137)

    def test_packets_serialize_back_to_back(self):
        sim = Simulator()
        link = RateLimitedLink(sim, "l", bandwidth_bps=1e6, latency=0.0)
        arrivals = []
        for _ in range(3):
            link.deliver(83, lambda: arrivals.append(sim.now))  # 1 ms each
        sim.run()
        assert arrivals == pytest.approx([0.001, 0.002, 0.003])

    def test_latency_added_after_serialization(self):
        sim = Simulator()
        link = RateLimitedLink(sim, "l", bandwidth_bps=1e6, latency=0.5)
        arrivals = []
        link.deliver(83, lambda: arrivals.append(sim.now))
        sim.run()
        assert arrivals[0] == pytest.approx(0.501)

    def test_tail_drop_when_queue_full(self):
        sim = Simulator()
        link = RateLimitedLink(sim, "l", bandwidth_bps=1e3, queue_bytes=100)
        accepted = [link.deliver(60, lambda: None) for _ in range(3)]
        assert accepted == [True, True, False]
        assert link.stats.packets_dropped == 1

    def test_stats_accumulate(self):
        sim = Simulator()
        link = RateLimitedLink(sim, "l", bandwidth_bps=1e6)
        link.deliver(100, lambda: None)
        sim.run()
        assert link.stats.packets_sent == 1
        assert link.stats.bytes_sent == 100 + WIRE_OVERHEAD_BYTES
        assert link.stats.busy_time > 0


class TestRouting:
    def make_net(self, **kwargs):
        sim = Simulator()
        net = Network(sim, **kwargs)
        hosts = [net.add_host(f"h{i}") for i in range(3)]
        socks = [UdpSocket(h, 5) for h in hosts]
        inbox = {i: [] for i in range(3)}
        for i, sock in enumerate(socks):
            sock.set_receiver(
                lambda src, p, i=i: inbox[i].append((sim.now, str(src), p))
            )
        return sim, net, socks, inbox

    def test_unicast_delivery(self):
        sim, net, socks, inbox = self.make_net()
        socks[0].send(Endpoint("h1", 5), b"hello")
        sim.run()
        assert len(inbox[1]) == 1
        assert inbox[1][0][2] == b"hello"
        assert inbox[2] == []

    def test_unicast_to_unknown_host_dropped(self):
        sim, net, socks, inbox = self.make_net()
        socks[0].send(Endpoint("nowhere", 5), b"x")
        sim.run()
        assert all(not msgs for msgs in inbox.values())

    def test_multicast_reaches_members_not_sender(self):
        sim, net, socks, inbox = self.make_net()
        group = GroupAddress("g", 5)
        for sock in socks:
            sock.join(group)
        socks[0].send(group, b"mc")
        sim.run()
        assert inbox[0] == []  # no loopback by default
        assert len(inbox[1]) == 1 and len(inbox[2]) == 1

    def test_group_address_equal_to_a_bound_endpoint_still_multicasts(self):
        """Dispatch is by type, not by value: rows of two types with equal
        fields are equal as tuples."""
        sim, net, socks, inbox = self.make_net(capture=PacketCapture())
        group = GroupAddress("h1", 5)
        assert group == Endpoint("h1", 5) == socks[1].address
        for sock in socks:
            sock.join(group)
        socks[0].send(group, b"mc")
        sim.run()
        assert [len(inbox[i]) for i in range(3)] == [0, 1, 1]
        assert net.hosts["h0"].egress.stats.packets_sent == 1
        assert [(e.dest, e.kind) for e in net.capture.entries] == [
            ("mcast:h1:5", "multicast")
        ]

    def test_multicast_consumes_one_egress_copy(self):
        sim, net, socks, inbox = self.make_net()
        group = GroupAddress("g", 5)
        for sock in socks:
            sock.join(group)
        socks[0].send(group, b"mc")
        sim.run()
        assert net.hosts["h0"].egress.stats.packets_sent == 1

    def test_local_delivery_bypasses_links(self):
        sim, net, socks, inbox = self.make_net()
        socks[0].send(Endpoint("h0", 5), b"self")
        sim.run()
        assert len(inbox[0]) == 1
        assert net.hosts["h0"].egress.stats.packets_sent == 0

    def test_leave_group_stops_delivery(self):
        sim, net, socks, inbox = self.make_net()
        group = GroupAddress("g", 5)
        for sock in socks:
            sock.join(group)
        socks[2].leave(group)
        socks[0].send(group, b"mc")
        sim.run()
        assert inbox[2] == []


class TestWireSize:
    def test_below_mtu_unchanged(self):
        net = Network(Simulator(), mtu=1500)
        assert net.wire_size(1000) == 1000

    def test_fragmentation_overhead(self):
        net = Network(Simulator(), mtu=1500)
        assert net.wire_size(3000) == 3000 + FRAGMENT_OVERHEAD_BYTES

    def test_mtu_not_enforced_reproduces_ssfnet(self):
        net = Network(Simulator(), mtu=1500, enforce_mtu=False)
        assert net.wire_size(9000) == 9000


class TestSwitchedLan:
    """The one path every packet takes: egress, switch, ingress."""

    make_net = TestRouting.make_net

    def test_unicast_arrival_is_the_folded_hop_sum(self):
        sim, net, socks, inbox = self.make_net()
        socks[0].send(Endpoint("h1", 5), b"x" * 300)
        sim.run()
        egress, ingress = net.hosts["h0"].egress, net.hosts["h1"].ingress
        half = net.default_link_latency / 2.0
        arrival = (egress.transmission_time(300) + half) + SWITCH_LATENCY
        assert inbox[1] == [
            (arrival + (ingress.transmission_time(300) + half), "h0:5", b"x" * 300)
        ]

    def test_arrivals_follow_egress_completion(self):
        sim, net, socks, inbox = self.make_net()
        socks[0].send(Endpoint("h2", 5), b"a" * 1400)
        socks[1].send(Endpoint("h2", 5), b"b" * 10)
        sim.run()
        # h1's short packet leaves its egress first, so it arrives first.
        assert [src for _, src, _ in inbox[2]] == ["h1:5", "h0:5"]
        assert inbox[2][0][0] < inbox[2][1][0]

    def test_loopback_ignores_a_partition_cut(self):
        sim, net, socks, inbox = self.make_net()
        net.partition([["h0"], ["h1", "h2"]])
        socks[0].send(Endpoint("h0", 5), b"self")
        socks[0].send(Endpoint("h1", 5), b"cut")
        sim.run()
        assert inbox[0] == [(LOOPBACK_LATENCY, "h0:5", b"self")]
        assert inbox[1] == []
        assert net.hosts["h0"].egress.stats.packets_sent == 1  # only b"cut"

    def test_drops_are_logged_but_not_counted(self):
        sim, net, socks, inbox = self.make_net(capture=PacketCapture())
        net.hosts["h2"].ingress.queue_bytes = 0  # every arrival tail-drops
        socks[0].send(Endpoint("h2", 5), b"x" * 100)
        sim.run()
        net.partition([["h0"], ["h1", "h2"]])
        socks[0].send(Endpoint("h1", 5), b"y" * 40)
        sim.run()
        assert [(e.kind, e.dest, e.size) for e in net.capture.entries] == [
            ("unicast", "h2:5", 100),
            ("drop", "h2:5", 100),
            ("unicast", "h1:5", 40),
            ("partition", "h1:5", 40),
        ]
        assert (net.capture.total_bytes, net.capture.total_packets) == (140, 2)
        assert all(not msgs for msgs in inbox.values())

    def test_every_link_takes_the_network_defaults(self):
        sim, net, socks, inbox = self.make_net(
            default_bandwidth_bps=10e6, default_link_latency=2e-3
        )
        for host in net.hosts.values():
            for link in (host.egress, host.ingress):
                assert (link.bandwidth_bps, link.latency) == (10e6, 1e-3)

    def test_zero_default_bandwidth_is_rejected(self):
        net = Network(Simulator(), default_bandwidth_bps=0)
        with pytest.raises(ValueError):
            net.add_host("h0")

    def test_duplicate_host_rejected(self):
        net = Network(Simulator())
        net.add_host("h0")
        with pytest.raises(ValueError):
            net.add_host("h0")

    def test_multicast_under_a_cut_reaches_only_the_senders_side(self):
        sim, net, socks, inbox = self.make_net(capture=PacketCapture())
        group = GroupAddress("g", 5)
        for sock in socks:
            sock.join(group)
        net.partition([["h0", "h1"], ["h2"]])
        socks[0].send(group, b"mc")
        sim.run()
        assert [len(inbox[i]) for i in range(3)] == [0, 1, 0]
        assert net.hosts["h0"].egress.stats.packets_sent == 1
        assert [(e.kind, e.dest) for e in net.capture.entries] == [
            ("multicast", "mcast:g:5"),
            ("partition", "h2:5"),
        ]

    def test_multicast_to_the_sender_alone_stays_off_the_wire(self):
        sim, net, socks, inbox = self.make_net()
        group = GroupAddress("g", 5)
        socks[0].join(group)
        socks[0].send(group, b"mc")
        sim.run()
        assert all(not msgs for msgs in inbox.values())
        assert net.hosts["h0"].egress.stats.packets_sent == 0


class TestCaptureIntegration:
    def test_capture_records_traffic(self):
        sim = Simulator()
        capture = PacketCapture()
        net = Network(sim, capture=capture)
        net.add_host("a")
        net.add_host("b")
        sa = UdpSocket(net.hosts["a"], 1)
        UdpSocket(net.hosts["b"], 1)
        sa.send(Endpoint("b", 1), b"x" * 100)
        sim.run()
        assert capture.total_packets == 1
        assert capture.total_bytes == 100


class TestUdpSocket:
    def test_double_bind_rejected(self):
        sim = Simulator()
        net = Network(sim)
        host = net.add_host("a")
        UdpSocket(host, 1)
        with pytest.raises(ValueError):
            UdpSocket(host, 1)

    def test_closed_socket_rejects_send_and_ignores_receive(self):
        sim = Simulator()
        net = Network(sim)
        host = net.add_host("a")
        net.add_host("b")
        sock = UdpSocket(host, 1)
        sock.close()
        with pytest.raises(RuntimeError):
            sock.send(Endpoint("b", 1), b"x")
        # port freed: can rebind
        UdpSocket(host, 1)
