"""The network fabric: hosts on one switched LAN, with IP multicast.

This is the load-bearing subset of SSFNet the paper actually uses: one
switched 100 Mbit Ethernet (§4.1) where each host owns full-duplex
rate-limited links to the switch, and IP-multicast group management
(one egress copy, replicated by the switch).

Packets larger than the MTU are charged per-fragment framing overhead.
SSFNet famously did *not* enforce the Ethernet MTU for UDP (the paper
works around it by restricting packet sizes, §4.2); ``enforce_mtu=False``
reproduces that behaviour for the validation benches.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple, Union

from ..core.kernel import Entity, Simulator
from .address import Endpoint, GroupAddress
from .capture import PacketCapture
from .link import RateLimitedLink

__all__ = ["Host", "Network", "Destination"]

#: The paper's fabric (§4.1): switched Ethernet 100, each host's
#: full-duplex links to the switch at 100 Mbit/s with this one-way
#: propagation latency, split evenly between egress and ingress.
LAN_BANDWIDTH_BPS = 100e6
LAN_LINK_LATENCY = 100e-6
#: Store-and-forward delay of the switch, and of a datagram a host
#: sends to itself (never touches the wire).
SWITCH_LATENCY = 20e-6
LOOPBACK_LATENCY = 10e-6
#: Extra IP header bytes charged for every fragment beyond the first.
FRAGMENT_OVERHEAD_BYTES = 20

Destination = Union[Endpoint, GroupAddress]
ReceiveCallback = Callable[[Endpoint, bytes], None]


class Host(Entity):
    """A network host: bound ports plus egress/ingress links to the switch,
    both at the network's default bandwidth and latency."""

    def __init__(self, sim: Simulator, name: str, network: "Network"):
        super().__init__(sim, name)
        self.network = network
        bandwidth = network.default_bandwidth_bps
        half_latency = network.default_link_latency / 2.0
        self.egress = RateLimitedLink(sim, f"{name}.tx", bandwidth, half_latency)
        self.ingress = RateLimitedLink(sim, f"{name}.rx", bandwidth, half_latency)
        self._ports: Dict[int, Optional[ReceiveCallback]] = {}

    def bind(self, port: int, callback: Optional[ReceiveCallback]) -> None:
        """Claim ``port``; ``None`` claims it without a receiver yet."""
        if port in self._ports:
            raise ValueError(f"{self.name}: port {port} already bound")
        self._ports[port] = callback

    def unbind(self, port: int) -> None:
        self._ports.pop(port, None)

    def receive(self, source: Endpoint, port: int, payload: bytes) -> None:
        callback = self._ports.get(port)
        if callback is not None:
            callback(source, payload)


class Network(Entity):
    """One switched LAN of hosts with multicast groups and partition cuts."""

    def __init__(
        self,
        sim: Simulator,
        name: str = "net",
        default_bandwidth_bps: float = LAN_BANDWIDTH_BPS,
        default_link_latency: float = LAN_LINK_LATENCY,
        mtu: int = 1500,
        enforce_mtu: bool = True,
        capture: Optional[PacketCapture] = None,
    ):
        super().__init__(sim, name)
        self.default_bandwidth_bps = default_bandwidth_bps
        self.default_link_latency = default_link_latency
        self.mtu = mtu
        self.enforce_mtu = enforce_mtu
        self.capture = capture or PacketCapture(keep_entries=False)
        self.hosts: Dict[str, Host] = {}
        self._groups: Dict[GroupAddress, Set[str]] = {}
        #: host -> partition component id; hosts in different components
        #: cannot exchange packets.  Unlisted hosts share component 0.
        self._partition: Dict[str, int] = {}
        #: (group, sender) -> resolved target endpoints.  Membership
        #: changes rarely; resolving (sorted member scan + Endpoint
        #: construction) per multicast datagram is measurable.  Cleared
        #: wholesale on every join/leave.
        self._mcast_targets: Dict[Tuple[GroupAddress, str], List[Endpoint]] = {}

    # ------------------------------------------------------------------
    # topology construction
    # ------------------------------------------------------------------
    def add_host(self, name: str) -> Host:
        if name in self.hosts:
            raise ValueError(f"duplicate host {name!r}")
        host = self.hosts[name] = Host(self.sim, name, self)
        return host

    def join(self, group: GroupAddress, host_name: str) -> None:
        if host_name not in self.hosts:
            raise ValueError(f"unknown host {host_name!r}")
        self._groups.setdefault(group, set()).add(host_name)
        self._mcast_targets.clear()

    def leave(self, group: GroupAddress, host_name: str) -> None:
        members = self._groups.get(group)
        if members:
            members.discard(host_name)
        self._mcast_targets.clear()

    def members(self, group: GroupAddress) -> Tuple[str, ...]:
        return tuple(sorted(self._groups.get(group, ())))

    # ------------------------------------------------------------------
    # partitions (fault injection: the ``partition``/``heal`` actions)
    # ------------------------------------------------------------------
    def partition(self, components: Iterable[Iterable[str]]) -> None:
        """Split the fabric: hosts in different components cannot
        exchange packets (dropped in flight, recorded as ``"partition"``
        in the capture).  Hosts not named in any component form an
        implicit component of their own.  Replaces any previous cut."""
        mapping: Dict[str, int] = {}
        for index, component in enumerate(components, start=1):
            for host in component:
                if host not in self.hosts:
                    raise ValueError(f"unknown host {host!r}")
                if host in mapping:
                    raise ValueError(f"host {host!r} in two components")
                mapping[host] = index
        self._partition = mapping

    def heal(self) -> None:
        """Remove the partition cut entirely."""
        self._partition = {}

    def reachable(self, host_a: str, host_b: str) -> bool:
        """True when no partition cut separates the two hosts."""
        return self._partition.get(host_a, 0) == self._partition.get(host_b, 0)

    # ------------------------------------------------------------------
    # datagram routing
    # ------------------------------------------------------------------
    def wire_size(self, payload_len: int) -> int:
        """Bytes charged on the wire for a payload, including fragment
        overhead when the MTU is enforced."""
        if not self.enforce_mtu or payload_len <= self.mtu:
            return payload_len
        fragments = math.ceil(payload_len / self.mtu)
        return payload_len + (fragments - 1) * FRAGMENT_OVERHEAD_BYTES

    def route(
        self, src_host: Host, src_port: int, dest: Destination, payload: bytes
    ) -> None:
        source = Endpoint(src_host.name, src_port)
        size = self.wire_size(len(payload))
        multicast = isinstance(dest, GroupAddress)
        kind = "multicast" if multicast else "unicast"
        capture = self.capture
        if capture.keep_entries:
            capture.record(self.sim._now, str(source), str(dest), size, kind)
        else:
            capture.tally(size, kind)

        if multicast:
            key = (dest, src_host.name)
            targets = self._mcast_targets.get(key)
            if targets is None:
                # The sender is no target: multicast has no loopback leg.
                targets = [
                    Endpoint(member, dest.port)
                    for member in self.members(dest)
                    if member != src_host.name
                ]
                self._mcast_targets[key] = targets
            if not targets:
                return
        elif dest.host == src_host.name:
            self.call(LOOPBACK_LATENCY, self._deliver_local, source, dest, payload)
            return
        else:
            targets = [dest]
        # One copy on the sender's egress; the switch replicates it.
        src_host.egress.deliver(size, self._fan_out, (source, targets, payload, size))

    # ------------------------------------------------------------------
    def _fan_out(
        self, source: Endpoint, targets: List[Endpoint], payload: bytes, size: int
    ) -> None:
        # Every ingress-bound packet carries the same switch latency, so
        # binding order equals arrival order and the switch hop folds
        # into the ingress link: one event per packet instead of two.
        arrival = self.sim._now + SWITCH_LATENCY
        hosts = self.hosts
        capture = self.capture
        cut = self._partition  # reachable(), asked once and only under a cut
        src_component = cut.get(source.host, 0) if cut else 0
        for target in targets:
            host = hosts.get(target.host)
            if host is None:
                continue
            if cut and cut.get(target.host, 0) != src_component:
                if capture.keep_entries:
                    capture.record(
                        self.sim._now, str(source), str(target), size, "partition"
                    )
                continue
            accepted = host.ingress.deliver_at(
                arrival, size, host.receive, (source, target.port, payload)
            )
            if not accepted and capture.keep_entries:
                capture.record(arrival, str(source), str(target), size, "drop")

    def _deliver_local(self, source: Endpoint, target: Endpoint, payload: bytes) -> None:
        host = self.hosts[target.host]
        host.receive(source, target.port, payload)
