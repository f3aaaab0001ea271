"""The network fabric: hosts, a switched LAN, multicast, and WAN segments.

This is the load-bearing subset of SSFNet the paper actually uses: a
switched Ethernet where each host owns full-duplex rate-limited links,
IP-multicast group management (one egress copy, fabric replication), and
optional wide-area segments with configurable inter-segment latency —
multicast does not cross segments, forcing the group communication layer
into its documented unicast fallback (§3.4).

Packets larger than the MTU are charged per-fragment framing overhead.
SSFNet famously did *not* enforce the Ethernet MTU for UDP (the paper
works around it by restricting packet sizes, §4.2); ``enforce_mtu=False``
reproduces that behaviour for the validation benches.
"""

from __future__ import annotations

import math
from heapq import heappush as _heappush
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple, Union

from ..core.kernel import Entity, Simulator
from .address import Endpoint, GroupAddress
from .capture import PacketCapture
from .link import RateLimitedLink

__all__ = ["Host", "Network", "Destination"]

#: Extra IP header bytes charged for every fragment beyond the first.
FRAGMENT_OVERHEAD_BYTES = 20

Destination = Union[Endpoint, GroupAddress, List[Endpoint]]
ReceiveCallback = Callable[[Endpoint, bytes], None]


class Host(Entity):
    """A network host: bound ports plus egress/ingress links to the fabric."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        network: "Network",
        bandwidth_bps: float,
        link_latency: float,
        segment: str = "lan0",
    ):
        super().__init__(sim, name)
        self.network = network
        self.segment = segment
        self.egress = RateLimitedLink(
            sim, f"{name}.tx", bandwidth_bps, link_latency / 2.0
        )
        self.ingress = RateLimitedLink(
            sim, f"{name}.rx", bandwidth_bps, link_latency / 2.0
        )
        self._ports: Dict[int, Optional[ReceiveCallback]] = {}

    def bind(self, port: int, callback: Optional[ReceiveCallback]) -> None:
        """Claim ``port``; ``None`` claims it without a receiver yet."""
        if port in self._ports:
            raise ValueError(f"{self.name}: port {port} already bound")
        self._ports[port] = callback

    def unbind(self, port: int) -> None:
        self._ports.pop(port, None)

    def send(self, src_port: int, dest: Destination, payload: bytes) -> None:
        self.network.route(self, src_port, dest, payload)

    def receive(self, source: Endpoint, port: int, payload: bytes) -> None:
        callback = self._ports.get(port)
        if callback is not None:
            callback(source, payload)


class Network(Entity):
    """A fabric of hosts with multicast groups and WAN segments."""

    def __init__(
        self,
        sim: Simulator,
        name: str = "net",
        default_bandwidth_bps: float = 100e6,
        default_link_latency: float = 100e-6,
        switch_latency: float = 20e-6,
        loopback_latency: float = 10e-6,
        mtu: int = 1500,
        enforce_mtu: bool = True,
        capture: Optional[PacketCapture] = None,
    ):
        super().__init__(sim, name)
        self.default_bandwidth_bps = default_bandwidth_bps
        self.default_link_latency = default_link_latency
        self.switch_latency = switch_latency
        self.loopback_latency = loopback_latency
        self.mtu = mtu
        self.enforce_mtu = enforce_mtu
        self.capture = capture or PacketCapture(keep_entries=False)
        self.hosts: Dict[str, Host] = {}
        self._groups: Dict[GroupAddress, Set[str]] = {}
        self._wan_latency: Dict[Tuple[str, str], float] = {}
        #: host -> partition component id; hosts in different components
        #: cannot exchange packets.  Unlisted hosts share component 0.
        self._partition: Dict[str, int] = {}
        #: (group, sender) -> resolved target endpoints.  Membership
        #: changes rarely; resolving (sorted member scan + Endpoint
        #: construction) per multicast datagram is measurable.  Cleared
        #: wholesale on every join/leave.
        self._mcast_targets: Dict[Tuple[GroupAddress, str], List[Endpoint]] = {}
        #: Lazily computed "all hosts share one segment" flag gating the
        #: folded switch hop in :meth:`_fan_out`; reset by ``add_host``.
        self._uniform_segment: Optional[bool] = None

    # ------------------------------------------------------------------
    # topology construction
    # ------------------------------------------------------------------
    def add_host(
        self,
        name: str,
        bandwidth_bps: Optional[float] = None,
        link_latency: Optional[float] = None,
        segment: str = "lan0",
    ) -> Host:
        if name in self.hosts:
            raise ValueError(f"duplicate host {name!r}")
        host = Host(
            self.sim,
            name,
            self,
            bandwidth_bps or self.default_bandwidth_bps,
            link_latency if link_latency is not None else self.default_link_latency,
            segment,
        )
        self.hosts[name] = host
        self._uniform_segment = None
        return host

    def set_wan_latency(self, segment_a: str, segment_b: str, latency: float) -> None:
        """One-way extra latency between two segments (symmetric)."""
        if latency < 0:
            raise ValueError("latency must be non-negative")
        self._wan_latency[(segment_a, segment_b)] = latency
        self._wan_latency[(segment_b, segment_a)] = latency

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

    def multicast_capable(self, sender: str, group: GroupAddress) -> bool:
        """True when every group member shares the sender's segment —
        i.e. an IP-multicast send will reach them all (§3.4)."""
        sender_segment = self.hosts[sender].segment
        return all(
            self.hosts[m].segment == sender_segment for m in self.members(group)
        )

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
        if isinstance(dest, GroupAddress):
            key = (dest, src_host.name)
            targets = self._mcast_targets.get(key)
            if targets is None:
                targets = [
                    Endpoint(member, dest.port)
                    for member in self.members(dest)
                    if member != src_host.name
                ]
                self._mcast_targets[key] = targets
            kind = "multicast"
        elif isinstance(dest, list):
            targets = list(dest)
            kind = "unicast"
        else:
            targets = [dest]
            kind = "unicast"

        size = self.wire_size(len(payload))
        now = self.sim._now
        if self.capture.keep_entries:
            if kind == "multicast":
                label = str(dest)
            elif isinstance(dest, list):
                label = ",".join(str(t) for t in targets)
            else:
                label = str(dest)
            self.capture.record(now, str(source), label, size, kind)
        else:
            self.capture.tally(now, size, kind)

        if kind == "multicast":
            # Multicast targets never include the sender (filtered when
            # the target list is resolved), so there is no loopback leg.
            remote = targets
        else:
            local = [t for t in targets if t.host == src_host.name]
            remote = [t for t in targets if t.host != src_host.name]
            for target in local:
                self.call(
                    self.loopback_latency, self._deliver_local, source, target, payload
                )
        if not remote:
            return
        if kind == "multicast":
            # One copy on the sender's egress; the fabric replicates.
            src_host.egress.deliver(
                size, self._fan_out, (source, remote, payload, size)
            )
        else:
            for target in remote:
                src_host.egress.deliver(
                    size, self._fan_out, (source, [target], payload, size)
                )

    # ------------------------------------------------------------------
    def _fan_out(
        self, source: Endpoint, targets: Iterable[Endpoint], payload: bytes, size: int
    ) -> None:
        sim = self.sim
        hosts = self.hosts
        src_segment = hosts[source.host].segment
        uniform = self._uniform_segment
        if uniform is None:
            segments = {h.segment for h in hosts.values()}
            uniform = self._uniform_segment = len(segments) <= 1
        cut = self._partition  # reachable(), asked once and only under a cut
        src_component = cut.get(source.host, 0) if cut else 0
        for target in targets:
            host = hosts.get(target.host)
            if host is None:
                continue
            if cut and cut.get(target.host, 0) != src_component:
                if self.capture.keep_entries:
                    self.capture.record(
                        self.now, str(source), str(target), size, "partition"
                    )
                continue
            if uniform:
                # Single-segment fabric: every ingress-bound packet carries
                # the same propagation offset, so binding order equals
                # arrival order and the switch hop folds into the ingress
                # link directly — one event per packet instead of two.
                arrival = sim._now + self.switch_latency
                accepted = host.ingress.deliver_at(
                    arrival, size, host.receive, (source, target.port, payload)
                )
                if not accepted and self.capture.keep_entries:
                    self.capture.record(
                        arrival, str(source), str(target), size, "drop"
                    )
                continue
            extra = self.switch_latency
            if host.segment != src_segment:
                extra += self._wan_latency.get((src_segment, host.segment), 0.0)
            # Inlined fire-and-forget schedule (see Simulator.call): one
            # switch-hop event per packet per receiver.
            sim._seq += 1
            _heappush(
                sim._queue,
                (
                    sim._now + extra,
                    sim._seq,
                    self._ingress,
                    (host, source, target, payload, size),
                ),
            )

    def _ingress(
        self, host: Host, source: Endpoint, target: Endpoint, payload: bytes, size: int
    ) -> None:
        accepted = host.ingress.deliver(
            size, host.receive, (source, target.port, payload)
        )
        if not accepted:
            if self.capture.keep_entries:
                self.capture.record(self.now, str(source), str(target), size, "drop")

    def _deliver_local(self, source: Endpoint, target: Endpoint, payload: bytes) -> None:
        host = self.hosts[target.host]
        host.receive(source, target.port, payload)
