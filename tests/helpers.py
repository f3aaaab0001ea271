"""Shared assembly helpers for the test suite.

Builds small protocol groups (network + CSRT + GCS) without the database
layers, so reliable-multicast / total-order / view tests run against the
same wiring the experiments use — and, the other way round, one
replication-protocol site over recording stubs (no network, no CPU, no
server), so the termination core is driven one call at a time.  A
:class:`RecordingSocket` stands in for a site's socket where a test
drives the CSRT without a network.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Dict, List, Optional, Tuple

from repro.core.cpu import CpuPool
from repro.core.csrt import SiteRuntime
from repro.core.experiment import Scenario, ScenarioConfig
from repro.core.faults import FaultInjector, FaultPlan
from repro.core.kernel import Simulator
from repro.gcs.config import GcsConfig
from repro.gcs.stack import GroupCommunication
from repro.net.address import Endpoint, GroupAddress
from repro.net.network import Network
from repro.net.udp import UdpSocket
from repro.protocols import ProtocolContext, ProtocolGroup, build_protocol

__all__ = [
    "GroupHarness",
    "make_group",
    "RecordingSocket",
    "StubRuntime",
    "make_stub_site",
    "raising_run",
]


class GroupHarness:
    """A running group of protocol stacks over a simulated LAN."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        stacks: List[GroupCommunication],
        runtimes: List[SiteRuntime],
        injectors: Dict[int, FaultInjector],
    ):
        self.sim = sim
        self.network = network
        self.stacks = stacks
        self.runtimes = runtimes
        self.injectors = injectors
        self.delivered: Dict[int, List[Tuple[int, int, bytes]]] = {
            s.member_id: [] for s in stacks
        }
        for stack in stacks:
            member = stack.member_id

            def on_deliver(gseq, origin, payload, member=member):
                self.delivered[member].append((gseq, origin, payload))

            stack.on_deliver = on_deliver

    def start(self) -> None:
        for stack in self.stacks:
            stack.start()

    def sequences(self) -> List[List[Tuple[int, int]]]:
        """Per-member (global_seq, origin) delivery orders."""
        return [
            [(g, o) for g, o, _ in self.delivered[s.member_id]]
            for s in self.stacks
        ]


def make_group(
    n: int = 3,
    config: Optional[GcsConfig] = None,
    fault_plans: Optional[Dict[int, FaultPlan]] = None,
) -> GroupHarness:
    """Wire ``n`` members on one simulated Ethernet segment."""
    sim = Simulator()
    network = Network(sim)
    group = GroupAddress("test", 9000)
    members = {i: Endpoint(f"m{i}", 9000) for i in range(n)}
    stacks: List[GroupCommunication] = []
    runtimes: List[SiteRuntime] = []
    injectors: Dict[int, FaultInjector] = {}
    plans = fault_plans or {}
    for i in range(n):
        sock = UdpSocket(network.add_host(f"m{i}"), 9000)
        sock.join(group)
        injector = None
        if i in plans:
            injector = FaultInjector(plans[i])
            injectors[i] = injector
        runtime = SiteRuntime(
            sim,
            CpuPool(sim, 1, name=f"m{i}.cpu"),
            sock,
            interceptor=injector,
            name=f"m{i}.rt",
        )
        stack = GroupCommunication(
            runtime, i, members, group, config=config or GcsConfig()
        )
        stacks.append(stack)
        runtimes.append(runtime)
    return GroupHarness(sim, network, stacks, runtimes, injectors)


class RecordingSocket:
    """What :class:`~repro.core.csrt.SiteRuntime` uses of a socket — an
    ``address``, ``send`` and ``set_receiver`` — without a network.

    Each datagram sent through it is appended to ``sent`` and passed to
    ``on_send``.  Sockets that share a ``fabric`` dict reach each other:
    a datagram sent to a member's address is handed, with this socket's
    address as its source, to the receiver that member's runtime
    installed."""

    def __init__(self, address=("site0", 1), fabric=None, on_send=None):
        self.address = address
        self.sent: List[Tuple[object, bytes]] = []
        self.receiver = None
        self._fabric = fabric if fabric is not None else {}
        self._fabric[address] = self
        self._on_send = on_send

    def set_receiver(self, callback) -> None:
        self.receiver = callback

    def send(self, dest, payload: bytes) -> None:
        self.sent.append((dest, payload))
        if self._on_send is not None:
            self._on_send(dest, payload)
        peer = self._fabric.get(dest)
        if peer is not None and peer.receiver is not None:
            peer.receiver(self.address, payload)


class StubRuntime:
    """Records what a protocol asks of its ``SiteRuntime`` instead of
    running it: queued real jobs and ``schedule`` calls."""

    def __init__(self) -> None:
        self.real_jobs: List[Tuple[object, str, int, tuple]] = []
        self.scheduled: List[Tuple[float, object, tuple]] = []
        self.crashed = False

    def submit_real(self, fn, tag="", nbytes=0, args=()) -> None:
        self.real_jobs.append((fn, tag, nbytes, args))

    def schedule(self, delay, fn, *args) -> None:
        self.scheduled.append((delay, fn, args))

    def now(self) -> float:
        return 0.0

    def charge(self, seconds: float) -> None:
        pass

    def crash(self) -> None:
        self.crashed = True


def make_stub_site(
    protocol: str, site_id: int = 0, group: Optional[ProtocolGroup] = None
):
    """Build ``protocol``'s instance for one site of two through its
    registered builder, over a stub GCS (``members``, a
    :class:`StubRuntime` as its ``runtime``, plus the callback slots the
    protocol fills in) and a stub server."""
    server = SimpleNamespace(
        sim=Simulator(), name=f"site{site_id}", apply_remote=lambda tx: None
    )
    gcs = SimpleNamespace(
        members=(0, 1), multicast=lambda payload: None, runtime=StubRuntime()
    )
    return build_protocol(
        protocol,
        ProtocolContext(
            site_id=site_id,
            server=server,
            gcs=gcs,
            config=ScenarioConfig(sites=2, clients=10, protocol=protocol),
            group=group or ProtocolGroup(),
        ),
    )


def raising_run(exc_type, poison_seed=4):
    """A ``Scenario.run`` that raises ``exc_type`` on the cell seeded
    ``poison_seed`` and runs every other cell for real: patched onto
    ``Scenario`` before a campaign, it reaches forked pool workers too."""
    real_run = Scenario.run

    def run(self):
        if self.config.seed == poison_seed:
            raise exc_type("raised inside the cell")
        return real_run(self)

    return run
