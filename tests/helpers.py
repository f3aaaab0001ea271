"""Shared assembly helpers for the test suite.

Builds small protocol groups (network + CSRT + GCS) without the database
layers, so reliable-multicast / total-order / view tests run against the
same wiring the experiments use — and, the other way round, one
replication-protocol site over recording stubs (no network, no CPU, no
server), so the termination core is driven one call at a time.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Dict, List, Optional, Tuple

from repro.core.cpu import CpuPool
from repro.core.csrt import SiteRuntime
from repro.core.experiment import ScenarioConfig
from repro.core.faults import FaultInjector, FaultPlan
from repro.core.kernel import Simulator
from repro.core.runtime_api import SimulatedProtocolRuntime
from repro.gcs.config import GcsConfig
from repro.gcs.stack import GroupCommunication
from repro.net.address import Endpoint, GroupAddress
from repro.net.network import Network
from repro.net.udp import UdpSocket
from repro.protocols import ProtocolContext, ProtocolGroup, build_protocol

__all__ = ["GroupHarness", "make_group", "StubRuntime", "make_stub_site"]


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
    seed: int = 3,
) -> GroupHarness:
    """Wire ``n`` members on one simulated Ethernet segment."""
    sim = Simulator()
    network = Network(sim)
    group = GroupAddress("test", 9000)
    members = {i: Endpoint(f"m{i}", 9000) for i in range(n)}
    endpoint_ids = {addr: i for i, addr in members.items()}
    stacks: List[GroupCommunication] = []
    runtimes: List[SiteRuntime] = []
    injectors: Dict[int, FaultInjector] = {}
    plans = fault_plans or {}
    for i in range(n):
        host = network.add_host(f"m{i}")
        sock = UdpSocket(host, 9000)
        sock.join(group)
        injector = None
        if i in plans:
            injector = FaultInjector(plans[i])
            injectors[i] = injector
        runtime = SiteRuntime(
            sim,
            CpuPool(sim, 1, name=f"m{i}.cpu"),
            interceptor=injector,
            name=f"m{i}.rt",
        )
        runtime.network_send = sock.send
        sock.set_receiver(runtime.deliver)
        protocol_runtime = SimulatedProtocolRuntime(runtime, members[i], seed=seed + i)
        stack = GroupCommunication(
            protocol_runtime,
            i,
            members,
            group,
            config=config,
            endpoint_ids=endpoint_ids,
        )
        stacks.append(stack)
        runtimes.append(runtime)
    return GroupHarness(sim, network, stacks, runtimes, injectors)


class StubRuntime:
    """Records what a protocol asks of its ``SiteRuntime`` instead of
    running it: queued real jobs and ``rt_schedule`` calls."""

    def __init__(self) -> None:
        self.real_jobs: List[Tuple[object, str, int, tuple]] = []
        self.scheduled: List[Tuple[float, object, tuple]] = []
        self.crashed = False

    def submit_real(self, fn, tag="", nbytes=0, args=()) -> None:
        self.real_jobs.append((fn, tag, nbytes, args))

    def rt_schedule(self, delay, fn, *args) -> None:
        self.scheduled.append((delay, fn, args))

    def rt_now(self) -> float:
        return 0.0

    def rt_charge(self, seconds: float) -> None:
        pass

    def crash(self) -> None:
        self.crashed = True


def make_stub_site(
    protocol: str, site_id: int = 0, group: Optional[ProtocolGroup] = None
):
    """Build ``protocol``'s instance for one site of two through its
    registered builder, over a :class:`StubRuntime`, a stub GCS
    (``members`` plus the callback slots the protocol fills in) and a
    stub server."""
    server = SimpleNamespace(
        sim=Simulator(), name=f"site{site_id}", apply_remote=lambda tx: None
    )
    gcs = SimpleNamespace(members=(0, 1), multicast=lambda payload: None)
    return build_protocol(
        protocol,
        ProtocolContext(
            site_id=site_id,
            server=server,
            gcs=gcs,
            runtime=StubRuntime(),
            config=ScenarioConfig(sites=2, clients=10, protocol=protocol),
            group=group or ProtocolGroup(),
        ),
    )
