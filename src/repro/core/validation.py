"""Model validation (paper §4.2, Figures 3 and 4).

The centralized simulation runtime is validated by comparing its
behaviour against the real test system on three micro-benchmarks — UDP
flood sender bandwidth, receiver bandwidth on Ethernet 100, and
round-trip latency — and the database model by Q-Q plots of transaction
latency against a 20-client run of the real engine.

We have no 2001 testbed, so the "Real" curves are **analytic reference
models encoding the paper's published measurements** (DESIGN.md §3):
CPU-bound socket writes with a 4 KB page-boundary penalty, wire-limited
reception, and affine round-trips with per-fragment overhead.  The CSRT
curves are *measured* by actually running the flood/ping-pong code under
the runtime, exactly as the paper does.  Two published divergences are
reproduced on purpose:

* the real system's write bandwidth drops past the 4 KB page boundary;
  the simulated stack has no virtual-memory model, so it doesn't (paper:
  irrelevant, the protocol uses smaller packets);
* SSFNet does not enforce the Ethernet MTU for UDP, so simulated RTTs
  diverge from the real system above ~1400 bytes unless MTU enforcement
  is enabled (our network model makes it a flag).
"""

from __future__ import annotations

import random
from typing import List, Tuple

from ..db.storage import SECTOR_CONCURRENCY, SECTOR_LATENCY
from ..net.address import Endpoint
from ..net.link import WIRE_OVERHEAD_BYTES
from ..net.network import FRAGMENT_OVERHEAD_BYTES, LAN_BANDWIDTH_BPS, Network
from ..net.udp import UdpSocket
from ..tpcc.profiles import _MU, COMMIT_CPU, COMMIT_SECTORS, SIGMA
from .clock import CpuCostModel
from .cpu import CpuPool
from .csrt import SiteRuntime
from .kernel import Simulator

__all__ = [
    "real_send_bandwidth_bps",
    "real_recv_bandwidth_bps",
    "real_round_trip",
    "csrt_send_bandwidth_bps",
    "csrt_recv_bandwidth_bps",
    "csrt_round_trip",
    "reference_latency_sample",
]

#: Ethernet payload capacity per fragment (MTU minus IP/UDP headers).
_MTU_PAYLOAD = 1472
#: Real-system page-boundary penalty on socket writes (seconds) — the
#: memory-management overhead the paper observes past 4 KB.
_PAGE_PENALTY = 18e-6
_PAGE_SIZE = 4096
#: Real-system one-way path latency, and kernel work per extra fragment.
_PATH_LATENCY = 70e-6
_FRAGMENT_KERNEL = 15e-6


# ----------------------------------------------------------------------
# analytic "Real" reference curves (the paper's measured testbed)
# ----------------------------------------------------------------------
def real_send_bandwidth_bps(size: int) -> float:
    """Socket write bandwidth of the real system: CPU-bound, with the
    4 KB virtual-memory page penalty (Figure 3(a))."""
    per_message = CpuCostModel.cost(CpuCostModel.SEND, size)
    if size > _PAGE_SIZE:
        per_message += _PAGE_PENALTY
    return size * 8.0 / per_message


def real_recv_bandwidth_bps(size: int) -> float:
    """Receiver goodput: the sender's rate capped by Ethernet 100 framing
    (Figure 3(b))."""
    goodput = LAN_BANDWIDTH_BPS * size / _wire_bytes(size)
    return min(real_send_bandwidth_bps(size), goodput)


def real_round_trip(size: int) -> float:
    """Round-trip of a request/echo pair on the real system.

    Each direction crosses a store-and-forward switch (two
    serializations of the framed, MTU-fragmented packet), pays the
    propagation/switch latency, and the kernel charges per-fragment
    reassembly work — which the simulated stack does not model, giving
    the divergence above ~1 KB the paper attributes to SSFNet's missing
    MTU enforcement (Figure 3(c))."""
    fragments = max(1, -(-size // _MTU_PAYLOAD))
    serialization = 2.0 * _wire_bytes(size) * 8.0 / LAN_BANDWIDTH_BPS
    stack = CpuCostModel.cost(CpuCostModel.SEND, size) + CpuCostModel.cost(
        CpuCostModel.RECV, size
    )
    one_way = (
        stack
        + serialization
        + _PATH_LATENCY
        + (fragments - 1) * _FRAGMENT_KERNEL
    )
    return 2.0 * one_way


def _wire_bytes(size: int) -> float:
    """Bytes on the wire for a UDP payload of ``size`` (real system:
    MTU-enforced fragmentation)."""
    fragments = max(1, -(-size // _MTU_PAYLOAD))
    return size + WIRE_OVERHEAD_BYTES + (fragments - 1) * (
        WIRE_OVERHEAD_BYTES + FRAGMENT_OVERHEAD_BYTES
    )


# ----------------------------------------------------------------------
# measured CSRT curves (actually run the runtime)
# ----------------------------------------------------------------------
def csrt_send_bandwidth_bps(size: int, duration: float = 0.25) -> float:
    """Flood-write benchmark under the CSRT: a single process sends
    back-to-back datagrams; the achieved rate is CPU-bound by the
    calibrated send overheads."""
    sim = Simulator()
    # A capacious fabric: the write benchmark measures socket/CPU limits.
    net = Network(sim, default_bandwidth_bps=10e9, default_link_latency=10e-6)
    sender = net.add_host("sender")
    net.add_host("sink")
    runtime = SiteRuntime(sim, CpuPool(sim, 1), UdpSocket(sender, 1))
    payload = bytes(size)
    dest = Endpoint("sink", 1)
    sent = {"bytes": 0}

    def send_one() -> None:
        runtime.send(dest, payload)
        sent["bytes"] += size

    def chain() -> None:
        if sim.now >= duration:
            return
        runtime.submit_real(send_one, tag=CpuCostModel.NOOP, on_complete=chain)

    chain()
    sim.run(until=duration)
    return sent["bytes"] * 8.0 / duration


def csrt_recv_bandwidth_bps(size: int, duration: float = 0.25) -> float:
    """Flood-receive benchmark: the same flood pushed through a simulated
    Ethernet 100; the receiver counts goodput (Figure 3(b))."""
    sim = Simulator()
    net = Network(sim, default_link_latency=50e-6)
    sender_host = net.add_host("sender")
    sink_host = net.add_host("sink")
    in_sock = UdpSocket(sink_host, 1)
    runtime = SiteRuntime(sim, CpuPool(sim, 1), UdpSocket(sender_host, 1))
    received = {"bytes": 0, "first": None, "last": 0.0}

    def on_receive(source, payload_in: bytes) -> None:
        received["bytes"] += len(payload_in)
        if received["first"] is None:
            received["first"] = sim.now
        received["last"] = sim.now

    in_sock.set_receiver(on_receive)
    payload = bytes(size)
    dest = Endpoint("sink", 1)

    def send_one() -> None:
        runtime.send(dest, payload)

    def chain() -> None:
        if sim.now >= duration:
            return
        runtime.submit_real(send_one, tag=CpuCostModel.NOOP, on_complete=chain)

    chain()
    sim.run(until=duration + 0.1)  # drain in-flight packets
    if received["first"] is None or received["last"] <= received["first"]:
        return 0.0
    # Rate over the actual reception window (drain included, so a
    # wire-limited flood is measured at the wire rate, not inflated).
    span = received["last"] - received["first"]
    return (received["bytes"] - size) * 8.0 / span


def csrt_round_trip(
    size: int,
    rounds: int = 50,
    enforce_mtu: bool = True,
) -> float:
    """Ping-pong benchmark under the CSRT: mean round-trip of ``rounds``
    request/echo pairs across a simulated Ethernet 100.

    ``enforce_mtu=False`` reproduces SSFNet's documented behaviour of
    not fragmenting UDP above the MTU — the source of the paper's
    observed divergence beyond ~1000 bytes."""
    sim = Simulator()
    net = Network(sim, default_link_latency=50e-6, enforce_mtu=enforce_mtu)
    a_sock = UdpSocket(net.add_host("a"), 1)
    b_sock = UdpSocket(net.add_host("b"), 1)
    a_rt = SiteRuntime(sim, CpuPool(sim, 1), a_sock, name="a.rt")
    b_rt = SiteRuntime(sim, CpuPool(sim, 1), b_sock, name="b.rt")
    payload = bytes(size)
    times: List[float] = []
    state = {"sent_at": 0.0, "count": 0}

    def a_send() -> None:
        state["sent_at"] = sim.now
        a_rt.send(Endpoint("b", 1), payload)

    def b_receive(source, data) -> None:
        b_rt.send(Endpoint("a", 1), data)

    def a_receive(source, data) -> None:
        times.append(sim.now - state["sent_at"])
        state["count"] += 1
        if state["count"] < rounds:
            a_rt.submit_real(a_send, tag=CpuCostModel.NOOP)

    b_rt.set_receiver(b_receive)
    a_rt.set_receiver(a_receive)
    a_rt.submit_real(a_send, tag=CpuCostModel.NOOP)
    sim.run(until=60.0)
    if len(times) < rounds:
        raise RuntimeError(f"ping-pong stalled after {len(times)} rounds")
    return sum(times) / len(times)


# ----------------------------------------------------------------------
# Figure 4: reference latency sample for the Q-Q validation
# ----------------------------------------------------------------------
def reference_latency_sample(
    tx_classes: Tuple[str, ...],
    count: int,
    seed: int = 17,
) -> List[float]:
    """Latencies "measured on the real engine" at 20-client load.

    At 20 clients the real system is almost queue-free (utilization a
    few percent), so per-transaction latency decomposes into profiled
    CPU time, the near-constant commit cost, commit I/O for update
    classes, and scheduling noise.  This is the reference sample the
    simulated latencies are Q-Q-compared against (Figure 4)."""
    rng = random.Random(seed)
    sample: List[float] = []
    for _ in range(count):
        tx_class = rng.choice(tx_classes)
        latency = rng.lognormvariate(_MU[tx_class], SIGMA) + COMMIT_CPU
        sectors = COMMIT_SECTORS[tx_class]
        if sectors:
            waves = -(-sectors // SECTOR_CONCURRENCY)
            latency += waves * SECTOR_LATENCY
        latency *= max(0.8, 1.0 + rng.gauss(0.0, 0.06))
        sample.append(latency)
    return sample
