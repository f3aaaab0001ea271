"""Simulated network substrate (the SSFNet analogue).

Public surface: :class:`Network` / :class:`Host` for topology,
:class:`UdpSocket` for endpoints, :class:`Endpoint` / :class:`GroupAddress`
for addressing, :class:`PacketCapture` for observation, and the loss
processes used by fault injection.

**Contract.** Best-effort datagram delivery between the hosts of one
switched LAN, every link at the network's calibrated bandwidth and
latency: unicast to one endpoint (loopback when it is on the sender's
own host) and IP multicast to a group (one egress copy, replicated by
the switch).

**Invariants.**

* *No fabrication, no reordering per link* — a link delivers exactly
  the bytes sent, in FIFO order; datagrams are lost only by ingress
  overflow, injected loss, or a partition cut;
* *Partition cuts are absolute* — while a cut separates two hosts, no
  packet crosses in either direction (recorded as ``"partition"``
  drops in the capture);
* *Conserved accounting* — every transmitted byte appears exactly once
  in the capture totals the resource figures are computed from.
"""

from .address import Endpoint, GroupAddress
from .capture import CaptureEntry, PacketCapture
from .link import RateLimitedLink
from .lossmodels import BurstyLoss, LossProcess, RandomLoss
from .network import Host, Network
from .udp import UdpSocket

__all__ = [
    "Endpoint",
    "GroupAddress",
    "CaptureEntry",
    "PacketCapture",
    "RateLimitedLink",
    "BurstyLoss",
    "LossProcess",
    "RandomLoss",
    "Host",
    "Network",
    "UdpSocket",
]
