"""Addressing for the simulated network.

Endpoints are ``(host, port)`` pairs like UDP; multicast groups are
distinct address objects that the fabric expands to the current member
set.  Addresses are rows (``typing.NamedTuple``): immutable, hashed and
compared in C as the ``(name, port)`` tuple they key routing tables by —
so the two kinds are told apart by type, never by equality.
"""

from __future__ import annotations

from typing import NamedTuple

__all__ = ["Endpoint", "GroupAddress"]


class Endpoint(NamedTuple):
    """A unicast UDP-style endpoint: host name + port number."""

    host: str
    port: int

    def __str__(self) -> str:
        return f"{self.host}:{self.port}"


class GroupAddress(NamedTuple):
    """An IP-multicast-style group address.

    Membership is managed by the :class:`repro.net.network.Network`; the
    ``port`` selects which bound socket on each member host receives the
    datagram, mirroring UDP multicast semantics.
    """

    group: str
    port: int

    def __str__(self) -> str:
        return f"mcast:{self.group}:{self.port}"
