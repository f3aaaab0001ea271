"""UDP-style sockets over the simulated fabric.

The simplified network interface the protocol abstraction layer exposes
(paper §2.3) bottoms out here when running under simulation: a socket is
a bound port on a host, sends are fire-and-forget datagrams, and a
receive callback is invoked per arriving datagram.
"""

from __future__ import annotations

from typing import Callable

from .address import Endpoint, GroupAddress
from .network import Destination, Host

__all__ = ["UdpSocket"]

ReceiveCallback = Callable[[Endpoint, bytes], None]


class UdpSocket:
    """A bound datagram socket on a simulated host."""

    def __init__(self, host: Host, port: int):
        self.host = host
        self.port = port
        self._closed = False
        host.bind(port, None)  # the port is taken; datagrams are dropped

    @property
    def address(self) -> Endpoint:
        return Endpoint(self.host.name, self.port)

    def set_receiver(self, callback: ReceiveCallback) -> None:
        """Bind ``callback`` to the port itself: the host hands it every
        arriving datagram directly, until :meth:`close` unbinds the port."""
        if not self._closed:
            self.host.unbind(self.port)
            self.host.bind(self.port, callback)

    def send(self, dest: Destination, payload: bytes) -> None:
        if self._closed:
            raise RuntimeError("socket is closed")
        self.host.network.route(self.host, self.port, dest, payload)

    def join(self, group: GroupAddress) -> None:
        """Subscribe this socket's host to a multicast group."""
        self.host.network.join(group, self.host.name)

    def leave(self, group: GroupAddress) -> None:
        self.host.network.leave(group, self.host.name)

    def close(self) -> None:
        if not self._closed:
            self.host.unbind(self.port)
            self._closed = True
