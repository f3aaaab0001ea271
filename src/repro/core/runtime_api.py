"""The protocol-facing abstraction layer (paper §2.3).

Protocol code — group communication and certification — is written
against this narrow, single-threaded interface providing job scheduling,
clock access and a simplified datagram network.  The interface is
implemented twice, exactly as in the paper:

* :class:`repro.core.csrt.SiteRuntime` — the centralized simulation
  runtime itself, sending through its site's simulated socket, used for
  all experiments;
* :class:`NativeProtocolRuntime` — a bridge to the native platform
  (``threading.Timer`` for scheduling, ``time`` for the clock and
  ``socket`` datagrams), the analogue of the paper's ``java.util.Timer`` /
  ``java.lang.System`` / ``java.net.DatagramSocket`` bridge.  It lets the
  very same protocol classes run on a real network.

Because the protocol stack only ever touches :class:`ProtocolRuntime`,
moving it between simulation and deployment requires no code changes —
that portability is the property the paper's methodology depends on.
"""

from __future__ import annotations

import socket
import threading
import time
from typing import Any, Callable, List, Optional, Tuple

__all__ = [
    "ProtocolRuntime",
    "NativeProtocolRuntime",
]

ReceiveHandler = Callable[[Any, bytes], None]


class ProtocolRuntime:
    """What protocol implementations are allowed to see of the world."""

    def now(self) -> float:
        """Current time in seconds (simulated or wall-clock)."""
        raise NotImplementedError

    def schedule(self, delay: float, fn: Callable[..., None], *args: Any):
        """Run ``fn(*args)`` after ``delay`` seconds; returns a handle
        with a ``cancel()`` method."""
        raise NotImplementedError

    def send(self, dest: Any, payload: bytes) -> None:
        """Send a datagram to ``dest``.  The simulated fabric takes an
        :class:`~repro.net.address.Endpoint` or a
        :class:`~repro.net.address.GroupAddress` (a multicast group
        send); the native runtime takes an address or a list of
        addresses, which it fans out as one unicast each."""
        raise NotImplementedError

    def set_receiver(self, handler: ReceiveHandler) -> None:
        """Install the handler invoked for each incoming datagram."""
        raise NotImplementedError

    def local_address(self) -> Any:
        """This endpoint's own address."""
        raise NotImplementedError

    def charge(self, seconds: float) -> None:
        """Declare ``seconds`` of CPU work (no-op outside the simulator)."""


class NativeProtocolRuntime(ProtocolRuntime):
    """Bridge to real timers and UDP sockets.

    A single dispatch lock serializes timer callbacks and socket receives,
    preserving the single-threaded execution model protocol code assumes.
    Intended for small-scale interoperability demos and the
    ``examples/native_runtime_demo.py`` walkthrough; experiments use the
    simulated bridge.
    """

    _POLL_TIMEOUT = 0.05

    def __init__(self, bind: Tuple[str, int] = ("127.0.0.1", 0)):
        self._socket = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self._socket.bind(bind)
        self._socket.settimeout(self._POLL_TIMEOUT)
        self._address = self._socket.getsockname()
        self._handler: Optional[ReceiveHandler] = None
        self._lock = threading.RLock()
        self._timers: List[threading.Timer] = []
        self._running = False
        self._reader: Optional[threading.Thread] = None
        self._epoch = time.perf_counter()

    # -- lifecycle ------------------------------------------------------
    def start(self) -> None:
        """Start the receive loop (idempotent)."""
        if self._running:
            return
        self._running = True
        self._reader = threading.Thread(target=self._read_loop, daemon=True)
        self._reader.start()

    def close(self) -> None:
        self._running = False
        with self._lock:
            for timer in self._timers:
                timer.cancel()
            self._timers.clear()
        if self._reader is not None:
            self._reader.join(timeout=1.0)
        self._socket.close()

    def __enter__(self) -> "NativeProtocolRuntime":
        self.start()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- ProtocolRuntime ------------------------------------------------
    def now(self) -> float:
        return time.perf_counter() - self._epoch

    def schedule(self, delay: float, fn: Callable[..., None], *args: Any):
        def locked_fire() -> None:
            with self._lock:
                if self._running:
                    fn(*args)

        timer = threading.Timer(delay, locked_fire)
        timer.daemon = True
        with self._lock:
            self._timers = [t for t in self._timers if t.is_alive()]
            self._timers.append(timer)
        timer.start()
        return timer  # threading.Timer already has .cancel()

    def send(self, dest: Any, payload: bytes) -> None:
        targets = dest if isinstance(dest, list) else [dest]
        for target in targets:
            self._socket.sendto(payload, tuple(target))

    def set_receiver(self, handler: ReceiveHandler) -> None:
        self._handler = handler

    def local_address(self) -> Tuple[str, int]:
        return self._address

    # -- internals ------------------------------------------------------
    def _read_loop(self) -> None:
        while self._running:
            try:
                payload, source = self._socket.recvfrom(65536)
            except socket.timeout:
                continue
            except OSError:
                break
            with self._lock:
                if self._handler is not None and self._running:
                    self._handler(source, payload)
