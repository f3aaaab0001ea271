"""The protocol runtime contract (paper §2.3), checked on both runtimes.

The same protocol code must run unchanged against the simulated runtime
(:class:`SiteRuntime`, here over :class:`helpers.RecordingSocket`) and the
native one (threads + loopback UDP sockets).  Each check below runs on
both; a driver hides only how time passes — the kernel runs to
quiescence, or the test waits on the wall clock.
"""

import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from helpers import RecordingSocket

from repro.core.cpu import CpuPool
from repro.core.csrt import SiteRuntime
from repro.core.kernel import Simulator
from repro.core.runtime_api import NativeProtocolRuntime, ProtocolRuntime


class SimulatedDriver:
    """Runtimes of one simulation, whose sockets reach each other."""

    def __init__(self):
        self.sim = Simulator()
        self._fabric = {}

    def runtime(self):
        address = ("site", len(self._fabric))
        socket = RecordingSocket(address=address, fabric=self._fabric)
        return SiteRuntime(self.sim, CpuPool(self.sim, 1), socket)

    def advance(self, seconds):
        self.sim.schedule(seconds, lambda: None)
        self.sim.run()

    def settle(self, done):
        self.sim.run()
        return done()

    def close(self):
        pass


class NativeDriver:
    """Native runtimes on loopback, closed with the test."""

    def __init__(self):
        self._open = []

    def runtime(self):
        runtime = NativeProtocolRuntime(("127.0.0.1", 0))
        runtime.start()
        self._open.append(runtime)
        return runtime

    def advance(self, seconds):
        time.sleep(seconds)

    def settle(self, done, timeout=2.0):
        deadline = time.time() + timeout
        while not done() and time.time() < deadline:
            time.sleep(0.01)
        return done()

    def close(self):
        for runtime in self._open:
            runtime.close()


@pytest.fixture(params=[SimulatedDriver, NativeDriver], ids=["simulated", "native"])
def driver(request):
    driver = request.param()
    yield driver
    driver.close()


class TestContract:
    def test_is_a_protocol_runtime(self, driver):
        assert isinstance(driver.runtime(), ProtocolRuntime)

    def test_now_does_not_go_backwards(self, driver):
        runtime = driver.runtime()
        first = runtime.now()
        driver.advance(0.01)
        assert runtime.now() > first

    def test_cancelled_schedule_does_not_run(self, driver):
        runtime = driver.runtime()
        fired = []
        runtime.schedule(0.05, fired.append, "kept")
        runtime.schedule(0.05, fired.append, "cancelled").cancel()
        assert driver.settle(lambda: fired == ["kept"])
        driver.advance(0.1)
        assert fired == ["kept"]

    def test_send_reaches_the_peer_from_the_local_address(self, driver):
        a, b = driver.runtime(), driver.runtime()
        got = []
        b.set_receiver(lambda source, payload: got.append((source, payload)))
        a.send(b.local_address(), b"ping")
        assert driver.settle(lambda: got != [])
        assert got == [(a.local_address(), b"ping")]



class TestNativeRuntime:
    def test_send_to_list_fans_out(self):
        driver = NativeDriver()
        try:
            a, b, c = driver.runtime(), driver.runtime(), driver.runtime()
            got_b, got_c = [], []
            b.set_receiver(lambda src, p: got_b.append(p))
            c.set_receiver(lambda src, p: got_c.append(p))
            a.send([b.local_address(), c.local_address()], b"multi")
            assert driver.settle(lambda: got_b and got_c)
            assert got_b == [b"multi"]
            assert got_c == [b"multi"]
        finally:
            driver.close()
