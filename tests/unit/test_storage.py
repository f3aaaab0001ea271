"""Unit tests for the storage element (paper §3.1, §4.1)."""

import pytest

from repro.core.kernel import Simulator
from repro.db.storage import Storage


def make_storage(sim, concurrency=4, latency=1e-3):
    return Storage(sim, sector_latency=latency, concurrency=concurrency)


class TestReads:
    def test_cache_hit_is_instant_and_free(self):
        sim = Simulator()
        storage = make_storage(sim)
        done = []
        storage.read(4096)._add_waiter(lambda v: done.append(sim.now))
        sim.run()
        assert done == [0.0]
        assert storage.stats.sectors_read == 0
        assert storage.stats.cache_hits == 1

    def test_zero_byte_read_completes(self):
        sim = Simulator()
        storage = make_storage(sim)
        done = []
        storage.read(0)._add_waiter(lambda v: done.append(True))
        sim.run()
        assert done == [True]


class TestWrites:
    def test_writes_never_cached(self):
        sim = Simulator()
        storage = make_storage(sim, latency=1e-3)
        done = []
        storage.write(100)._add_waiter(lambda v: done.append(sim.now))
        sim.run()
        assert done == [pytest.approx(1e-3)]
        assert storage.stats.sectors_written == 1

    def test_write_sectors_batches(self):
        sim = Simulator()
        storage = make_storage(sim, latency=1e-3, concurrency=4)
        done = []
        storage.write_sectors(8)._add_waiter(lambda v: done.append(sim.now))
        sim.run()
        # 8 sectors on 4 slots: two waves of 1 ms
        assert done == [pytest.approx(2e-3)]

    def test_concurrency_limits_parallelism(self):
        sim = Simulator()
        storage = make_storage(sim, latency=1e-3, concurrency=2)
        finish = []
        for _ in range(4):
            storage.write(10)._add_waiter(lambda v: finish.append(sim.now))
        sim.run()
        assert finish == pytest.approx([1e-3, 1e-3, 2e-3, 2e-3])


class TestConfiguration:
    def test_max_bandwidth_matches_paper_calibration(self):
        """Defaults encode the IOzone measurement: 9.486 MB/s (§4.1)."""
        storage = Storage(Simulator())
        assert storage.max_bandwidth_bps == pytest.approx(9.486e6, rel=0.01)

    def test_utilization(self):
        sim = Simulator()
        storage = make_storage(sim, latency=1e-3, concurrency=2)
        storage.write(10)
        sim.run()
        assert storage.utilization(1e-3) == pytest.approx(0.5)

    def test_invalid_parameters(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            Storage(sim, sector_latency=0.0)
        with pytest.raises(ValueError):
            Storage(sim, concurrency=0)

    def test_queue_depth_visible(self):
        sim = Simulator()
        storage = make_storage(sim, latency=1e-3, concurrency=1)
        storage.write(10)
        storage.write(10)
        assert storage.queue_depth() == 1

    def test_counters_follow_the_clock_not_the_submission(self):
        """A sector counts — busy time, bytes, queue — from the instant
        it starts, whoever looks and whenever."""
        sim = Simulator()
        storage = make_storage(sim, latency=1e-3, concurrency=2)
        storage.write_sectors(5)  # starts at 0, 0, 1 ms, 1 ms, 2 ms
        assert storage.stats.sectors_written == 2
        assert storage.queue_depth() == 3
        sim.run(until=1.5e-3)
        assert storage.stats.sectors_written == 4
        assert storage.stats.bytes_transferred == 4 * 4096
        assert storage.queue_depth() == 1
        assert storage.utilization(2e-3) == pytest.approx(1.0)
        assert storage.utilization(4e-3) == pytest.approx(0.5)
        sim.run()
        assert sim.now == pytest.approx(3e-3)
        assert storage.stats.sectors_written == 5
        assert storage.stats.busy_time == pytest.approx(5e-3)
