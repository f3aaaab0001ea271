"""Unit tests for packet capture, its traffic totals and the per-second
traffic that :class:`ResourceSampler` samples from them (Figure 6(c))."""

import pytest

from repro.core.kernel import Simulator
from repro.core.metrics import ResourceSampler, SampleSeries
from repro.net.capture import PacketCapture


def sample_traffic(records, until):
    """Record ``(time, size)`` unicasts on a capture sampled each second."""
    sim = Simulator()
    cap = PacketCapture()
    sampler = ResourceSampler(sim, interval=1.0, capture=cap)
    sampler.start()
    for time, size in records:
        sim.schedule(time, cap.record, time, "a", "b", size, "unicast")
    sim.run(until=until)
    return sampler.series()


class TestPacketCapture:
    def test_records_and_counts(self):
        cap = PacketCapture()
        cap.record(0.5, "a", "b", 100, "unicast")
        cap.record(1.5, "a", "g", 200, "multicast")
        assert cap.total_packets == 2
        assert cap.total_bytes == 300
        assert len(cap.entries) == 2

    def test_drops_not_counted_in_bytes(self):
        cap = PacketCapture()
        cap.record(0.0, "a", "b", 100, "drop")
        assert cap.total_bytes == 0
        assert len(cap.entries) == 1

    def test_sampled_bytes_per_interval(self):
        series = sample_traffic([(0.1, 100), (0.9, 100), (2.5, 300)], until=3.5)
        assert [s.net_bytes for s in series.samples] == [200, 0, 300]

    def test_sampled_net_kbytes_per_second(self):
        series = sample_traffic([(0.5, 1024), (1.5, 1024)], until=2.5)
        assert series.net_kbytes_per_second() == pytest.approx(1.0)

    def test_skip_warmup_buckets(self):
        # Five one-second samples: the steady window drops the first, a
        # warm-up burst ten times the steady rate.
        records = [(0.5, 10240)] + [(t + 0.5, 1024) for t in range(1, 5)]
        series = sample_traffic(records, until=5.5)
        assert len(series.samples) == 5
        assert series.net_kbytes_per_second() == pytest.approx(1.0)

    def test_invalid_bucket_size(self):
        with pytest.raises(ValueError):
            SampleSeries([], interval=0.0)

    def test_filter(self):
        cap = PacketCapture()
        cap.record(0.0, "a", "b", 100, "unicast")
        cap.record(0.0, "c", "g", 100, "multicast")
        multicast = cap.filter(lambda e: e.kind == "multicast")
        assert len(multicast) == 1
        assert multicast[0].source == "c"

    def test_dump_format(self):
        cap = PacketCapture()
        cap.record(1.25, "a:1", "b:2", 128, "unicast")
        line = cap.dump()
        assert "a:1 > b:2" in line
        assert "length 128" in line

    def test_keep_entries_false_still_counts(self):
        cap = PacketCapture(keep_entries=False)
        cap.record(0.0, "a", "b", 100, "unicast")
        assert cap.entries == []
        assert cap.total_bytes == 100

    def test_tally_counts_without_an_entry(self):
        cap = PacketCapture()
        cap.tally(100, "unicast")
        cap.tally(60, "multicast")
        cap.tally(50, "drop")
        cap.tally(40, "partition")
        assert cap.entries == []
        assert (cap.total_bytes, cap.total_packets) == (160, 2)
