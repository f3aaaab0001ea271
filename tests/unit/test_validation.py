"""Unit tests for the Figure 3/4 validation machinery."""

import pytest

from repro.core.metrics import qq_points
from repro.core.validation import (
    csrt_recv_bandwidth_bps,
    csrt_round_trip,
    csrt_send_bandwidth_bps,
    real_recv_bandwidth_bps,
    real_round_trip,
    real_send_bandwidth_bps,
    reference_latency_sample,
)
from repro.tpcc.profiles import CLASSES


class TestReferenceCurves:
    def test_send_bandwidth_grows_with_size(self):
        assert real_send_bandwidth_bps(1024) > real_send_bandwidth_bps(64)

    def test_page_boundary_penalty(self):
        """The real system's write bandwidth dips past 4 KB (Fig 3(a))."""
        just_below = real_send_bandwidth_bps(4096) / 4096
        just_above = real_send_bandwidth_bps(4097) / 4097
        assert just_above < just_below

    def test_recv_capped_by_wire(self):
        assert real_recv_bandwidth_bps(1400) < 100e6

    def test_rtt_monotone_in_size(self):
        assert real_round_trip(4096) > real_round_trip(64)


class TestCsrtCurves:
    def test_send_bandwidth_matches_reference(self):
        """Figure 3(a): CSRT within a few percent of the real curve for
        protocol-relevant sizes (divergence above 4 KB is by design)."""
        for size in (256, 1024, 4096):
            real = real_send_bandwidth_bps(size)
            csrt = csrt_send_bandwidth_bps(size, duration=0.05)
            assert csrt == pytest.approx(real, rel=0.05)

    def test_recv_bandwidth_matches_reference(self):
        for size in (512, 1400):
            real = real_recv_bandwidth_bps(size)
            csrt = csrt_recv_bandwidth_bps(size, duration=0.05)
            assert csrt == pytest.approx(real, rel=0.10)

    def test_round_trip_matches_below_mtu(self):
        for size in (64, 1024):
            real = real_round_trip(size)
            csrt = csrt_round_trip(size, rounds=10)
            assert csrt == pytest.approx(real, rel=0.15)

    def test_mtu_divergence_sign(self):
        """Above the MTU the simulated RTT undershoots the real one when
        MTU enforcement is off (SSFNet's behaviour, Fig 3(c))."""
        real = real_round_trip(4096)
        no_mtu = csrt_round_trip(4096, rounds=10, enforce_mtu=False)
        assert no_mtu < real


class TestReferenceLatencySample:
    def test_sample_positive_and_sized(self):
        sample = reference_latency_sample(CLASSES, count=200)
        assert len(sample) == 200
        assert all(v > 0 for v in sample)

    def test_update_classes_include_commit_io(self):
        update_only = reference_latency_sample(
            ("payment-short",), count=500, seed=1
        )
        readonly_only = reference_latency_sample(
            ("orderstatus-short",), count=500, seed=1
        )
        assert (sum(update_only) / 500) > (sum(readonly_only) / 500)

    def test_qq_against_itself_is_diagonal(self):
        sample = reference_latency_sample(CLASSES, count=500)
        for qa, qb in qq_points(sample, sample, points=20):
            assert qa == pytest.approx(qb)
