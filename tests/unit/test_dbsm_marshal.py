"""Unit tests for termination-message marshaling (paper §3.3)."""

import pytest

from repro.dbsm.marshal import CommitRequest, marshal_request, unmarshal_request


def request(**kwargs):
    defaults = dict(
        origin=2,
        tx_id=77,
        start_seq=41,
        tx_class="payment-long",
        read_set=(10, 20, 30),
        write_set=(20, 25),
        write_bytes=850,
        commit_cpu=1.8e-3,
        commit_sectors=5,
    )
    defaults.update(kwargs)
    return CommitRequest(**defaults)


class TestRoundtrip:
    def test_identity(self):
        req = request()
        assert unmarshal_request(marshal_request(req)) == req

    def test_empty_sets(self):
        req = request(read_set=(), write_set=(), write_bytes=0)
        assert unmarshal_request(marshal_request(req)) == req

    def test_large_sets(self):
        reads = tuple(range(1, 501))
        req = request(read_set=reads, write_set=reads)
        back = unmarshal_request(marshal_request(req))
        assert back.read_set == reads
        assert back.write_set == reads

    def test_unicode_class_name(self):
        req = request(tx_class="classe-ação")
        assert unmarshal_request(marshal_request(req)).tx_class == "classe-ação"


class TestSizing:
    def test_message_carries_value_padding(self):
        """Message size must match real traffic: ids are 8 bytes each and
        written values appear as padding of their true size (§3.3)."""
        small = marshal_request(request(write_bytes=0))
        padded = marshal_request(request(write_bytes=4096))
        assert len(padded) - len(small) == 4096

    def test_id_encoding_is_8_bytes(self):
        base = marshal_request(request(read_set=()))
        extended = marshal_request(request(read_set=(1, 2, 3, 4)))
        assert len(extended) - len(base) == 32

    def test_padding_measured_not_copied(self):
        wire = marshal_request(request(write_bytes=100))
        back = unmarshal_request(wire)
        assert back.write_bytes == 100


class TestErrors:
    def test_truncated_buffer(self):
        wire = marshal_request(request())
        with pytest.raises(Exception):
            unmarshal_request(wire[:10])

    def test_overlong_class_name(self):
        with pytest.raises(ValueError):
            marshal_request(request(tx_class="x" * 70000))


class TestRemoteSpec:
    def test_built_once_per_request_and_factor(self):
        """Every remote replica is handed the same decoded request, so
        the apply-side spec is shared too (it is frozen)."""
        req = request(commit_cpu=2e-3, commit_sectors=3)
        spec = req.remote_spec(0.5)
        assert req.remote_spec(0.5) is spec
        assert spec.commit_cpu == 1e-3 and spec.commit_sectors == 3
        assert (spec.read_set, spec.write_set) == (req.read_set, req.write_set)
        assert spec.operations == ()
        assert req.remote_spec(0.25).commit_cpu == 0.5e-3

    def test_memo_is_not_part_of_the_value(self):
        a, b = request(), request()
        a.remote_spec(0.5)
        assert a == b and hash(a) == hash(b)
        assert marshal_request(a) == marshal_request(b)
