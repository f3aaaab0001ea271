"""Unit: named seed-stream derivation (core.rng)."""

import random

import pytest

from repro.core import rng as rng_mod
from repro.core.rng import derive_rng, derive_seed, stream_multiplier


class TestDeriveSeed:
    def test_reproduces_historical_derivations(self):
        """The streams must match the pre-helper hand-rolled constants
        bit-for-bit, or every recorded scenario changes."""
        assert derive_seed(42, "workload", 1) == 42 * 77 + 1
        assert derive_seed(42, "faults", 2) == 42 * 31 + 2

    def test_derive_rng_equals_seeded_random(self):
        ours = derive_rng(7, "workload", 3)
        theirs = random.Random(7 * 77 + 3)
        assert [ours.random() for _ in range(5)] == [
            theirs.random() for _ in range(5)
        ]

    def test_unknown_stream_is_an_error(self):
        with pytest.raises(ValueError, match="registered"):
            derive_seed(1, "no-such-stream")


class TestStreamTable:
    def test_multipliers_are_pairwise_distinct(self):
        """A new protocol reusing an existing multiplier would correlate
        its randomness with another component's — the table refuses it."""
        owners = {}
        for stream, multiplier in rng_mod._STREAMS.items():
            assert multiplier not in owners, (
                f"stream {stream!r} reuses multiplier {multiplier} "
                f"of stream {owners[multiplier]!r}"
            )
            owners[multiplier] = stream

    def test_every_stream_depends_on_the_seed(self):
        """A zero multiplier would hand every seed the same randomness,
        so a seed sweep would repeat one run."""
        for stream, multiplier in rng_mod._STREAMS.items():
            assert isinstance(multiplier, int) and multiplier > 0, stream
            assert derive_seed(1, stream) != derive_seed(2, stream)

    def test_table_entry_derives(self, monkeypatch):
        monkeypatch.setitem(rng_mod._STREAMS, "test-stream", 99989)
        assert stream_multiplier("test-stream") == 99989
        assert derive_seed(2, "test-stream", 1) == 2 * 99989 + 1
