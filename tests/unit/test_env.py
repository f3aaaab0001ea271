"""Unit tests for the consolidated REPRO_* knob parsing (core/env.py).

Every knob misparse must be reported identically: a RuntimeWarning
naming the knob, the offending value and the value actually used —
once per distinct misconfiguration per process — followed by a clamp
or a fall-back to the default.
"""

import warnings

import pytest

from repro.core import env
from repro.core.env import env_float, env_int, env_str


@pytest.fixture(autouse=True)
def fresh_warn_registry(monkeypatch):
    monkeypatch.setattr(env, "_WARNED", set())


class TestEnvFloat:
    def test_unset_returns_default(self, monkeypatch):
        monkeypatch.delenv("X_FLOAT", raising=False)
        assert env_float("X_FLOAT", 0.3, 0.01, 1.0) == 0.3

    def test_parses_in_range(self, monkeypatch):
        monkeypatch.setenv("X_FLOAT", "0.5")
        with warnings.catch_warnings(record=True) as captured:
            warnings.simplefilter("always")
            assert env_float("X_FLOAT", 0.3, 0.01, 1.0) == 0.5
        assert captured == []

    def test_garbage_warns_and_falls_back(self, monkeypatch):
        monkeypatch.setenv("X_FLOAT", "O.5")
        with pytest.warns(RuntimeWarning, match="X_FLOAT.*not a number"):
            assert env_float("X_FLOAT", 0.3, 0.01, 1.0) == 0.3

    def test_nan_warns_and_falls_back(self, monkeypatch):
        monkeypatch.setenv("X_FLOAT", "nan")
        with pytest.warns(RuntimeWarning, match="not a number"):
            assert env_float("X_FLOAT", 0.3, 0.01, 1.0) == 0.3

    def test_out_of_range_warns_and_clamps(self, monkeypatch):
        monkeypatch.setenv("X_FLOAT", "99")
        with pytest.warns(RuntimeWarning, match="clamped to 1.0"):
            assert env_float("X_FLOAT", 0.3, 0.01, 1.0) == 1.0

    def test_warns_once_per_distinct_value(self, monkeypatch):
        monkeypatch.setenv("X_FLOAT", "junk")
        with pytest.warns(RuntimeWarning):
            env_float("X_FLOAT", 0.3, 0.01, 1.0)
        with warnings.catch_warnings(record=True) as captured:
            warnings.simplefilter("always")
            env_float("X_FLOAT", 0.3, 0.01, 1.0)
        assert captured == []
        # …but a *different* bad value warns again
        monkeypatch.setenv("X_FLOAT", "junk2")
        with pytest.warns(RuntimeWarning):
            env_float("X_FLOAT", 0.3, 0.01, 1.0)


class TestEnvInt:
    def test_unset_returns_default(self, monkeypatch):
        monkeypatch.delenv("X_INT", raising=False)
        assert env_int("X_INT", 1, minimum=1) == 1

    def test_parses(self, monkeypatch):
        monkeypatch.setenv("X_INT", "4")
        assert env_int("X_INT", 1, minimum=1) == 4

    def test_garbage_warns_and_falls_back(self, monkeypatch):
        monkeypatch.setenv("X_INT", "many")
        with pytest.warns(RuntimeWarning, match="X_INT.*not an integer"):
            assert env_int("X_INT", 1, minimum=1) == 1

    def test_below_minimum_warns_and_clamps(self, monkeypatch):
        monkeypatch.setenv("X_INT", "0")
        with pytest.warns(RuntimeWarning, match="below 1; clamped"):
            assert env_int("X_INT", 1, minimum=1) == 1


class TestEnvStr:
    def test_empty_counts_as_unset(self, monkeypatch):
        monkeypatch.setenv("X_STR", "")
        assert env_str("X_STR") is None
        assert env_str("X_STR", "fallback") == "fallback"

    def test_value_passes_through(self, monkeypatch):
        monkeypatch.setenv("X_STR", "results")
        assert env_str("X_STR") == "results"


class TestKnobsRewired:
    """The three real knobs all route through these helpers."""

    def test_scale_uses_env_float(self, monkeypatch):
        from repro.core.scenarios import scale

        monkeypatch.setenv("REPRO_SCALE", "not-a-number")
        with pytest.warns(RuntimeWarning, match="REPRO_SCALE"):
            assert scale() == 0.3

    def test_workers_garbage_warns(self, monkeypatch):
        from repro.runner import resolve_workers

        monkeypatch.setenv("REPRO_WORKERS", "many")
        with pytest.warns(RuntimeWarning, match="REPRO_WORKERS"):
            assert resolve_workers() == 1

    def test_artifact_dir_empty_is_unset(self, monkeypatch):
        from repro.runner.runner import _resolve_store

        monkeypatch.setenv("REPRO_ARTIFACT_DIR", "")
        assert _resolve_store(None, "campaign") is None
