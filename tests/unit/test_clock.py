"""Unit tests for the CPU cost model.

The running job's clock is the site runtime's: see ``test_csrt.py``."""

import pytest

from repro.core.clock import CpuCostModel


class TestCpuCostModel:
    def test_default_send_cost_has_fixed_and_variable_parts(self):
        model = CpuCostModel()
        small = model.cost(CpuCostModel.SEND, 0)
        large = model.cost(CpuCostModel.SEND, 4096)
        assert small > 0
        assert large > small

    def test_register_overrides(self):
        model = CpuCostModel()
        model.register("certify", 1e-6, 2e-9)
        assert model.cost("certify", 1000) == pytest.approx(1e-6 + 2e-6)

    def test_unknown_tag_falls_back_to_timer_cost(self):
        model = CpuCostModel()
        assert model.cost("mystery") == model.cost(CpuCostModel.TIMER)

    def test_noop_tag_is_free(self):
        model = CpuCostModel()
        assert model.cost(CpuCostModel.NOOP, 100000) == 0.0

    def test_negative_cost_rejected(self):
        model = CpuCostModel()
        with pytest.raises(ValueError):
            model.register("bad", -1.0)

    def test_constructor_overrides(self):
        model = CpuCostModel(overrides={CpuCostModel.SEND: (1e-6, 0.0)})
        assert model.cost(CpuCostModel.SEND, 10_000) == pytest.approx(1e-6)
