"""Unit tests for the CPU cost model.

The running job's clock is the site runtime's: see ``test_csrt.py``."""

import ast
from pathlib import Path

import pytest

import repro
from repro.core.clock import CpuCostModel

#: Methods that hand a job tag to the cost model.
_TAG_SINKS = ("submit_real", "schedule", "cost")


def _resolve(node):
    """A tag expression's value: a literal or ``CpuCostModel.X``; None
    for a pass-through variable."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "CpuCostModel"
    ):
        return getattr(CpuCostModel, node.attr)
    return None


def tags_in_src():
    """Every tag ``src/`` prices: ``tag=`` arguments and ``tag``
    defaults of the sinks, and the first argument of ``cost(...)``."""
    found = set()
    for path in Path(repro.__file__).parent.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            exprs = []
            if isinstance(node, ast.Call):
                name = getattr(node.func, "attr", getattr(node.func, "id", ""))
                if name in _TAG_SINKS:
                    exprs += [kw.value for kw in node.keywords if kw.arg == "tag"]
                    if name == "cost" and node.args:
                        exprs.append(node.args[0])
            elif isinstance(node, ast.FunctionDef) and node.name in _TAG_SINKS:
                a = node.args
                defaults = [None] * (len(a.args) - len(a.defaults)) + a.defaults
                pairs = zip(a.args + a.kwonlyargs, defaults + a.kw_defaults)
                exprs += [d for p, d in pairs if p.arg == "tag" and d]
            found.update(t for t in map(_resolve, exprs) if t is not None)
    return found


class TestCpuCostModel:
    def test_default_send_cost_has_fixed_and_variable_parts(self):
        model = CpuCostModel()
        small = model.cost(CpuCostModel.SEND, 0)
        large = model.cost(CpuCostModel.SEND, 4096)
        assert small > 0
        assert large > small

    def test_unknown_tag_raises(self):
        with pytest.raises(KeyError, match="mystery"):
            CpuCostModel().cost("mystery")

    @pytest.mark.parametrize("nbytes", [0, 64 * 1024])
    def test_marshal_costs_what_timer_costs(self, nbytes):
        model = CpuCostModel()
        assert model.cost(CpuCostModel.MARSHAL, nbytes) == model.cost(
            CpuCostModel.TIMER, nbytes
        )

    def test_every_tag_in_src_is_priced(self):
        found = tags_in_src()
        # the scan sees the multicast, the runtime defaults and the drivers
        assert {CpuCostModel.MARSHAL, CpuCostModel.TIMER, CpuCostModel.NOOP} <= found
        assert found <= set(CpuCostModel().tags())

    def test_noop_tag_is_free(self):
        model = CpuCostModel()
        assert model.cost(CpuCostModel.NOOP, 100000) == 0.0

    @pytest.mark.parametrize("tag", CpuCostModel.tags())
    def test_every_price_is_non_negative_and_grows_with_size(self, tag):
        """The fixed table prices no job below zero, and a larger
        payload never costs less."""
        small, large = CpuCostModel.cost(tag, 0), CpuCostModel.cost(tag, 64 * 1024)
        assert 0.0 <= small <= large
