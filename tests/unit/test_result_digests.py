"""Pinned simulated results: "bit-identical" as an assertion.

``test_event_budget.py`` pins the *work* a cell costs; this file pins
what the cell *produces*: the sha256 of the canonical
``ScenarioResult.to_dict()`` JSON (the benchmark's ``result_digest``)
of six small cells covering the centralized baseline, all three
registered protocols and two fault-loads with every monitor armed, and
of two saturated 6-site cells (2 000 clients: a deep disk queue and a
30-entry certification window, which 30 clients never build), and of
two 600-client ``partial`` cells with cross-fragment histories
(``fragments`` 3 round-robin and 2 range: 174 and 22 transactions that
vote, reserve and decide across groups; read-set escalation at 20, so
table locks route everywhere).  An
optimisation must leave every digest alone; a change that legitimately
moves simulated results re-baselines them and says why in the PR.

Each entry also pins the value of every plain metric and of
``abort_rate[<class>]`` for each class the cell logs (``null`` for
NaN), so a change to how a number is *derived* from the stored result
shows even when the result itself is untouched.
"""

import hashlib
import json
import math
from pathlib import Path

import pytest

from repro.analysis.metrics import metric_value
from repro.core.experiment import Scenario, ScenarioConfig
from repro.core.scenarios import safety_fault_plans

GOLDEN = Path(__file__).resolve().parent.parent / "golden" / "result_digests.json"
DIGESTS = json.loads(GOLDEN.read_text())


def build_config(entry) -> ScenarioConfig:
    kwargs = dict(entry["config"])
    if "monitors" in kwargs:
        kwargs["monitors"] = tuple(kwargs["monitors"])
    if "fault" in entry:
        kwargs["faults"] = safety_fault_plans(sites=kwargs["sites"])[entry["fault"]]
    return ScenarioConfig(**kwargs)


def result_digest(result) -> str:
    canonical = json.dumps(result.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


@pytest.mark.parametrize("cell", sorted(DIGESTS))
def test_result_digest_matches_golden(cell):
    entry = DIGESTS[cell]
    result = Scenario(build_config(entry)).run()
    new = result_digest(result)
    old = entry["sha256"]
    assert new == old, (
        f"{cell}: simulated result changed (sha256 {old[:12]}… -> {new[:12]}…).  "
        f"A performance change must not move it.  If the change is intended — "
        f"the model itself changed and the PR says how — re-baseline by setting "
        f"\"sha256\": \"{new}\" for \"{cell}\" in tests/golden/result_digests.json."
    )
    values = {}
    for name in entry["metrics"]:
        value = metric_value(result, name)
        values[name] = None if math.isnan(value) else value
    assert values == entry["metrics"]


def test_cpu_accounting_when_the_run_stops_inside_a_real_job():
    """The drain time is chosen so that ``sim.stop`` fires in the middle
    of the receive job of one multicast at all three sites: the CPUs end
    the run busy, their last job unfinished.  Utilization — the served
    slice of that job included — and the sampled CPU usage are pinned to
    the values of the commit before completion events became lazy."""
    scenario = Scenario(ScenarioConfig(
        sites=3, protocol="dbsm", clients=30, transactions=60, seed=42,
        drain_time=5.003658420999894,
    ))
    result = scenario.run()
    assert scenario.sim.now == 28.003658420999894
    cpus = [site.cpus.cpus[0] for site in scenario.sites]
    assert [cpu.current_kind for cpu in cpus] == ["real"] * 3
    assert [site.cpus.utilization(scenario.sim.now) for site in scenario.sites] == [
        {"sim": 0.016397320185505875, "real": 0.0009490730318207971, "total": 0.017346393217326672},
        {"sim": 0.00921050556870909, "real": 0.0009197102968659192, "total": 0.010130215865575009},
        {"sim": 0.01382912917761457, "real": 0.0009222814252132842, "total": 0.014751410602827853},
    ]
    assert metric_value(result, "cpu_total") == 0.017193059662412066
    assert metric_value(result, "cpu_protocol") == 0.0009663239999946191
