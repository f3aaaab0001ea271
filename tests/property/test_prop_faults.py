"""Property tests: a fault plan is a sequence of actions.

``fault_plans()`` draws *valid* plans — up to three crash and three
partition episodes per site on a 0.5 s grid in [0, 120], each kind's
last episode possibly left open, so crash episodes fall inside, across
and outside partition episodes — together with the rate faults.  Fed
unfiltered (any order, any action string, any time, and valid lists
with one entry broken), ``FaultPlan`` either builds a well-formed plan
or raises ``ValueError``, never another exception.  The last tests pin
the stored encoding of every built-in plan to its ten-key literal, so
spec hashes and stored cells keep matching.
"""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.faults import FAULT_ACTIONS, FaultPlan
from repro.core.scenarios import fault_config, safety_fault_plans

KINDS = {"crash": "recover", "partition": "heal"}


@st.composite
def episode_actions(draw, kind):
    """One kind's actions: alternating, opening first, strictly later."""
    ticks = draw(st.lists(st.integers(0, 240), unique=True, max_size=6))
    pair = (kind, KINDS[kind])
    return [(tick / 2, pair[i % 2]) for i, tick in enumerate(sorted(ticks))]


@st.composite
def fault_plans(draw):
    """``(plan keyword arguments, the same actions in a drawn order)``."""
    actions = draw(episode_actions("crash")) + draw(episode_actions("partition"))
    ordered = sorted(actions, key=lambda e: (e[0], FAULT_ACTIONS.index(e[1])))
    loss = draw(st.sampled_from(["random_loss_rate", "bursty_loss_rate"]))
    kwargs = {
        "clock_drift_rate": draw(st.sampled_from([0.0, -0.5, 0.1])),
        "scheduling_latency_max": draw(st.sampled_from([0.0, 0.01])),
        loss: draw(st.sampled_from([0.0, 0.05])),
        "actions": tuple(ordered),
        "seed": draw(st.integers(0, 2**31)),
    }
    return kwargs, draw(st.permutations(actions))


@given(fault_plans())
@settings(max_examples=120)
def test_valid_plan_constructs_and_round_trips(drawn):
    kwargs, shuffled = drawn
    plan = FaultPlan(**kwargs)
    assert plan.actions == kwargs["actions"]
    assert FaultPlan(**dict(kwargs, actions=shuffled)) == plan
    stored = plan.to_dict()
    assert json.loads(json.dumps(stored)) == stored
    assert FaultPlan.from_dict(stored) == plan
    assert plan.has_faults() == bool(
        plan.actions or plan.clock_drift_rate or plan.scheduling_latency_max
        or plan.random_loss_rate or plan.bursty_loss_rate
    )
    single = True
    for kind in KINDS:
        episodes = plan.episodes(kind)
        bounds = [t for episode in episodes for t in episode]
        assert bounds == sorted(bounds) and len(set(bounds)) == len(bounds)
        assert all(end < math.inf for _, end in episodes[:-1])
        single = single and len(episodes) <= 1
    assert ("actions" in stored) == (not single)
    assert len(stored) == 10 + (not single)


any_time = st.one_of(
    st.integers(-4, 240).map(lambda t: t / 2),
    st.sampled_from([math.inf, -math.inf, math.nan]),
    st.floats(),
)
any_name = st.one_of(st.sampled_from(FAULT_ACTIONS), st.text(max_size=9))


@st.composite
def unfiltered_actions(draw):
    """Any list of entries, or a valid list with one entry's time or
    name redrawn from anything or its time set to the entry before it —
    the draws next to a valid plan."""
    anything = st.lists(st.tuples(any_time, any_name), max_size=8)
    valid = fault_plans().map(lambda drawn: list(drawn[0]["actions"]))
    actions = draw(st.one_of(anything, valid, valid))
    if actions and draw(st.booleans()):
        i = draw(st.integers(0, len(actions) - 1))
        time, name = actions[i]
        actions[i] = draw(st.sampled_from(
            [(draw(any_time), name), (time, draw(any_name)), (actions[i - 1][0], name)]
        ))
    return actions


@given(unfiltered_actions())
@settings(max_examples=150)
def test_unfiltered_actions_construct_or_raise_value_error(drawn):
    try:
        plan = FaultPlan(actions=drawn)
    except ValueError:
        return
    assert sorted(plan.actions) == sorted(drawn)
    for kind, closing in KINDS.items():
        steps = [entry for entry in plan.actions if entry[1] in (kind, closing)]
        times = [t for t, _ in steps]
        pattern = [(kind, closing)[i % 2] for i in range(len(steps))]
        assert [a for _, a in steps] == pattern
        assert times == sorted(set(times))
        assert all(0 <= t < math.inf for t in times)
    assert FaultPlan.from_dict(plan.to_dict()) == plan


rates = st.floats(-1.0, 1.0)


@given(st.floats(-2.0, 1.0), rates, rates, rates)
@settings(max_examples=50)
def test_unfiltered_rates_construct_or_raise_value_error(
    drift, latency, random, bursty
):
    try:
        plan = FaultPlan(
            clock_drift_rate=drift,
            scheduling_latency_max=latency,
            random_loss_rate=random,
            bursty_loss_rate=bursty,
        )
    except ValueError:
        return
    assert drift > -1 and min(latency, random, bursty) >= 0
    assert not (random > 0 and bursty > 0)
    assert FaultPlan.from_dict(plan.to_dict()) == plan


#: The ten-key encoding that stored cell files and spec hashes use, key
#: for key in this order; every built-in plan overrides only the keys it
#: sets.
TEN_KEYS = {
    "clock_drift_rate": 0.0,
    "scheduling_latency_max": 0.0,
    "random_loss_rate": 0.0,
    "bursty_loss_rate": 0.0,
    "bursty_loss_burst": 5.0,
    "crash_at": None,
    "recover_at": None,
    "partition_at": None,
    "heal_at": None,
    "seed": 7,
}

SAFETY_PLANS = {
    "clock-drift": {1: {"clock_drift_rate": 0.1, "seed": 5}},
    "scheduling-latency": {1: {"scheduling_latency_max": 0.01, "seed": 5}},
    "random-loss": {
        i: {"random_loss_rate": 0.05, "seed": 5 + i} for i in range(3)
    },
    "bursty-loss": {
        i: {"bursty_loss_rate": 0.05, "seed": 5 + i} for i in range(3)
    },
    "crash-member": {2: {"crash_at": 20.0}},
    "crash-sequencer": {0: {"crash_at": 20.0}},
    "crash-recover-member": {2: {"crash_at": 20.0, "recover_at": 35.0, "seed": 5}},
    "crash-recover-sequencer": {
        0: {"crash_at": 20.0, "recover_at": 35.0, "seed": 5}
    },
    "partition-heal-member": {
        2: {"partition_at": 20.0, "heal_at": 40.0, "seed": 5}
    },
    "partition-heal-sequencer": {
        0: {"partition_at": 20.0, "heal_at": 40.0, "seed": 5}
    },
}

FAULT_CONFIG_PLANS = {
    "crash-recover": {2: {"crash_at": 20.0, "recover_at": 35.0}},
    "partition-heal": {2: {"partition_at": 20.0, "heal_at": 35.0}},
}


def assert_stored_as(plans, expected):
    assert set(plans) == set(expected)
    for site, plan in plans.items():
        literal = {**TEN_KEYS, **expected[site]}
        stored = plan.to_dict()
        assert list(stored.items()) == list(literal.items())
        assert FaultPlan.from_dict(literal) == plan


@pytest.mark.parametrize("name", SAFETY_PLANS)
def test_safety_plans_keep_their_ten_key_encoding(name):
    assert_stored_as(safety_fault_plans()[name], SAFETY_PLANS[name])


@pytest.mark.parametrize("kind", FAULT_CONFIG_PLANS)
def test_fault_config_plans_keep_their_ten_key_encoding(kind):
    assert_stored_as(fault_config(kind).faults, FAULT_CONFIG_PLANS[kind])


def test_old_fields_are_gone():
    plan = FaultPlan(actions=((1.0, "crash"), (2.0, "recover")))
    for name in ("crash_at", "recover_at", "partition_at", "heal_at"):
        with pytest.raises(AttributeError):
            getattr(plan, name)
        with pytest.raises(TypeError):
            FaultPlan(**{name: 1.0})
