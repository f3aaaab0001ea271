"""Unit tests for gossip stability detection (paper §3.4)."""

import pytest

from repro.gcs.messages import StabilityMsg
from repro.gcs.stability import _INFINITY as INFINITY, StabilityState


def gossip_between(a: StabilityState, b: StabilityState) -> None:
    b.merge(a.snapshot())
    a.merge(b.snapshot())


class TestRounds:
    def test_round_completes_when_all_vote(self):
        members = (0, 1, 2)
        states = [StabilityState(m, members) for m in members]
        votes = {0: {0: 5, 1: 3, 2: 4}, 1: {0: 6, 1: 3, 2: 2}, 2: {0: 5, 1: 4, 2: 4}}
        for state in states:
            state.vote(votes[state.member_id])
        # exchange gossip until everyone saw everyone
        for _ in range(3):
            gossip_between(states[0], states[1])
            gossip_between(states[1], states[2])
            gossip_between(states[0], states[2])
        for state in states:
            # stable = element-wise min of the votes
            assert state.stable == {0: 5, 1: 3, 2: 2}
        # whoever merged the last vote completed the round; the others
        # inherit the result (and the new round id) through gossip.
        assert any(state.rounds_completed >= 1 for state in states)

    def test_incomplete_round_collects_nothing(self):
        members = (0, 1, 2)
        a = StabilityState(0, members)
        b = StabilityState(1, members)
        a.vote({0: 5, 1: 5, 2: 5})
        b.vote({0: 5, 1: 5, 2: 5})
        gossip_between(a, b)
        # member 2 never voted: S stays at zero
        assert all(v == 0 for v in a.stable.values())

    def test_only_contiguous_prefix_collected(self):
        """The vote is the contiguous prefix: a single hole at one member
        pins S below it for everyone (the paper's §5.3 bottleneck)."""
        members = (0, 1)
        a = StabilityState(0, members)
        b = StabilityState(1, members)
        a.vote({0: 100, 1: 100})
        b.vote({0: 2, 1: 100})  # member 1 is missing message 3 from 0
        gossip_between(a, b)
        gossip_between(a, b)
        assert a.stable[0] == 2
        assert a.stable[1] == 100

    def test_stability_is_monotonic(self):
        members = (0, 1)
        a = StabilityState(0, members)
        b = StabilityState(1, members)
        for level in (5, 3, 9):
            a.vote({0: level, 1: level})
            b.vote({0: level, 1: level})
            gossip_between(a, b)
            gossip_between(a, b)
        assert a.stable[0] >= 5  # never regressed below an earlier round


class TestMerge:
    def test_higher_round_adopted(self):
        a = StabilityState(0, (0, 1))
        msg = StabilityMsg(
            sender=1, view_id=0, round_id=9, stable=(4, 4), voted=(1,), mins=(7, 7)
        )
        a.merge(msg)
        assert a.round_id == 9
        assert a.stable == {0: 4, 1: 4}

    def test_stale_round_still_raises_stability(self):
        a = StabilityState(0, (0, 1))
        a.round_id = 10
        msg = StabilityMsg(
            sender=1, view_id=0, round_id=2, stable=(6, 6), voted=(1,), mins=(9, 9)
        )
        a.merge(msg)
        assert a.stable == {0: 6, 1: 6}
        assert a.round_id == 10

    def test_short_vector_padded(self):
        a = StabilityState(0, (0, 1, 2))
        msg = StabilityMsg(
            sender=1, view_id=0, round_id=1, stable=(3,), voted=(1,), mins=(5,)
        )
        a.merge(msg)  # must not raise
        assert a.stable[0] == 3

    def test_shorter_peer_vector_leaves_the_missing_slots_alone(self):
        """Mid view change a peer's vectors cover fewer members: the
        slots it lacks are the neutral element of every fold — for the
        same round (min), for stability (max) and when its round is
        adopted wholesale."""
        a = StabilityState(0, (0, 1, 2))
        a.vote({0: 9, 1: 8, 2: 7})
        a.stable = {0: 1, 1: 1, 2: 6}
        a.merge(StabilityMsg(
            sender=1, view_id=0, round_id=1, stable=(4, 5), voted=(1,), mins=(3, 9)
        ))
        assert a.mins == {0: 3, 1: 8, 2: 7}
        assert a.stable == {0: 4, 1: 5, 2: 6}
        assert a.voted == {0, 1}
        a.merge(StabilityMsg(
            sender=1, view_id=0, round_id=5, stable=(), voted=(1, 7), mins=(2,)
        ))
        assert a.round_id == 5
        assert a.mins == {0: 2, 1: INFINITY, 2: INFINITY}
        assert a.voted == {1}  # member 7 is not in this view
        assert a.stable == {0: 4, 1: 5, 2: 6}

    def test_longer_peer_vector_ignores_the_extra_slots(self):
        a = StabilityState(0, (0, 1))
        a.vote({0: 9, 1: 9})
        a.merge(StabilityMsg(
            sender=1, view_id=0, round_id=1,
            stable=(2, 3, 99), voted=(1, 2), mins=(5, 6, 0),
        ))
        # Everyone in *this* view voted: the round completes on (5, 6).
        assert a.rounds_completed == 1
        assert a.stable == {0: 5, 1: 6}
        assert a.snapshot(view_id=3) == StabilityMsg(
            sender=0, view_id=3, round_id=2, stable=(5, 6), voted=(),
            mins=(INFINITY, INFINITY),
        )


class TestMembership:
    def test_reset_keeps_stability_for_survivors(self):
        a = StabilityState(0, (0, 1, 2))
        a.stable = {0: 5, 1: 6, 2: 7}
        a.reset_membership((0, 1))
        assert a.stable == {0: 5, 1: 6}
        assert a.voted == set()

    def test_rounds_resume_after_reset(self):
        members = (0, 1, 2)
        a = StabilityState(0, members)
        b = StabilityState(1, members)
        # member 2 crashed: rounds cannot complete
        a.vote({0: 5, 1: 5, 2: 0})
        b.vote({0: 5, 1: 5, 2: 0})
        gossip_between(a, b)
        assert a.rounds_completed == 0
        a.reset_membership((0, 1))
        b.reset_membership((0, 1))
        a.vote({0: 5, 1: 5})
        b.vote({0: 5, 1: 5})
        gossip_between(a, b)
        gossip_between(a, b)
        assert a.stable[0] == 5

    def test_member_must_be_in_group(self):
        with pytest.raises(ValueError):
            StabilityState(7, (0, 1))
