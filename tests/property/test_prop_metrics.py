"""Property tests: statistical helpers behave like statistics."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.metrics import ecdf, qq_points, quantiles

values = st.lists(
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=200,
)


@given(values)
@settings(max_examples=200)
def test_ecdf_is_monotone_and_normalized(sample):
    xs, ys = ecdf(sample)
    assert xs == sorted(xs)
    assert ys == sorted(ys)
    assert ys[-1] == 1.0
    assert len(xs) == len(sample)


@given(values, st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=10))
@settings(max_examples=200)
@example([1000000.0, 999999.9999999999], [0.5, 0.8851609015054176])
def test_quantiles_within_range_and_monotone(sample, probs):
    probs = sorted(probs)
    qs = quantiles(sample, probs)
    assert all(min(sample) <= q <= max(sample) for q in qs)
    assert qs == sorted(qs)


@given(values)
@settings(max_examples=100)
def test_qq_identity_on_same_sample(sample):
    for qa, qb in qq_points(sample, sample, points=11):
        assert qa == qb


@given(values, st.floats(min_value=0.1, max_value=10.0))
@settings(max_examples=100)
def test_qq_detects_scaling(sample, factor):
    scaled = [v * factor for v in sample]
    for qa, qb in qq_points(sample, scaled, points=11):
        assert qb >= qa * min(factor, 1.0) - 1e-6
