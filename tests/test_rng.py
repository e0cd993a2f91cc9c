import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from seqht.errors import InvalidDistribution
from seqht.rng import (
    categorical_cdf,
    categorical_thresholds,
    derive_seed,
    mix64,
    random_bits,
    random_bits_into,
    sample_categorical,
    uniform_block,
    uniform_ints,
    uniforms,
)

TOP = 2**53 - 1  # the largest 53-bit draw


def test_mix64_scalar_and_array_agree():
    xs = np.array([0, 1, 2**63, 2**64 - 1], dtype=np.uint64)
    vec = mix64(xs)
    for i, x in enumerate(xs):
        assert mix64(x) == vec[i]


def test_derive_seed_is_stable_under_count_changes():
    first10 = derive_seed(99, np.arange(10, dtype=np.uint64))
    first3 = derive_seed(99, np.arange(3, dtype=np.uint64))
    np.testing.assert_array_equal(first10[:3], first3)
    # distinct masters give distinct streams
    assert derive_seed(99, 0) != derive_seed(100, 0)


def test_uniforms_deterministic_and_in_range():
    u1 = uniform_block(derive_seed(7, 0), 0, 10_000)
    u2 = uniform_block(derive_seed(7, 0), 0, 10_000)
    np.testing.assert_array_equal(u1, u2)
    assert u1.min() >= 0.0 and u1.max() < 1.0
    # crude uniformity: mean near 1/2, spread near 1/12
    assert abs(u1.mean() - 0.5) < 0.01
    assert abs(u1.var() - 1 / 12) < 0.01


def test_uniform_block_matches_pointwise_counters():
    seed = derive_seed(11, 4)
    block = uniform_block(seed, 5, 4)
    singles = [float(uniforms(seed, c)) for c in range(5, 9)]
    assert block.tolist() == singles


def test_categorical_sampling_frequencies():
    cdf = categorical_cdf([0.2, 0.5, 0.3])
    u = uniform_block(derive_seed(3, 1), 0, 200_000)
    draws = sample_categorical(cdf, u)
    freqs = np.bincount(draws, minlength=3) / draws.size
    np.testing.assert_allclose(freqs, [0.2, 0.5, 0.3], atol=0.005)


def test_categorical_cdf_validation():
    with pytest.raises(InvalidDistribution):
        categorical_cdf([0.5, 0.6])
    with pytest.raises(InvalidDistribution):
        categorical_cdf([0.5, -0.5, 1.0])
    # boundary u just below 1 maps to the last symbol, never out of range
    cdf = categorical_cdf([0.5, 0.5])
    assert sample_categorical(cdf, np.array([0.9999999999999999])) == 1
    assert sample_categorical(cdf, np.array([0.0])) == 0


# Weights with zero-probability cells anywhere, interior and trailing alike.
_weights = st.lists(
    st.one_of(st.just(0.0), st.floats(min_value=1e-300, max_value=1.0)), min_size=1, max_size=9
).filter(lambda w: sum(w) > 0)


def _threshold_index(thresholds: np.ndarray, m: np.ndarray) -> np.ndarray:
    return (m[:, None] >= thresholds[None, :]).sum(axis=1)


@settings(max_examples=300, deadline=None)
@given(weights=_weights, draws=st.lists(st.integers(0, TOP), max_size=20))
@example(weights=[0.5, 0.5, 1e-12], draws=[])  # cumsum reaches 1.0 before the last cell
@example(weights=[0.3, 0.0, 0.7, 0.0, 0.0], draws=[])
@example(weights=[1.0], draws=[0, TOP])
def test_threshold_index_equals_searchsorted_sample(weights, draws):
    probs = np.array(weights) / sum(weights)
    cdf = categorical_cdf(probs)
    thresholds = categorical_thresholds(cdf)
    assert thresholds.dtype == np.uint64 and thresholds.size == cdf.size - 1
    # Random draws, both ends of the range, and both sides of every threshold.
    edges = [t + d for t in thresholds.tolist() for d in (-1, 0)]
    m = np.array([m for m in draws + [0, TOP] + edges if 0 <= m <= TOP], dtype=np.uint64)
    expected = sample_categorical(cdf, m * 2.0**-53)
    np.testing.assert_array_equal(_threshold_index(thresholds, m), expected)


def test_cell_after_a_cdf_of_one_is_never_drawn():
    cdf = categorical_cdf([0.5, 0.5, 1e-12])
    assert cdf[1] == 1.0
    thresholds = categorical_thresholds(cdf)
    assert thresholds.tolist() == [2**52, 2**53]
    m = np.array([0, 2**52 - 1, 2**52, TOP], dtype=np.uint64)
    assert _threshold_index(thresholds, m).tolist() == [0, 0, 1, 1]
    # A cumsum that overshoots 1 before the last cell is clamped to 2**53 too.
    cdf = categorical_cdf([0.6, 0.4 + 1e-10, 1e-12])
    assert cdf[1] > 1.0
    assert categorical_thresholds(cdf).tolist() == [int(np.ceil(0.6 * 2.0**53)), 2**53]


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), start=st.integers(0, 2**40), weights=_weights)
def test_uniform_ints_scale_exactly_to_uniforms(seed, start, weights):
    counters = np.arange(start, start + 64, dtype=np.uint64)
    m = uniform_ints(np.uint64(seed), counters)
    assert m.max() <= TOP
    np.testing.assert_array_equal(m * 2.0**-53, uniforms(np.uint64(seed), counters))
    cdf = categorical_cdf(np.array(weights) / sum(weights))
    np.testing.assert_array_equal(
        _threshold_index(categorical_thresholds(cdf), m),
        sample_categorical(cdf, uniforms(np.uint64(seed), counters)),
    )


@settings(max_examples=100, deadline=None)
@given(
    seeds=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=9),
    start=st.integers(0, 2**40),
    rows=st.integers(1, 7),
)
@example(seeds=[2**64 - 1], start=0, rows=1)
def test_random_bits_into_equals_random_bits(seeds, start, rows):
    seeds = np.array(seeds, dtype=np.uint64)
    out = np.empty((rows, seeds.size), dtype=np.uint64)
    scratch = np.empty_like(out)
    assert random_bits_into(seeds, start, out, scratch) is out
    counters = np.arange(start, start + rows, dtype=np.uint64)[:, None]
    np.testing.assert_array_equal(out, random_bits(seeds, counters))
    # A strided view of a larger buffer, as the batch kernel's tiles are not.
    wide = np.zeros((rows, seeds.size + 3), dtype=np.uint64)
    random_bits_into(seeds, start, wide[:, 1:-2], np.empty_like(out))
    np.testing.assert_array_equal(wide[:, 1:-2], out)
    assert not wide[:, 0].any() and not wide[:, -2:].any()
