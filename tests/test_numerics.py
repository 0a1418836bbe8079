import math

import numpy as np
import pytest
from scipy.stats import binomtest

from coop_ostbc.numerics import (
    RngStream,
    integrate_half_pi,
    q_function,
    sample_circular_gaussian,
    wilson_interval,
)

# Frozen from a 50-digit erfc evaluation (mpmath), Q(x) = erfc(x/sqrt(2))/2.
Q_AT_1 = 0.15865525393145705
Q_AT_10 = 7.619853024160525e-24


def test_q_function_at_zero():
    assert q_function(0.0) == 0.5


def test_q_function_at_one():
    assert q_function(1.0) == pytest.approx(Q_AT_1, abs=1e-15)


def test_q_function_deep_tail_no_underflow():
    q = q_function(10.0)
    assert 0.0 < q <= 1e-23
    assert q == pytest.approx(Q_AT_10, rel=1e-12)


def test_q_function_reflection():
    for x in np.linspace(-8.0, 8.0, 33):
        assert q_function(x) + q_function(-x) == pytest.approx(1.0, abs=1e-12)


def test_q_function_strictly_decreasing():
    grid = np.linspace(-6.0, 6.0, 200)
    values = [q_function(x) for x in grid]
    assert all(a > b for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_q_function_rejects_non_finite(bad):
    with pytest.raises(ValueError):
        q_function(bad)


def test_integrate_constant():
    assert integrate_half_pi(lambda t: np.ones_like(t), 16) == pytest.approx(
        math.pi / 2, rel=1e-15
    )


def test_integrate_sin_squared():
    assert integrate_half_pi(lambda t: np.sin(t) ** 2, 16) == pytest.approx(
        math.pi / 4, rel=1e-14
    )


@pytest.mark.parametrize("m", [0.01, 1.0, 100.0])
def test_integrate_branch_gain_identity(m):
    # Int_0^{pi/2} dt / (1/sin^2 t + 1/M) has the closed value
    # (pi/2) M (1 - 1/sqrt(1 + 1/M)).
    got = integrate_half_pi(lambda t: 1.0 / (1.0 / np.sin(t) ** 2 + 1.0 / m), 64)
    expected = (math.pi / 2) * m * (1.0 - 1.0 / math.sqrt(1.0 + 1.0 / m))
    assert got == pytest.approx(expected, rel=1e-10)


def test_integrate_accepts_scalar_only_callable():
    got = integrate_half_pi(math.sin, 32)
    assert got == pytest.approx(1.0, rel=1e-12)


def test_integrate_rejects_too_few_nodes():
    with pytest.raises(ValueError):
        integrate_half_pi(lambda t: t, 1)


def test_integrate_propagates_non_finite_integrand():
    with np.errstate(divide="ignore"), pytest.raises(FloatingPointError):
        integrate_half_pi(lambda t: 1.0 / (t - t), 16)


def test_rng_identical_ids_replay_identically():
    a = RngStream(123, 5).uniforms(1000)
    b = RngStream(123, 5).uniforms(1000)
    assert np.array_equal(a, b)


def test_rng_distinct_streams_differ():
    a = RngStream(123, 0).uniforms(1000)
    b = RngStream(123, 1).uniforms(1000)
    assert not np.array_equal(a, b)


def test_rng_rejects_out_of_range_ids():
    with pytest.raises(ValueError):
        RngStream(-1)
    with pytest.raises(ValueError):
        RngStream(0, 1 << 64)


def textbook_box_muller(seed, stream_id, size):
    """r cos(theta), r sin(theta) from a fresh stream's first two uniform draws."""
    rng = RngStream(seed, stream_id)
    u1 = rng.uniforms(size)
    u2 = rng.uniforms(size)
    r = np.sqrt(-2.0 * np.log1p(-u1))
    theta = 2.0 * math.pi * u2
    return r * np.cos(theta), r * np.sin(theta)


def same_bits(a, b):
    return np.array_equal(np.atleast_1d(a).view(np.uint64), np.atleast_1d(b).view(np.uint64))


@pytest.mark.parametrize("size", [None, 7, (4, 2, 1000)])
def test_normal_pairs_are_the_textbook_transform_bit_for_bit(size):
    x, y = RngStream(77, 3).normal_pairs(size)
    want_x, want_y = textbook_box_muller(77, 3, size)
    assert same_bits(x, want_x) and same_bits(y, want_y)


@pytest.mark.parametrize("size", [None, 7, (4, 2, 1000)])
@pytest.mark.parametrize("variance", [1.0, 0.05, 4.0])
def test_circular_gaussian_is_the_textbook_draw_bit_for_bit(size, variance):
    got = sample_circular_gaussian(RngStream(78, 9), variance, size)
    r_cos, r_sin = textbook_box_muller(78, 9, size)
    want = math.sqrt(variance / 2.0) * (r_cos + 1j * r_sin)
    if size is None:
        assert isinstance(got, complex)
    assert same_bits(got, want)


def test_rng_bits_are_uniform_draws_below_one_half():
    bits = RngStream(79, 2).bits(10_001)
    assert bits.dtype == np.uint8
    assert np.array_equal(bits, RngStream(79, 2).uniforms(10_001) < 0.5)


def test_circular_gaussian_zero_variance_is_exactly_zero():
    assert sample_circular_gaussian(RngStream(1), 0.0) == 0j
    arr = sample_circular_gaussian(RngStream(1), 0.0, size=100)
    assert np.all(arr == 0j)


def test_circular_gaussian_moments_unit_variance():
    x = sample_circular_gaussian(RngStream(2024), 1.0, size=10**6)
    assert abs(x.mean()) < 0.005
    assert 0.99 <= np.mean(np.abs(x) ** 2) <= 1.01


def test_circular_gaussian_moments_variance_four():
    x = sample_circular_gaussian(RngStream(2025), 4.0, size=10**6)
    assert 3.96 <= np.mean(np.abs(x) ** 2) <= 4.04


def test_circular_gaussian_component_correlation():
    x = sample_circular_gaussian(RngStream(2026), 1.0, size=10**6)
    corr = np.corrcoef(x.real, x.imag)[0, 1]
    assert abs(corr) < 0.005


def test_circular_gaussian_rejects_negative_variance():
    with pytest.raises(ValueError):
        sample_circular_gaussian(RngStream(1), -1.0)


def test_wilson_zero_errors():
    lo, hi = wilson_interval(0, 100, 0.95)
    assert lo == 0.0
    assert hi == pytest.approx(0.037, abs=5e-4)


def test_wilson_matches_scipy():
    for errors, trials in [(0, 100), (3, 50), (50, 100), (999, 1000), (1, 10**6)]:
        lo, hi = wilson_interval(errors, trials, 0.95)
        ref = binomtest(errors, trials).proportion_ci(0.95, method="wilson")
        assert lo == pytest.approx(ref.low, abs=1e-10)
        assert hi == pytest.approx(ref.high, abs=1e-10)


def test_wilson_half_is_roughly_symmetric():
    lo, hi = wilson_interval(50, 100, 0.95)
    assert lo < 0.5 < hi
    assert hi - 0.5 == pytest.approx(0.5 - lo, abs=1e-12)


def test_wilson_all_errors():
    lo, hi = wilson_interval(100, 100, 0.95)
    assert hi == 1.0
    assert lo < 1.0


def test_wilson_rejects_bad_inputs():
    with pytest.raises(ValueError):
        wilson_interval(5, 4)
    with pytest.raises(ValueError):
        wilson_interval(0, 0)
    with pytest.raises(ValueError):
        wilson_interval(1, 10, 1.0)


def test_wilson_contains_point_estimate():
    rng = np.random.default_rng(7)
    for _ in range(200):
        trials = int(rng.integers(1, 10**6))
        errors = int(rng.integers(0, trials + 1))
        lo, hi = wilson_interval(errors, trials, 0.95)
        assert lo <= errors / trials <= hi
