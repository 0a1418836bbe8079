import math

import numpy as np
import pytest
from scipy.stats import binomtest

from coop_ostbc import montecarlo
from coop_ostbc.numerics import (
    RngStream,
    Workspace,
    sample_circular_gaussian,
    wilson_interval,
)
from coop_ostbc.ostbc import CODES

N_STAT = 10**6


def test_rng_identical_ids_replay_identically():
    a = RngStream(123, 5).normal_pairs(1000)
    b = RngStream(123, 5).normal_pairs(1000)
    assert np.array_equal(a, b)


def test_rng_distinct_streams_differ():
    a = RngStream(123, 0).normal_pairs(1000)
    b = RngStream(123, 1).normal_pairs(1000)
    assert not np.array_equal(a, b)


def test_rng_rejects_out_of_range_ids():
    with pytest.raises(ValueError):
        RngStream(-1)
    with pytest.raises(ValueError):
        RngStream(0, 1 << 64)


def reference_generator(seed, stream_id):
    """The generator an RngStream is documented to wrap, built independently."""
    seq = np.random.SeedSequence(seed, spawn_key=(stream_id,))
    return np.random.Generator(np.random.SFC64(seq))


def reference_normal_pairs(seed, stream_id, size):
    """The two rows of a fresh stream's first (2, *size) standard-normal draw."""
    shape = (size,) if isinstance(size, int) else size
    return reference_generator(seed, stream_id).standard_normal((2, *shape))


def same_bits(a, b):
    return np.array_equal(a.view(np.uint64), b.view(np.uint64))


@pytest.mark.parametrize("seed, stream_id", [(0, 0), (77, 3), ((1 << 64) - 1, 12)])
def test_stream_is_the_child_of_that_index_of_the_seed(seed, stream_id):
    # Chunk k of a cell draws what the k-th spawned child of its seed draws.
    child = np.random.SeedSequence(seed).spawn(stream_id + 1)[stream_id]
    want = np.random.Generator(np.random.SFC64(child)).standard_normal((2, 50))
    assert same_bits(np.array(RngStream(seed, stream_id).normal_pairs(50)), want)


SIZES = pytest.mark.parametrize("size", [7, (4, 2, 1000)], ids=["7", "size2"])


@SIZES
def test_normal_pairs_are_one_standard_normal_draw_bit_for_bit(size):
    x, y = RngStream(77, 3).normal_pairs(size)
    want_x, want_y = reference_normal_pairs(77, 3, size)
    assert x.shape == y.shape == np.shape(want_x)
    assert same_bits(x, want_x) and same_bits(y, want_y)


@SIZES
@pytest.mark.parametrize("variance", [1.0, 0.05, 4.0])
def test_circular_gaussian_is_the_textbook_draw_bit_for_bit(size, variance):
    # CN(0, v) is sqrt(v/2) (x + j y) with x, y independent N(0, 1): the
    # (2, *size) draw, read as the flat sequence of its normals, gives each
    # entry its real and then its imaginary part, and is scaled in place.
    shape = (size,) if isinstance(size, int) else size
    out = np.empty(shape, complex)
    got = sample_circular_gaussian(RngStream(78, 9), variance, size, out=out)
    normals = reference_normal_pairs(78, 9, size).reshape(-1, 2)
    want = math.sqrt(variance / 2.0) * normals
    assert got is out and got.shape == shape
    assert same_bits(got.real.ravel(), want[:, 0]) and same_bits(got.imag.ravel(), want[:, 1])
    assert same_bits(sample_circular_gaussian(RngStream(78, 9), variance, size), got)


@pytest.mark.parametrize("out", [np.empty(8, complex), np.empty(14), np.empty(14, complex)[::2]],
                         ids=["shape", "dtype", "strided"])
def test_circular_gaussian_refuses_an_out_it_cannot_fill_in_place(out):
    with pytest.raises(ValueError, match="out"):
        sample_circular_gaussian(RngStream(1), 1.0, 7, out=out)


def test_rng_bits_unpack_the_stream_bytes_msb_first():
    n = 10_001  # not a multiple of 8: the last byte gives only its top bit
    bits = RngStream(79, 2).bits(n)
    raw = np.frombuffer(reference_generator(79, 2).bytes(1251), np.uint8)
    want = (raw[:, None] >> np.arange(7, -1, -1)) & 1
    assert bits.dtype == np.uint8
    assert np.array_equal(bits, want.ravel()[:n])


# Distribution checks that hold for any correct generator; each bound is
# four standard errors of its statistic.


def test_normal_pairs_are_standard_and_uncorrelated():
    x, y = RngStream(80, 1).normal_pairs(N_STAT)
    for v in (x, y):
        assert abs(v.mean()) < 4 / math.sqrt(N_STAT)
        assert abs(v.var() - 1.0) < 4 * math.sqrt(2 / N_STAT)
    assert abs(np.mean(x * y)) < 4 / math.sqrt(N_STAT)


@pytest.mark.parametrize("variance", [1.0, 0.05, 4.0])
def test_circular_gaussian_variance_splits_evenly(variance):
    z = sample_circular_gaussian(RngStream(81, 1), variance, size=N_STAT)
    # Each part is N(0, v/2).
    for part in (z.real, z.imag):
        assert abs(part.var() - variance / 2) < 4 * (variance / 2) * math.sqrt(2 / N_STAT)
    # Proper: the pseudo-variance E[z^2] = var(re) - var(im) + 2j cov is zero.
    assert abs(np.mean(z * z)) < 4 * variance / math.sqrt(N_STAT)


@pytest.mark.parametrize("n", [N_STAT, N_STAT + 3])
def test_rng_bits_are_balanced(n):
    bits = RngStream(82, 1).bits(n)
    assert bits.shape == (n,) and set(np.unique(bits)) <= {0, 1}
    assert abs(bits.mean() - 0.5) < 4 * 0.5 / math.sqrt(n)
    # Every position within a byte is balanced too.
    by_position = bits[: n - n % 8].reshape(-1, 8).mean(axis=0)
    assert np.all(np.abs(by_position - 0.5) < 4 * 0.5 / math.sqrt(n // 8))


def test_circular_gaussian_zero_variance_is_exactly_zero():
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
        sample_circular_gaussian(RngStream(1), -1.0, size=1)


# --- the link, estimation-error and noise model -------------------------------
# A chunk at beta > 0 draws the unit estimates u ~ CN(0, 1) and then the unit
# errors v ~ CN(0, 1), each of shape (n_tx, n_rx, blocks), through
# montecarlo._draw_fades; the link is h = (u + sqrt(beta) v) / sqrt(1+beta)
# and its estimate hhat = sqrt(1+beta) u, the joint law of a unit-power link
# and hhat = h + e with e ~ CN(0, beta). At beta = 0 it draws only the path
# powers |h_ij|^2, Exp(1) entries of that shape. At either, the noise is
# CN(0, 1) per detected symbol, of shape (n_symbols, blocks): the matched
# filter of an orthogonal design makes white antenna noise white per symbol.


def sample_channel(rng, n, code=CODES["alamouti_2x1"]):
    return sample_circular_gaussian(rng, 1.0, size=(code.n_tx, code.n_rx, n))


def link_and_estimate(seed, beta, n=N_STAT, code=CODES["alamouti_2x1"]):
    """(h, hhat) built from the u and v that a beta > 0 chunk draws."""
    _, u, v = montecarlo._draw_fades(Workspace(), RngStream(seed), code, False, n)
    return (u + math.sqrt(beta) * v) / math.sqrt(1.0 + beta), math.sqrt(1.0 + beta) * u


def test_link_gains_have_unit_power():
    h = sample_channel(RngStream(101), N_STAT)
    assert np.all(np.abs(np.mean(np.abs(h) ** 2, axis=-1) - 1.0) <= 0.01)


def test_link_gains_are_independent():
    h = sample_channel(RngStream(102), N_STAT)
    assert abs(np.mean(h[0, 0] * h[1, 0].conj())) < 0.005


def test_channel_sampling_is_deterministic():
    a = sample_channel(RngStream(103, 4), 1000, CODES["ostbc_4x2"])
    b = sample_channel(RngStream(103, 4), 1000, CODES["ostbc_4x2"])
    assert np.array_equal(a, b)


def test_perfect_estimation_is_exact():
    # At beta = 0 the law makes the link and its estimate both the unit draw
    # u, so the beta = 0 chunk, which draws only the path powers, loses nothing.
    h, est = link_and_estimate(104, 0.0, 1000)
    assert np.array_equal(est, h)


def test_estimate_variance_grows_by_beta():
    _, est = link_and_estimate(105, 1.0)
    assert 1.98 <= np.mean(np.abs(est[0, 0]) ** 2) <= 2.02


def test_estimate_keeps_unit_cross_correlation():
    # An estimate that is the link plus an independent error keeps
    # E[h hhat*] = E|h|^2 = 1.
    h, est = link_and_estimate(106, 0.5)
    assert abs(np.mean(h[0, 0] * est[0, 0].conj()) - 1.0) < 0.01


@pytest.mark.parametrize("beta", [0.25, 0.5, 1.0])
def test_regression_form_consistency(beta):
    # The link keeps unit power whatever beta, and E[h hhat*]/Var(hhat) =
    # 1/(1+beta) is the regression coefficient of h on its estimate.
    h, est = link_and_estimate(107, beta)
    assert abs(np.mean(np.abs(h[0, 0]) ** 2) - 1.0) < 0.01
    ratio = np.mean(h[0, 0] * est[0, 0].conj()) / np.mean(np.abs(est[0, 0]) ** 2)
    assert abs(ratio - 1.0 / (1.0 + beta)) < 0.01


def test_awgn_unit_variance_per_entry():
    code = CODES["ostbc_4x2"]
    z = sample_circular_gaussian(RngStream(108), 1.0, size=(code.n_symbols, N_STAT))
    assert np.all(np.abs(np.mean(np.abs(z) ** 2, axis=-1) - 1.0) <= 0.01)


def test_path_powers_are_the_squared_magnitudes_of_unit_links():
    # |h|^2 of h ~ CN(0, 1) is Exp(1): mean 1, variance 1, P(|h|^2 > 2) = e^-2.
    code = CODES["ostbc_4x2"]
    powers = RngStream(110).exponentials((code.n_tx, code.n_rx, N_STAT))
    links = np.abs(sample_channel(RngStream(111), N_STAT, code)) ** 2
    for x in (powers, links):
        assert np.all(np.abs(x.mean(axis=-1) - 1.0) < 4 / math.sqrt(N_STAT))
        assert np.all(np.abs(x.var(axis=-1) - 1.0) < 4 * math.sqrt(8 / N_STAT))
        tail = np.mean(x > 2.0, axis=-1)
        assert np.all(np.abs(tail - math.exp(-2)) < 4 * math.sqrt(math.exp(-2) / N_STAT))


def test_exponentials_are_one_standard_exponential_draw_bit_for_bit():
    out = np.empty((4, 2, 1000))
    got = RngStream(77, 3).exponentials((4, 2, 1000), out=out)
    assert got is out
    assert same_bits(got, reference_generator(77, 3).standard_exponential((4, 2, 1000)))
    want = reference_generator(77, 3).standard_exponential(7)
    assert same_bits(RngStream(77, 3).exponentials(7), want)


def test_awgn_is_deterministic():
    assert np.array_equal(
        sample_circular_gaussian(RngStream(109, 3), 1.0, size=(2, 4, 32)),
        sample_circular_gaussian(RngStream(109, 3), 1.0, size=(2, 4, 32)),
    )


# --- Wilson interval ----------------------------------------------------------


def test_wilson_zero_errors():
    lo, hi = wilson_interval(0, 100)
    assert lo == 0.0
    assert hi == pytest.approx(0.037, abs=5e-4)


def test_wilson_matches_scipy():
    for errors, trials in [(0, 100), (3, 50), (50, 100), (999, 1000), (1, 10**6)]:
        lo, hi = wilson_interval(errors, trials)
        ref = binomtest(errors, trials).proportion_ci(0.95, method="wilson")
        assert lo == pytest.approx(ref.low, abs=1e-10)
        assert hi == pytest.approx(ref.high, abs=1e-10)


def test_wilson_half_is_roughly_symmetric():
    lo, hi = wilson_interval(50, 100)
    assert lo < 0.5 < hi
    assert hi - 0.5 == pytest.approx(0.5 - lo, abs=1e-12)


def test_wilson_all_errors():
    lo, hi = wilson_interval(100, 100)
    assert hi == 1.0
    assert lo < 1.0


def test_wilson_rejects_bad_inputs():
    with pytest.raises(ValueError):
        wilson_interval(5, 4)
    with pytest.raises(ValueError):
        wilson_interval(0, 0)


def test_wilson_design_effect_is_a_smaller_sample():
    # deff = 4 over 4,000 trials is the binomial interval of 1,000 trials.
    lo, hi = wilson_interval(100, 4000, 4.0)
    ref = binomtest(25, 1000).proportion_ci(0.95, method="wilson")
    assert lo == pytest.approx(ref.low, abs=1e-12)
    assert hi == pytest.approx(ref.high, abs=1e-12)
    assert wilson_interval(100, 4000, 1.0) == wilson_interval(100, 4000)


@pytest.mark.parametrize("deff", [0.5, math.inf, math.nan])
def test_wilson_rejects_a_design_effect_below_one(deff):
    with pytest.raises(ValueError):
        wilson_interval(5, 100, deff)


def test_wilson_contains_point_estimate():
    rng = np.random.default_rng(7)
    for _ in range(200):
        trials = int(rng.integers(1, 10**6))
        errors = int(rng.integers(0, trials + 1))
        lo, hi = wilson_interval(errors, trials)
        assert lo <= errors / trials <= hi
