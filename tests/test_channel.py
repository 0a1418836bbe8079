"""The link, estimation-error and noise model as the simulator draws it.

Each chunk draws the channels as CN(0, 1) entries of shape
(n_tx, n_rx, blocks), their estimates as ``hhat = h + e`` with
``e ~ CN(0, beta)`` of the same shape, and the noise as CN(0, 1) entries
of shape (n_rx, n_slots, blocks), all through
:func:`coop_ostbc.numerics.sample_circular_gaussian`.
"""

import numpy as np
import pytest

from coop_ostbc.numerics import RngStream, sample_circular_gaussian
from coop_ostbc.ostbc import CODES

N_STAT = 10**6


def sample_channel(rng, n, code=CODES["alamouti_2x1"]):
    return sample_circular_gaussian(rng, 1.0, size=(code.n_tx, code.n_rx, n))


def estimate(rng, h, beta):
    return h + sample_circular_gaussian(rng, beta, size=h.shape)


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
    # The simulator skips the error draw at beta = 0; a zero-variance draw
    # would leave the estimates equal to the true gains as well.
    rng = RngStream(104)
    h = sample_channel(rng, 1000)
    assert np.array_equal(estimate(rng, h, 0.0), h)


def test_estimate_variance_grows_by_beta():
    rng = RngStream(105)
    h = sample_channel(rng, N_STAT)
    est = estimate(rng, h, 1.0)
    assert 1.98 <= np.mean(np.abs(est[0, 0]) ** 2) <= 2.02


def test_estimate_keeps_unit_cross_correlation():
    # Additive independent error leaves E[h hhat*] = E|h|^2 = 1.
    rng = RngStream(106)
    h = sample_channel(rng, N_STAT)
    est = estimate(rng, h, 0.5)
    assert abs(np.mean(h[0, 0] * est[0, 0].conj()) - 1.0) < 0.01


@pytest.mark.parametrize("beta", [0.25, 0.5, 1.0])
def test_regression_form_consistency(beta):
    # The additive-error draw reproduces E[h hhat*]/Var(hhat) = 1/(1+beta),
    # the regression coefficient of h on its estimate.
    rng = RngStream(107)
    h = sample_channel(rng, N_STAT)
    est = estimate(rng, h, beta)
    ratio = np.mean(h[0, 0] * est[0, 0].conj()) / np.mean(np.abs(est[0, 0]) ** 2)
    assert abs(ratio - 1.0 / (1.0 + beta)) < 0.01


def test_awgn_unit_variance_per_entry():
    code = CODES["alamouti_2x1"]
    z = sample_circular_gaussian(RngStream(108), 1.0, size=(code.n_rx, code.n_slots, N_STAT))
    assert np.all(np.abs(np.mean(np.abs(z) ** 2, axis=-1) - 1.0) <= 0.01)


def test_awgn_is_deterministic():
    assert np.array_equal(
        sample_circular_gaussian(RngStream(109, 3), 1.0, size=(2, 4, 32)),
        sample_circular_gaussian(RngStream(109, 3), 1.0, size=(2, 4, 32)),
    )
