import math
import os
import subprocess
import sys
from itertools import product

import mpmath
import numpy as np
import pytest

import coop_ostbc
from coop_ostbc import montecarlo
from coop_ostbc.analytic import (
    AnalyticPoint,
    ber_closed_form,
    ber_integral_oracle,
    cell_ber,
    imbalance_penalty_db,
)
from coop_ostbc.montecarlo import sweep_points
from coop_ostbc.ostbc import BPSK, CODES, QPSK

from fits import diversity_slope, snr_db_at_ber

A_SQ_BPSK = 2.0
A_SQ_QPSK = 1.0
A2 = CODES["alamouti_2x1"]


def mrc_two_branch(gamma_total: float) -> float:
    """Classical balanced two-branch combining BER, p^2 (3 - 2p) with
    p = (1 - sqrt(g/(1+g)))/2 at per-branch SNR g."""
    g = gamma_total / 2.0
    p = 0.5 * (1.0 - math.sqrt(g / (1.0 + g)))
    return p * p * (3.0 - 2.0 * p)


def effective_snr(h_b, h_r, r, gamma):
    """Instantaneous combined SNR gamma G of the 2x1 code,
    gamma/(1+r) (|h_B|^2 + r |h_R|^2)."""
    h = A2.weights(r)[:, None] * np.array([[h_b], [h_r]], dtype=complex)
    return gamma * float(np.sum(np.abs(h) ** 2))


def test_effective_snr_balanced_unit_channels():
    assert effective_snr(1.0, 1.0, r=1.0, gamma=10.0) == pytest.approx(10.0, rel=1e-15)


def test_effective_snr_single_branch_reduction():
    h_b = 0.6 + 0.8j
    assert effective_snr(h_b, 0.0, r=3.0, gamma=8.0) == pytest.approx(
        8.0 * abs(h_b) ** 2 / 4.0, rel=1e-14
    )


def test_effective_snr_hand_value():
    assert effective_snr(1.0, 2.0, r=3.0, gamma=4.0) == pytest.approx(13.0, rel=1e-14)


def test_closed_form_reduces_to_two_branch_combining():
    pe = ber_closed_form(AnalyticPoint(A_SQ_BPSK, 1.0, 10.0))
    assert pe == pytest.approx(mrc_two_branch(10.0), abs=1e-12)
    assert pe == pytest.approx(5.528246696725031e-3, rel=1e-10)


def test_closed_form_noise_dominated_limit():
    pe = ber_closed_form(AnalyticPoint(A_SQ_BPSK, 1.0, 1e-12))
    assert 0.4999 < pe < 0.5


def test_closed_form_extreme_imbalance_collapses_to_one_branch():
    # r -> infinity leaves a single Rayleigh branch: (1 - sqrt(g/(1+g)))/2.
    pe = ber_closed_form(AnalyticPoint(A_SQ_BPSK, 1e8, 10.0))
    single = 0.5 * (1.0 - math.sqrt(10.0 / 11.0))
    assert pe == pytest.approx(single, abs=1e-7)


def mp_closed_form(a_sq, r, gamma):
    """The product form in 50-digit arithmetic, from the exact float inputs.

    Each factor 1 - 1/mu is written c / (mu (mu + 1)), so the reference
    keeps its 50 digits however small c is.
    """
    mp = mpmath.mp.clone()
    mp.dps = 50
    a_sq, r, gamma = mp.mpf(a_sq), mp.mpf(r), mp.mpf(gamma)
    c_m = 2 * (1 + r) / (a_sq * gamma)
    c_n = c_m / r
    mu_m = mp.sqrt(1 + c_m)
    mu_n = mp.sqrt(1 + c_n)
    return (
        c_m / (mu_m * (mu_m + 1)) * c_n / (mu_n * (mu_n + 1)) * (1 + 1 / (mu_m + mu_n)) / 2
    )


@pytest.mark.parametrize("a_sq", [A_SQ_BPSK, A_SQ_QPSK])
@pytest.mark.parametrize("r", [0.01, 1.0, 10.0])
def test_closed_form_matches_50_digit_reference_up_to_300_db(a_sq, r):
    for gamma_db in range(0, 301, 10):
        gamma = 10.0 ** (gamma_db / 10.0)
        pe = ber_closed_form(AnalyticPoint(a_sq, r, gamma))
        assert 0.0 < pe < 0.5
        ref = mp_closed_form(a_sq, r, gamma)
        assert abs(pe / ref - 1) <= 2e-15, gamma_db


# dB values from the bottom of the accepted range (-3236 dB is the smallest
# subnormal, 5e-324) to the top of the float range.
EXTREME_DB = (-3236.0, -3200.0, -3000.0, -300.0, 0.0, 300.0, 3000.0, 3080.0)


@pytest.mark.parametrize("mod", [BPSK, QPSK], ids=lambda m: m.name)
def test_closed_form_matches_50_digit_reference_over_the_float_range(mod):
    # The CLI's a^2 (2.0000000000000004 for BPSK) at the CLI's float gamma
    # and r. A result below the normal range carries at most the precision
    # of a subnormal, so one unit of 2**-1074 is allowed on top; every
    # normal result stays within 2e-15.
    a_sq = mod.a_sq
    for gamma_db, r_db in product(EXTREME_DB, repeat=2):
        gamma, r = 10.0 ** (gamma_db / 10.0), 10.0 ** (r_db / 10.0)
        pe = ber_closed_form(AnalyticPoint(a_sq, r, gamma))
        ref = mp_closed_form(a_sq, r, gamma)
        assert math.isfinite(pe) and 0.0 <= pe <= 0.5, (gamma_db, r_db)
        assert abs(pe - ref) <= 2e-15 * ref + 2.0**-1074, (gamma_db, r_db)


@pytest.mark.parametrize("a_sq", [A_SQ_BPSK, A_SQ_QPSK])
@pytest.mark.parametrize("r", [0.1, 1.0, 10.0])
@pytest.mark.parametrize("gamma", [1.0, 10.0, 100.0])
def test_quadrature_oracle_matches_closed_form(a_sq, r, gamma):
    p = AnalyticPoint(a_sq, r, gamma)
    assert ber_integral_oracle(A2, p, 64) == pytest.approx(
        ber_closed_form(p), rel=1e-10
    )


@pytest.mark.parametrize("a_sq", [A_SQ_BPSK, A_SQ_QPSK])
@pytest.mark.parametrize("r_db", [-200.0, 200.0])
def test_quadrature_oracle_matches_closed_form_at_extreme_imbalance(a_sq, r_db):
    # At gamma = 1e25 the weaker node's paths still carry an SNR of 1e5, so
    # its weight must not cancel to 0 at either end.
    p = AnalyticPoint(a_sq, 10.0 ** (r_db / 10.0), 1e25)
    assert ber_integral_oracle(A2, p, 64) == pytest.approx(ber_closed_form(p), rel=1e-10,
                                                           abs=0.0)


def test_oracle_is_finite_and_continuous_at_balanced_ratio():
    # The partial-fraction route would blow up at r = 1; the product form
    # and the integral are both regular there.
    for r in (1.0, 1.0 + 1e-9, 1.0 - 1e-9):
        p = AnalyticPoint(A_SQ_QPSK, r, 20.0)
        assert ber_integral_oracle(A2, p, 64) == pytest.approx(
            ber_closed_form(p), rel=1e-10
        )


def test_oracle_rejects_too_few_nodes():
    with pytest.raises(ValueError):
        ber_integral_oracle(A2, AnalyticPoint(1.0, 1.0, 1.0), nodes=8)


# --- the theory value of a simulation cell ------------------------------------


def test_sweep_attaches_analytic_only_where_defined():
    points = sweep_points(
        schemes=("alamouti_2x1", "ostbc_4x2"),
        modulations=("BPSK", "QPSK", "QAM16"),
        gamma_db=(3.0,),
        r_db=(0.0,),
        beta=(0.0, 0.05),
        seed=3,
        min_errors=20,
        max_bits=50_000,
    )
    covered = {(p.scheme, p.mod.name, p.beta)
               for p in points if cell_ber(p.scheme, p.mod, p.r_db, p.beta, p.gamma_db) is not None}
    assert len(points) == 12
    assert covered == {("alamouti_2x1", "BPSK", 0.0), ("alamouti_2x1", "QPSK", 0.0)}


@pytest.mark.parametrize("mod", [BPSK, QPSK], ids=lambda m: m.name)
@pytest.mark.parametrize("r_db, gamma_db", [(0.0, 10.0), (3.0, 20.0), (-200.0, 3.0),
                                            (-3236.0, 250.0)])
def test_cell_ber_is_the_closed_form_at_the_cells_linear_values(mod, r_db, gamma_db):
    # The cell's dB values become linear as the simulator converts them; at
    # -3236 dB the linear r is subnormal.
    linear = montecarlo._db_to_linear
    want = ber_closed_form(AnalyticPoint(mod.a_sq, linear(r_db), linear(gamma_db)))
    assert cell_ber("alamouti_2x1", mod, r_db, 0.0, gamma_db).hex() == want.hex()


def test_importing_the_simulator_loads_no_closed_form():
    # The theory column is built by cli through cell_ber; the simulator
    # itself needs nothing of analytic.
    src = os.path.dirname(os.path.dirname(os.path.abspath(coop_ostbc.__file__)))
    probe = ("import sys, coop_ostbc.montecarlo; "
             "print(' '.join(sorted(m for m in sys.modules if m.startswith('coop_ostbc'))))")
    loaded = subprocess.run([sys.executable, "-c", probe], check=True, capture_output=True,
                            text=True, env={**os.environ, "PYTHONPATH": src}).stdout.split()
    assert "coop_ostbc.montecarlo" in loaded
    assert "coop_ostbc.analytic" not in loaded


def mrc_rayleigh(branches: int, g: float) -> float:
    """L-branch maximal-ratio combining over i.i.d. Rayleigh branches of mean SNR g
    (Proakis): ((1-mu)/2)^L sum_k C(L-1+k, k) ((1+mu)/2)^k, mu = sqrt(g/(1+g)),
    with 1 - mu written as 1/((1+g)(1+mu))."""
    mu = math.sqrt(g / (1.0 + g))
    lo = 0.5 / ((1.0 + g) * (1.0 + mu))
    hi = 0.5 * (1.0 + mu)
    return lo**branches * sum(math.comb(branches - 1 + k, k) * hi**k for k in range(branches))


@pytest.mark.parametrize(
    "scheme, branches, per_branch", [("alamouti_2x1", 2, 4.0), ("ostbc_4x2", 8, 8.0)]
)
@pytest.mark.parametrize("a_sq", [A_SQ_BPSK, A_SQ_QPSK])
def test_oracle_at_balance_is_mrc_over_all_paths(scheme, branches, per_branch, a_sq):
    # At r = 1 every one of the n_tx n_rx paths carries w_i^2 = 1/n_tx, so the
    # code is L-branch MRC with per-branch SNR a^2 gamma / (2 n_tx).
    for gamma_db in range(0, 31, 2):
        gamma = 10.0 ** (gamma_db / 10.0)
        got = ber_integral_oracle(CODES[scheme], AnalyticPoint(a_sq, 1.0, gamma))
        assert got == pytest.approx(
            mrc_rayleigh(branches, a_sq * gamma / per_branch), rel=1e-12
        ), gamma_db


@pytest.mark.parametrize("r", [1.0, 10.0])
def test_high_snr_follows_slope_two_asymptote(r):
    # Pe -> (3/4) (1+r)^2 / (a^4 r gamma^2) as gamma grows.
    gamma = 1e6
    pe = ber_closed_form(AnalyticPoint(A_SQ_BPSK, r, gamma))
    asymptote = 0.75 * (1.0 + r) ** 2 / (A_SQ_BPSK**2 * r * gamma**2)
    assert pe / asymptote == pytest.approx(1.0, abs=0.01)


def test_symmetry_under_ratio_inversion():
    # Bitwise equality is unattainable (1/r itself rounds), but the product
    # form keeps the swap symmetric to well below 1e-14 on a probability.
    rng = np.random.default_rng(1234)
    for _ in range(1000):
        r = 10.0 ** rng.uniform(-2, 2)
        gamma = 10.0 ** rng.uniform(-1, 4)
        a_sq = rng.choice([A_SQ_BPSK, A_SQ_QPSK])
        pe = ber_closed_form(AnalyticPoint(a_sq, r, gamma))
        pe_inv = ber_closed_form(AnalyticPoint(a_sq, 1.0 / r, gamma))
        assert abs(pe - pe_inv) <= 1e-14


def test_monotonic_decreasing_in_snr():
    gammas = np.logspace(-1, 4, 60)
    pes = [ber_closed_form(AnalyticPoint(A_SQ_QPSK, 2.0, g)) for g in gammas]
    assert all(a > b for a, b in zip(pes, pes[1:]))


def test_balance_is_optimal_for_fixed_total_power():
    ratios = np.logspace(-2, 2, 41)
    best = ber_closed_form(AnalyticPoint(A_SQ_QPSK, 1.0, 10.0))
    for r in ratios:
        pe = ber_closed_form(AnalyticPoint(A_SQ_QPSK, float(r), 10.0))
        assert pe >= best


def test_probability_bounds():
    rng = np.random.default_rng(99)
    for _ in range(300):
        p = AnalyticPoint(
            float(rng.choice([A_SQ_BPSK, A_SQ_QPSK])),
            10.0 ** rng.uniform(-3, 3),
            10.0 ** rng.uniform(-3, 5),
        )
        pe = ber_closed_form(p)
        assert 0.0 < pe < 0.5


def test_point_rejects_non_positive_fields():
    with pytest.raises(ValueError):
        AnalyticPoint(0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        AnalyticPoint(1.0, -1.0, 1.0)
    with pytest.raises(ValueError):
        AnalyticPoint(1.0, 1.0, float("inf"))
    with pytest.raises(ValueError):
        AnalyticPoint(1.0, 1.0, float("nan"))
    with pytest.raises(ValueError):  # gamma_db = -3300 underflows to 0
        AnalyticPoint(1.0, 1.0, 10.0 ** (-3300 / 10.0))
    with pytest.raises(ValueError):  # r_db = -4000 underflows to 0
        AnalyticPoint(1.0, 10.0 ** (-4000 / 10.0), 1.0)


def test_slope_on_exact_quadratic_decay():
    gammas = [1e3, 1e4, 1e5]
    points = [(g, 0.42 / g**2) for g in gammas]
    assert diversity_slope(points) == pytest.approx(2.0, abs=1e-12)


@pytest.mark.parametrize("r_db", [0.0, 5.0, 10.0])
def test_slope_of_closed_form_at_high_snr(r_db):
    r = 10.0 ** (r_db / 10.0)
    points = [
        (g, ber_closed_form(AnalyticPoint(A_SQ_BPSK, r, g)))
        for g in (1e4, 10**4.5, 1e5)
    ]
    assert 1.95 <= diversity_slope(points) <= 2.05


def test_slope_input_validation():
    with pytest.raises(ValueError):
        diversity_slope([(1.0, 0.1)])
    with pytest.raises(ValueError):
        diversity_slope([(2.0, 0.1), (1.0, 0.01)])
    with pytest.raises(ValueError):
        diversity_slope([(1.0, 0.1), (2.0, 0.0)])


# --- the imbalance penalty -------------------------------------------------------


def mp_snr_db_at_ber(a_sq, r, ber):
    """The SNR in dB at which the 50-digit closed form reads ``ber``."""
    mp = mpmath.mp.clone()
    mp.dps = 50
    target = mp.log(mp.mpf(ber))
    return mp.findroot(
        lambda x: mp.log(mp_closed_form(a_sq, r, mp.power(10, x / 10))) - target, (140, 160)
    )


@pytest.mark.parametrize("a_sq", [A_SQ_BPSK, A_SQ_QPSK])
@pytest.mark.parametrize("r_db", [3.0, 10.0, 30.0, -30.0])
def test_penalty_is_the_closed_form_gap_at_high_snr(a_sq, r_db):
    # At BER 1e-30 the curves are 150 dB out, where the next term of the
    # asymptote moves the gap by about 1e-15 dB.
    r = 10.0 ** (r_db / 10.0)
    gap = mp_snr_db_at_ber(a_sq, r, 1e-30) - mp_snr_db_at_ber(a_sq, 1.0, 1e-30)
    assert abs(float(gap) - imbalance_penalty_db(r_db)) <= 1e-9


def test_penalty_is_the_four_antenna_gap_at_high_snr():
    # The rate-3/4 code loses the same SNR as the 2x1 code: its eight paths
    # scale the high-SNR error probability by ((1+r)^2/r)^4 at diversity 8.
    # Here r = 10, which is 10 dB.
    code = CODES["ostbc_4x2"]

    def snr_db(r):
        return snr_db_at_ber(
            lambda g: ber_integral_oracle(code, AnalyticPoint(A_SQ_QPSK, r, 10.0 ** (g / 10.0))),
            1e-40, 0.0, 100.0,
        )

    assert snr_db(10.0) - snr_db(1.0) == pytest.approx(imbalance_penalty_db(10.0), abs=0.01)


def test_penalty_is_zero_at_balance_and_symmetric_in_the_ratio():
    assert imbalance_penalty_db(0.0) == 0.0
    assert imbalance_penalty_db(-0.0) == 0.0
    rng = np.random.default_rng(23)
    near_0_db = 10.0 ** rng.uniform(-12, 0, 100)
    for r_db in np.concatenate([rng.uniform(-3236, 3236, 1000), near_0_db]):
        # r and 1/r are r_db and -r_db, with no rounding between them.
        assert imbalance_penalty_db(r_db) == imbalance_penalty_db(-r_db) > 0.0


def test_penalty_matches_50_digit_reference_over_the_float_range():
    # The reference takes r_db itself, not its linear r: below about -3077 dB
    # that r is subnormal, and -3236 dB rounds to 4.9e-324, which is
    # -3233.06 dB and would read a penalty of 1613.521 dB.
    mp = mpmath.mp.clone()
    mp.dps = 50
    for r_db in EXTREME_DB + (-10.0, -1e-6, 1e-6, 3.0, 10.0):
        got = imbalance_penalty_db(r_db)
        ref = 10 * mp.log10(mp.cosh(mp.mpf(r_db) * mp.log(10) / 20))
        assert math.isfinite(got) and got >= 0.0, r_db
        assert abs(got - ref) <= 1e-14 * ref, r_db
    assert f"{imbalance_penalty_db(-3236.0):.3f}" == "1614.990"
