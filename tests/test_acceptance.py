"""Acceptance suite: one test per release criterion, strict tolerances.

Run with ``pytest -s tests/test_acceptance.py -v`` to see the per-criterion
report lines alongside pytest's own pass/fail output.
"""

import math
import time

import numpy as np
import pytest

from coop_ostbc import cli
from coop_ostbc.analytic import (
    AnalyticPoint,
    ber_closed_form,
    ber_integral_oracle,
    diversity_slope,
)
from coop_ostbc.montecarlo import SimPoint, analytic_ber, run_point, run_sweep, sweep_points
from coop_ostbc.numerics import RngStream, Workspace, sample_circular_gaussian, wilson_interval
from coop_ostbc.ostbc import (
    BPSK,
    CODES,
    QAM16,
    QPSK,
    combine,
    detect,
    effective_gain,
    encode,
    modulate,
    transmit,
)

FAST_BUDGET_S = 1.0
SIM_BUDGET_S = 300.0


class _Criterion:
    """Times a criterion and prints its pass/fail line on exit."""

    def __init__(self, number: int, summary: str):
        self.number = number
        self.summary = summary
        self.detail = ""

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.elapsed = time.perf_counter() - self.start
        verdict = "PASS" if exc_type is None else "FAIL"
        extra = f" [{self.detail}]" if self.detail else ""
        print(
            f"[{verdict}] criterion {self.number}: {self.summary}"
            f"{extra} ({self.elapsed:.2f}s)"
        )
        return False


def test_c01_closed_form_agrees_with_quadrature_oracle():
    with _Criterion(1, "closed form vs 64-node quadrature, rel err < 1e-9") as c:
        worst = 0.0
        for a_sq in (1.0, 2.0):
            for r in (0.01, 0.1, 1.0, 10.0, 100.0):
                for gamma in (0.1, 1.0, 10.0, 100.0, 1e4):
                    p = AnalyticPoint(a_sq, r, gamma)
                    pe = ber_closed_form(p)
                    oracle = ber_integral_oracle(CODES["alamouti_2x1"], p, 64)
                    worst = max(worst, abs(pe - oracle) / pe)
        c.detail = f"worst rel err {worst:.2e}"
        assert worst < 1e-9
    assert c.elapsed < FAST_BUDGET_S


def test_c02_balanced_case_reduces_to_two_branch_combining():
    with _Criterion(2, "r=1 BPSK gamma=10 equals p^2(3-2p) oracle to 1e-12") as c:
        g = 5.0  # per-branch SNR at gamma = 10
        p = 0.5 * (1.0 - math.sqrt(g / (1.0 + g)))
        oracle = p * p * (3.0 - 2.0 * p)
        got = ber_closed_form(AnalyticPoint(2.0, 1.0, 10.0))
        c.detail = f"{got:.13e} vs {oracle:.13e}"
        assert got == pytest.approx(oracle, abs=1e-12)
        assert got == pytest.approx(5.528246696725031e-3, abs=1e-12)
    assert c.elapsed < FAST_BUDGET_S


def test_c03_symmetry_under_ratio_inversion():
    with _Criterion(3, "Pe(r) = Pe(1/r) to 1e-14 over 1e3 random draws") as c:
        rng = np.random.default_rng(20240)
        worst = 0.0
        for _ in range(1000):
            a_sq = float(rng.choice([1.0, 2.0]))
            r = 10.0 ** rng.uniform(-2, 2)
            gamma = 10.0 ** rng.uniform(-1, 4)
            pe = ber_closed_form(AnalyticPoint(a_sq, r, gamma))
            pe_inv = ber_closed_form(AnalyticPoint(a_sq, 1.0 / r, gamma))
            worst = max(worst, abs(pe - pe_inv))
        c.detail = f"worst |diff| {worst:.2e}"
        assert worst <= 1e-14
    assert c.elapsed < FAST_BUDGET_S


def test_c04_imbalance_does_not_change_diversity_order():
    with _Criterion(4, "analytic slope over 40-50 dB in [1.95, 2.05]") as c:
        slopes = {}
        for r_db in (0.0, 5.0, 10.0):
            r = 10.0 ** (r_db / 10.0)
            pts = [
                (10.0 ** (g / 10.0), ber_closed_form(AnalyticPoint(2.0, r, 10.0 ** (g / 10.0))))
                for g in (40.0, 45.0, 50.0)
            ]
            slopes[r_db] = diversity_slope(pts)
        c.detail = ", ".join(f"r={k:g}dB: {v:.4f}" for k, v in slopes.items())
        for slope in slopes.values():
            assert 1.95 <= slope <= 2.05
    assert c.elapsed < FAST_BUDGET_S


def test_c05_snr_penalty_of_10db_imbalance():
    with _Criterion(5, "QPSK gap at BER 1e-2 between r=0 and r=10 dB is 2.0+/-0.5 dB") as c:
        grid = [0.25 * k for k in range(0, 101)]
        gap = cli.imbalance_gap_db("QPSK", grid)
        c.detail = f"gap {gap:.3f} dB"
        assert gap is not None
        assert 1.5 <= gap <= 2.5
    assert c.elapsed < FAST_BUDGET_S


def test_c06_simulation_reproduces_analytic_curves():
    with _Criterion(6, "95% CIs cover the closed form on the full curve grid") as c:
        points = sweep_points(
            schemes=("alamouti_2x1",),
            modulations=("BPSK", "QPSK"),
            gamma_db=tuple(float(g) for g in range(0, 21, 2)),
            r_db=(0.0, 5.0, 10.0),
            beta=(0.0,),
            seed=60003,
            min_errors=200,
        )
        hits = sum(
            1
            for p, est in zip(points, run_sweep(points, 1))
            if est.ci_lo <= analytic_ber(p.scheme, p.mod, p.r_db, p.beta, p.gamma_db)
            <= est.ci_hi
        )
        coverage = hits / len(points)
        c.detail = f"coverage {hits}/{len(points)} = {coverage:.3f}"
        assert coverage >= 0.9
    assert c.elapsed < SIM_BUDGET_S


def test_c07_estimation_errors_create_an_error_floor():
    with _Criterion(
        7, "beta=0.05 floor: >=10x the beta=0 BER at 30 dB, flat 25->35 dB"
    ) as c:
        clean = run_point(
            SimPoint("alamouti_2x1", QPSK, 30.0, 0.0, 0.0, seed=70001, min_errors=100)
        )
        floor = {
            g: run_point(
                SimPoint("alamouti_2x1", QPSK, g, 0.0, 0.05, seed=70001, min_errors=300)
            )
            for g in (25.0, 30.0, 35.0)
        }
        ratio = floor[30.0].ber / clean.ber
        c.detail = (
            f"ratio {ratio:.1f}x; floor {floor[25.0].ber:.2e} -> {floor[35.0].ber:.2e}"
        )
        assert ratio >= 10.0
        # Non-decreasing within CI: no significant drop from 25 to 35 dB.
        assert floor[35.0].ci_hi >= floor[25.0].ci_lo
    assert c.elapsed < SIM_BUDGET_S


def test_c08_four_antenna_code_health_and_steeper_slope():
    with _Criterion(
        8, "4x2: exact zero-noise decode; simulated slope steeper than 2x1"
    ) as c:
        # Exact recovery over 1e4 random blocks, Fig.-3-style 16QAM.
        code = CODES["ostbc_4x2"]
        rng = RngStream(80001)
        n = 10_000
        w = code.weights(10.0 ** (5.0 / 10.0))
        power = 10.0 ** (1.4)
        bits = rng.bits(3 * QAM16.bits_per_symbol * n)
        work = Workspace()
        syms = modulate(bits, QAM16, work).reshape(n, 3).T
        h = w[:, None, None] * sample_circular_gaussian(rng, 1.0, size=(4, 2, n))
        y = transmit(code, syms, h, power, np.zeros((2, 4, n), complex), work)
        outs = combine(code, y, h, work)
        gain = math.sqrt(power) * effective_gain(code, h, work)
        per_sym = bits.reshape(n, 3, QAM16.bits_per_symbol)
        for k in range(3):
            assert np.array_equal(detect(outs[k], gain, QAM16, work), per_sym[:, k].ravel())

        # Slopes inside the 10-20 dB window, beta = 0, QPSK, balanced links.
        grid = (10.0, 12.0, 14.0)
        slopes = {}
        quad_ok = True
        for scheme, min_errors in (("alamouti_2x1", 200), ("ostbc_4x2", 100)):
            pts = []
            for g_db in grid:
                est = run_point(
                    SimPoint(scheme, QPSK, g_db, 0.0, 0.0, seed=80002, min_errors=min_errors)
                )
                assert est.errors > 0
                pts.append((10.0 ** (g_db / 10.0), est.ber))
                if scheme == "ostbc_4x2":
                    quad = ber_integral_oracle(
                        CODES[scheme], AnalyticPoint(1.0, 1.0, 10.0 ** (g_db / 10.0))
                    )
                    quad_ok = quad_ok and est.ci_lo <= quad <= est.ci_hi
            slopes[scheme] = diversity_slope(pts)
        c.detail = (
            f"slope 2x1 {slopes['alamouti_2x1']:.2f}, "
            f"4x2 {slopes['ostbc_4x2']:.2f}, quadrature in CI: {quad_ok}"
        )
        assert slopes["ostbc_4x2"] > slopes["alamouti_2x1"]
        assert quad_ok
    assert c.elapsed < SIM_BUDGET_S


def test_c09_validation_sweep_is_byte_reproducible(tmp_path, capsys):
    with _Criterion(9, "two identically-seeded simulate runs, 1 and 3 workers: identical CSVs") as c:
        args = [
            "simulate",
            "--modulation",
            "QPSK",
            "--gamma-db",
            "0:12:4",
            "--r-db",
            "0,10",
            "--seed",
            "90001",
            "--min-errors",
            "60",
            "--max-bits",
            "400000",
        ]
        a = tmp_path / "first.csv"
        b = tmp_path / "second.csv"
        assert cli.main(args + ["--output", str(a)]) == 0
        assert cli.main(args + ["--output", str(b), "--workers", "3"]) == 0
        capsys.readouterr()
        identical = a.read_bytes() == b.read_bytes()
        c.detail = f"{a.stat().st_size} bytes each, identical: {identical}"
        assert identical
    assert c.elapsed < SIM_BUDGET_S


def test_c10_property_battery():
    with _Criterion(
        10, "orthogonality, power conservation, linearity, 1e6-sample moments"
    ) as c:
        # Codeword row orthogonality over random symbol draws, every code.
        rng = RngStream(100001)
        for code in CODES.values():
            cw = encode(code, sample_circular_gaussian(rng, 1.0, size=(code.n_symbols, 2000)))
            inner = np.einsum("t...,t...->...", cw[0], cw[1].conj())
            assert np.max(np.abs(inner)) < 1e-12

        # Power conservation across the imbalance range.
        for r in np.logspace(-2, 2, 25):
            w_b, w_r = CODES["alamouti_2x1"].weights(float(r))
            assert abs(w_b**2 + w_r**2 - 1.0) < 1e-15

        # Real-scale linearity of the combiner.
        code = CODES["alamouti_2x1"]
        w = code.weights(2.0)
        est = w[:, None] * np.array([[0.3 - 1.1j], [-0.7 + 0.2j]])
        y = np.array([[0.9 + 0.1j, -0.4 + 1.3j]])
        b = combine(code, y, est, Workspace())
        a = combine(code, 3.5 * y, est, Workspace())
        assert np.allclose(a, 3.5 * b, rtol=1e-12, atol=0)

        # Perfect-CSI conditional scale equals the weighted branch sum.
        h = np.array([[1.2 - 0.3j], [0.5 + 0.8j]])
        g = w[:, None] * h
        yq = transmit(code, [1.0, 0.0], g, 1.0, np.zeros((1, 2), complex), Workspace())
        s0t, _ = combine(code, yq, g, Workspace())
        branch_sum = np.sum(w**2 * np.abs(h[:, 0]) ** 2)
        assert s0t == pytest.approx(branch_sum, rel=1e-12)
        assert effective_gain(code, g, Workspace()) == pytest.approx(branch_sum, rel=1e-12)

        # Moment checks at 1e6 samples, 4-sigma tolerances.
        x = sample_circular_gaussian(RngStream(100002), 1.0, size=10**6)
        assert abs(np.mean(np.abs(x) ** 2) - 1.0) < 0.004  # 4/sqrt(1e6)
        assert abs(x.mean()) < 0.004
        corr = np.corrcoef(x.real, x.imag)[0, 1]
        assert abs(corr) < 0.004

        # Wilson containment spot check.
        lo, hi = wilson_interval(7, 1000)
        assert lo <= 0.007 <= hi
        c.detail = "all sub-properties held"
    assert c.elapsed < SIM_BUDGET_S
