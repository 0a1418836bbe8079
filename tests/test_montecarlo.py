import math

import numpy as np
import pytest

from coop_ostbc.analytic import AnalyticPoint, ber_closed_form, diversity_slope
from coop_ostbc.montecarlo import (
    SimPoint,
    analytic_ber,
    derive_seed,
    run_point,
    run_sweep,
    sweep_points,
)
from coop_ostbc.ostbc import BPSK, QAM16, QPSK


def analytic(a_sq: float, r_db: float, gamma_db: float) -> float:
    return ber_closed_form(
        AnalyticPoint(a_sq, 10.0 ** (r_db / 10.0), 10.0 ** (gamma_db / 10.0))
    )


def test_simulated_ber_matches_closed_form_at_10db():
    point = SimPoint("alamouti_2x1", BPSK, 10.0, 0.0, 0.0, seed=2001, min_errors=500)
    est = run_point(point)
    assert est.errors >= 500
    assert est.ci_lo <= analytic(2.0, 0.0, 10.0) <= est.ci_hi


def test_noise_dominated_limit_is_half():
    point = SimPoint("alamouti_2x1", QPSK, -100.0, 0.0, 0.0, seed=2002)
    est = run_point(point)
    assert est.ber == pytest.approx(0.5, abs=0.02)


def test_estimation_errors_dominate_at_high_snr():
    clean = run_point(
        SimPoint("alamouti_2x1", QPSK, 30.0, 0.0, 0.0, seed=2003, min_errors=100)
    )
    noisy_csi = run_point(
        SimPoint("alamouti_2x1", QPSK, 30.0, 0.0, 0.1, seed=2003, min_errors=300)
    )
    assert noisy_csi.ber > 10.0 * clean.ber


def test_run_point_is_deterministic_and_worker_invariant():
    # A point runs its chunks serially, so it has no worker count; the
    # worker invariance of whole sweeps is checked through the CLI
    # (test_golden, test_simulate_workers_do_not_change_bytes, c09).
    point = SimPoint("alamouti_2x1", QPSK, 8.0, 3.0, 0.02, seed=2004, min_errors=150)
    assert run_point(point) == run_point(point)


def test_run_point_respects_max_bits():
    point = SimPoint(
        "alamouti_2x1", QPSK, 40.0, 0.0, 0.0, seed=2005, min_errors=10**9,
        max_bits=1000,
    )
    est = run_point(point)
    assert est.streams_used == 1
    assert est.bits == 1000


def test_sim_point_validation():
    with pytest.raises(ValueError):
        SimPoint("mimo_8x8", QPSK, 0.0, 0.0, 0.0, seed=1)
    with pytest.raises(ValueError):
        SimPoint("alamouti_2x1", "QPSK", 0.0, 0.0, 0.0, seed=1)
    with pytest.raises(ValueError):
        SimPoint("alamouti_2x1", QPSK, 0.0, 0.0, -0.5, seed=1)
    with pytest.raises(ValueError):
        SimPoint("alamouti_2x1", QPSK, 0.0, 0.0, 0.0, seed=1, min_errors=0)
    with pytest.raises(ValueError):
        SimPoint("alamouti_2x1", QPSK, 0.0, 0.0, 0.0, seed=1, max_bits=1)
    # 10**(3100/10) overflows a float and 10**(-3300/10) underflows to 0;
    # either would fail mid-chunk, so the cell refuses them up front.
    for name in ("gamma_db", "r_db"):
        for db in (math.nan, math.inf, -math.inf, 3100.0, -3300.0):
            kwargs = {"gamma_db": 4.0, "r_db": 0.0, name: db}
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                SimPoint("alamouti_2x1", QPSK, beta=0.0, seed=1, **kwargs)
    SimPoint("alamouti_2x1", QPSK, 3000.0, -3000.0, 0.0, seed=1)


def test_single_cell_sweep_equals_run_point():
    points = sweep_points(
        schemes=("alamouti_2x1",),
        modulations=("QPSK",),
        gamma_db=(6.0,),
        r_db=(5.0,),
        beta=(0.0,),
        seed=77,
        min_errors=120,
    )
    estimates = run_sweep(points, 1)
    assert len(estimates) == 1
    point = SimPoint(
        "alamouti_2x1",
        QPSK,
        6.0,
        5.0,
        0.0,
        seed=derive_seed(77, "alamouti_2x1", "QPSK", 5.0, 0.0, 6.0),
        min_errors=120,
    )
    assert points == (point,)
    assert estimates[0] == run_point(point)
    ber_analytic = analytic_ber(point.scheme, point.mod, point.r_db, point.beta,
                                point.gamma_db)
    assert ber_analytic == pytest.approx(analytic(1.0, 5.0, 6.0), rel=1e-15)


def test_sweep_cells_dedupes_and_sorts():
    points = sweep_points(
        schemes=("alamouti_2x1",),
        modulations=("qpsk", "BPSK", "QPSK"),
        gamma_db=(4.0, 0.0, 4.0),
        r_db=(10.0, 0.0),
        beta=(0.0,),
        seed=1,
    )
    cells = [(p.scheme, p.mod.name, p.r_db, p.beta, p.gamma_db) for p in points]
    assert len(cells) == 2 * 2 * 2
    assert cells == sorted(set(cells))
    assert sorted({p.gamma_db for p in points}) == [0.0, 4.0]
    for p in points:
        assert p.seed == derive_seed(1, p.scheme, p.mod.name, p.r_db, p.beta, p.gamma_db)


def test_sweep_attaches_analytic_only_where_defined():
    points = sweep_points(
        schemes=("alamouti_2x1",),
        modulations=("QPSK", "QAM16"),
        gamma_db=(3.0,),
        r_db=(0.0,),
        beta=(0.0, 0.05),
        seed=3,
        min_errors=20,
        max_bits=50_000,
    )
    by_key = {
        (p.mod.name, p.beta): analytic_ber(p.scheme, p.mod, p.r_db, p.beta, p.gamma_db)
        for p in points
    }
    assert by_key[("QPSK", 0.0)] is not None
    assert by_key[("QPSK", 0.05)] is None
    assert by_key[("QAM16", 0.0)] is None


def test_sweep_result_independent_of_grid_composition():
    base = dict(
        schemes=("alamouti_2x1",),
        modulations=("BPSK",),
        r_db=(0.0,),
        beta=(0.0,),
        seed=11,
        min_errors=60,
    )
    alone = run_sweep(sweep_points(gamma_db=(5.0,), **base), 1)
    joined_points = sweep_points(gamma_db=(2.0, 5.0), **base)
    joined = dict(zip((p.gamma_db for p in joined_points), run_sweep(joined_points, 1)))
    assert joined[5.0] == alone[0]


def test_sweep_spec_rejects_empty_axes():
    with pytest.raises(ValueError, match="schemes must be non-empty"):
        sweep_points(
            schemes=(),
            modulations=("QPSK",),
            gamma_db=(1.0,),
            r_db=(0.0,),
            beta=(0.0,),
            seed=1,
        )


@pytest.mark.parametrize(
    "override, message",
    [
        ({"schemes": ("mimo_8x8",)}, "unknown scheme"),
        ({"beta": (-0.5,)}, "beta must be finite and >= 0"),
        ({"gamma_db": (math.nan,)}, "gamma_db must be finite"),
        ({"r_db": (4000.0,)}, "r_db must be finite"),
        ({"min_errors": 0}, "min_errors must be >= 1"),
        ({"max_bits": 1}, "max_bits must be at least one symbol"),
    ],
    ids=["scheme", "beta", "gamma", "r", "min-errors", "max-bits"],
)
def test_sweep_spec_checks_cells_through_sim_point(override, message):
    base = dict(schemes=("alamouti_2x1",), modulations=("QPSK",), gamma_db=(1.0,),
                r_db=(0.0,), beta=(0.0,), seed=1)
    with pytest.raises(ValueError, match=message):
        sweep_points(**dict(base, **override))


def test_ber_not_significantly_increasing_in_snr():
    points = sweep_points(
        schemes=("alamouti_2x1",),
        modulations=("QPSK",),
        gamma_db=(0.0, 4.0, 8.0, 12.0),
        r_db=(0.0,),
        beta=(0.0,),
        seed=2006,
        min_errors=300,
    )
    estimates = run_sweep(points, 1)
    for lo_snr, hi_snr in zip(estimates, estimates[1:]):
        assert hi_snr.ci_lo <= lo_snr.ci_hi


def test_ber_not_significantly_decreasing_in_beta():
    estimates = []
    for beta in (0.0, 0.02, 0.1):
        estimates.append(
            run_point(
                SimPoint(
                    "alamouti_2x1", QPSK, 12.0, 0.0, beta, seed=2007, min_errors=300
                )
            )
        )
    for weaker, stronger in zip(estimates, estimates[1:]):
        assert stronger.ci_hi >= weaker.ci_lo


def test_empirical_diversity_slope_matches_analysis():
    points = []
    for gamma_db in (20.0, 25.0, 30.0):
        est = run_point(
            SimPoint(
                "alamouti_2x1",
                BPSK,
                gamma_db,
                0.0,
                0.0,
                seed=2008,
                min_errors=100,
                max_bits=4 * 10**7,
            )
        )
        assert est.errors > 0
        points.append((10.0 ** (gamma_db / 10.0), est.ber))
    assert 1.7 <= diversity_slope(points) <= 2.3


def test_confidence_intervals_cover_closed_form():
    points = sweep_points(
        schemes=("alamouti_2x1",),
        modulations=("BPSK",),
        gamma_db=tuple(float(g) for g in range(0, 21, 2)),
        r_db=(0.0,),
        beta=(0.0,),
        seed=2009,
        min_errors=200,
    )
    hits = sum(
        1
        for p, est in zip(points, run_sweep(points, 1))
        if est.ci_lo <= analytic(2.0, p.r_db, p.gamma_db) <= est.ci_hi
    )
    assert hits >= 10  # 11 cells, 95% intervals


def test_ostbc4_point_runs_and_improves_on_alamouti():
    kwargs = dict(gamma_db=10.0, r_db=0.0, beta=0.0, seed=2010, min_errors=200)
    small = run_point(SimPoint("ostbc_4x2", QPSK, **kwargs))
    big = run_point(SimPoint("alamouti_2x1", QPSK, **kwargs))
    assert small.ber < big.ber / 5.0


def test_qam16_runs_through_the_pipeline():
    est = run_point(
        SimPoint("alamouti_2x1", QAM16, 10.0, 0.0, 0.0, seed=2011, min_errors=200)
    )
    assert 0.0 < est.ber < 0.5
    assert est.ci_lo <= est.ber <= est.ci_hi
