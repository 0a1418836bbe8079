import dataclasses
import math
import os
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from scipy.stats import binom

from coop_ostbc import montecarlo
from coop_ostbc.analytic import (
    AnalyticPoint,
    ber_closed_form,
    ber_integral_oracle,
    diversity_slope,
)
from coop_ostbc.montecarlo import (
    BerEstimate,
    SimPoint,
    _simulate_chunk,
    analytic_ber,
    derive_seed,
    run_point,
    run_sweep,
    sweep_points,
)
from coop_ostbc.numerics import Workspace, wilson_interval
from coop_ostbc.ostbc import BPSK, CODES, QAM16, QPSK


def analytic(a_sq: float, r_db: float, gamma_db: float) -> float:
    return ber_closed_form(
        AnalyticPoint(a_sq, 10.0 ** (r_db / 10.0), 10.0 ** (gamma_db / 10.0))
    )


# Coverage over a block of seeds. With exactly 95% coverage the hit count
# over COVERAGE_SEEDS independent seeds is Bin(COVERAGE_SEEDS, 0.95);
# COVERAGE_HITS is its 0.1% quantile, so a correct interval fails a block
# with probability below 0.001.
COVERAGE_SEEDS = 100
COVERAGE_HITS = int(binom.ppf(0.001, COVERAGE_SEEDS, 0.95))  # 87


def coverage_hits(point: SimPoint, reference: float) -> int:
    """How many of the cells with seeds point.seed, point.seed + 1, ... cover reference."""
    hits = 0
    for seed in range(point.seed, point.seed + COVERAGE_SEEDS):
        est = run_point(dataclasses.replace(point, seed=seed))
        hits += est.ci_lo <= reference <= est.ci_hi
    return hits


def test_simulated_ber_matches_closed_form_at_10db():
    point = SimPoint("alamouti_2x1", BPSK, 10.0, 0.0, 0.0, seed=2001, min_errors=500)
    est = run_point(point)
    assert est.errors >= 500
    assert coverage_hits(point, analytic(2.0, 0.0, 10.0)) >= COVERAGE_HITS


@pytest.mark.parametrize(
    "scheme, mod, gamma_db, seed",
    [
        ("alamouti_2x1", QPSK, 10.0, 2101),
        ("ostbc_4x2", BPSK, 0.0, 2201),
        ("ostbc_4x2", QPSK, 4.0, 2301),
    ],
    ids=["alamouti_2x1-QPSK", "ostbc_4x2-BPSK", "ostbc_4x2-QPSK"],
)
def test_interval_covers_the_reference_over_a_seed_block(scheme, mod, gamma_db, seed):
    # The 2x1 closed form, and the 4x2 code's MGF quadrature, at r = 5 dB.
    point = SimPoint(scheme, mod, gamma_db, 5.0, 0.0, seed=seed, min_errors=500)
    if scheme == "alamouti_2x1":
        reference = analytic_ber(scheme, mod, 5.0, 0.0, gamma_db)
    else:
        reference = ber_integral_oracle(
            CODES[scheme],
            AnalyticPoint(mod.a_constant**2, 10.0**0.5, 10.0 ** (gamma_db / 10.0)),
        )
    assert coverage_hits(point, reference) >= COVERAGE_HITS


def test_interval_widens_by_the_design_effect_of_shared_fades():
    # 250 errors over 1,000 four-bit blocks. Spread one per block, the
    # per-block variance is below binomial and the interval stays binomial;
    # packed four per block, the design effect is about 4.
    bits, errors = 4_000, 250
    spread = BerEstimate.from_counts(bits, errors, errors, 4, streams_used=1)
    packed = BerEstimate.from_counts(bits, errors, 4 * errors, 4, streams_used=1)
    assert (spread.ci_lo, spread.ci_hi) == wilson_interval(errors, bits)
    blocks, ber = bits // 4, errors / bits
    deff = (4 * errors - errors**2 / blocks) / (blocks - 1) / (4 * ber * (1 - ber))
    assert deff == pytest.approx(4.0, abs=0.01)
    assert (packed.ci_lo, packed.ci_hi) == wilson_interval(errors, bits, deff)
    assert packed.ci_lo < spread.ci_lo <= packed.ber <= spread.ci_hi < packed.ci_hi


@pytest.mark.parametrize("errors", [0, 1, 3999, 4000])
def test_interval_stays_in_the_unit_range_at_the_edges(errors):
    # The errors packed into as few four-bit blocks as they fill.
    sq_errors = 16 * (errors // 4) + (errors % 4) ** 2
    est = BerEstimate.from_counts(4_000, errors, sq_errors, 4, streams_used=1)
    assert 0.0 <= est.ci_lo <= est.ber <= est.ci_hi <= 1.0


def test_chunk_counts_the_squared_errors_of_each_block():
    point = SimPoint("ostbc_4x2", QAM16, 4.0, 0.0, 0.05, seed=2012)
    bits, errors, sq_errors = _simulate_chunk(point, 0)
    # Each of the errors sits in a block of 12 bits: errors <= sum e_b^2 <= 12 errors,
    # and the squares exceed the counts as soon as a block holds two errors.
    assert bits == 12 * 10_000 and errors > 0
    assert errors < sq_errors <= 12 * errors


def _on_new_buffers(monkeypatch, fn):
    """fn() run with an empty idle list, so its first chunk makes a new workspace."""
    monkeypatch.setattr(montecarlo, "_idle_workspaces", [])
    return fn()


def test_chunks_reuse_one_threads_buffers_at_every_size(monkeypatch):
    # Chunks of differently shaped cells run back to back on one workspace,
    # so its grow-only buffers are reused at smaller and at larger sizes;
    # each chunk must count what it counts on a new workspace of its own.
    chunks = [
        (SimPoint("ostbc_4x2", QAM16, 10.0, 5.0, 0.01, seed=2013), 0),
        (SimPoint("alamouti_2x1", BPSK, 4.0, 0.0, 0.0, seed=2014), 0),
        (SimPoint("ostbc_4x2", QPSK, 2.0, 0.0, 0.05, seed=2015, max_bits=30_000), 0),
        (SimPoint("ostbc_4x2", QAM16, 10.0, 5.0, 0.01, seed=2013), 1),
    ]
    alone = [_on_new_buffers(monkeypatch, lambda c=c: _simulate_chunk(*c)) for c in chunks]
    in_turn = _on_new_buffers(monkeypatch, lambda: [_simulate_chunk(*c) for c in chunks])
    assert chunks[2][0].max_bits // chunks[2][0].bits_per_block < 10_000
    assert all(errors > 0 for _, errors, _ in alone)
    assert in_turn == alone


def test_concurrent_sweeps_never_share_a_workspace():
    # Sweeps started at once from several threads, and threads that run
    # cells directly beside them, borrow workspaces from, and give them back
    # to, one list; a workspace lent to two chunks at once would mix them
    # and change the estimates.
    points = sweep_points(("alamouti_2x1", "ostbc_4x2"), ("BPSK", "QAM16"), (0.0, 6.0),
                          (0.0,), (0.0, 0.05), seed=2017, min_errors=50, max_bits=40_000)
    want = [run_point(p) for p in points]
    assert run_sweep(points, 3) == want  # leaves workspaces to borrow
    got = [None] * 6

    def sweep(i):
        got[i] = run_sweep(points, 3)

    def direct(i):
        got[i] = [run_point(p) for p in points]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=sweep if i < 4 else direct, args=(i,))
                   for i in range(len(got))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert got == [want] * len(got)
    assert len({id(w) for w in montecarlo._idle_workspaces}) == len(montecarlo._idle_workspaces)


# What a warm 10k-block ostbc_4x2 QAM16 beta=0.01 chunk allocated when every
# layer made fresh arrays, as measured with tracemalloc.
FRESH_CHUNK_BYTES = 13_560_000


def test_warm_chunk_allocates_little(monkeypatch):
    point = SimPoint("ostbc_4x2", QAM16, 10.0, 5.0, 0.01, seed=2016)

    def fresh_bytes():
        _simulate_chunk(point, 0)  # sizes the new workspace's buffers
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            _simulate_chunk(point, 1)
            return tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()

    assert _on_new_buffers(monkeypatch, fresh_bytes) <= FRESH_CHUNK_BYTES / 4


# What the workspace of a warm 10k-block ostbc_4x2 QAM16 beta=0.01 chunk
# held with a codeword array and a received-signal array of its own:
# 11,640,000 bytes; with transmit and combine each weighting the channels
# into a scratch array of their own: 7,400,000 bytes. The chunk now weights
# its drawn channels once, in place: 6,280,000 bytes.
WARM_CHUNK_WORKSPACE_BYTES = 6_600_000


def test_warm_chunk_workspace_holds_no_codeword_or_signal_copy(monkeypatch):
    point = SimPoint("ostbc_4x2", QAM16, 10.0, 5.0, 0.01, seed=2016)
    monkeypatch.setattr(montecarlo, "_idle_workspaces", [])
    _simulate_chunk(point, 0)
    _simulate_chunk(point, 1)
    [work] = montecarlo._idle_workspaces
    assert sum(flat.nbytes for flat in work._buffers.values()) <= WARM_CHUNK_WORKSPACE_BYTES


def test_every_chunk_borrows_from_the_capped_idle_list(monkeypatch):
    # A cell run outside a sweep gives its workspace back to the idle list
    # too, and the next cell borrows that one, so the cap bounds every
    # workspace that chunks leave behind.
    made = []

    class Recorded(Workspace):
        def __init__(self):
            super().__init__()
            made.append(self)

    monkeypatch.setattr(montecarlo, "Workspace", Recorded)
    monkeypatch.setattr(montecarlo, "_CPUS", 1)
    monkeypatch.setattr(montecarlo, "_idle_workspaces", [])
    point = SimPoint("ostbc_4x2", QAM16, 10.0, 5.0, 0.01, seed=2019, max_bits=24_000)
    run_point(point)
    assert len(made) == 1 and montecarlo._idle_workspaces == made
    run_point(point)
    assert len(made) == 1 and montecarlo._idle_workspaces == made


def test_a_sweep_wider_than_the_cpus_makes_no_more_workspaces_than_cpus(monkeypatch):
    # Each new workspace takes a moment to make, so cells started at once
    # beside it would find the idle list empty and make one each.
    made = []

    class Recorded(Workspace):
        def __init__(self):
            time.sleep(0.05)
            super().__init__()
            made.append(self)

    monkeypatch.setattr(montecarlo, "Workspace", Recorded)
    monkeypatch.setattr(montecarlo, "_CPUS", 2)
    monkeypatch.setattr(montecarlo, "_idle_workspaces", [])
    points = sweep_points(("alamouti_2x1",), ("BPSK",), (0.0, 2.0, 4.0, 6.0, 8.0, 10.0),
                          (0.0,), (0.0,), seed=2020, min_errors=20, max_bits=20_000)
    assert run_sweep(points, 6) == [run_point(p) for p in points]
    assert len(made) <= 2


def test_idle_workspaces_are_at_most_one_per_cpu(monkeypatch):
    points = sweep_points(("alamouti_2x1",), ("BPSK",), (0.0, 2.0, 4.0, 6.0), (0.0,), (0.0,),
                          seed=2018, min_errors=20, max_bits=20_000)
    run_sweep(points, 4)
    assert len(montecarlo._idle_workspaces) <= os.cpu_count()
    monkeypatch.setattr(montecarlo, "_CPUS", 1)
    run_sweep(points, 4)
    assert len(montecarlo._idle_workspaces) == 1


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
