import dataclasses
import math
import sys
import threading
import time
import tracemalloc
import warnings
from collections import Counter
from statistics import NormalDist

import numpy as np
import pytest
from scipy.stats import binom

from coop_ostbc import cli, montecarlo, ostbc
from coop_ostbc.analytic import (
    AnalyticPoint,
    ber_closed_form,
    ber_integral_oracle,
    cell_ber,
)
from coop_ostbc.montecarlo import (
    BerEstimate,
    SimPoint,
    _simulate_chunk,
    derive_seed,
    run_sweep,
    sweep_points,
)
from coop_ostbc.numerics import RngStream, Workspace, sample_circular_gaussian, wilson_interval
from coop_ostbc.ostbc import (
    BPSK,
    CODES,
    QAM16,
    QPSK,
    combine,
    detect,
    modulate,
    transmit,
)

from codeword import encode
from fits import diversity_slope
from planes import planes


def run_alone(point: SimPoint) -> BerEstimate:
    """``point``'s estimate from a one-thread sweep of that cell alone."""
    return run_sweep((point,), 1)[0]


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
        est = run_alone(dataclasses.replace(point, seed=seed))
        hits += est.ci_lo <= reference <= est.ci_hi
    return hits


def test_simulated_ber_matches_closed_form_at_10db():
    point = SimPoint("alamouti_2x1", BPSK, 10.0, 0.0, 0.0, seed=2001, min_errors=500)
    est = run_alone(point)
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
        reference = cell_ber(scheme, mod, 5.0, 0.0, gamma_db)
    else:
        reference = ber_integral_oracle(
            CODES[scheme],
            AnalyticPoint(mod.a_sq, 10.0**0.5, 10.0 ** (gamma_db / 10.0)),
        )
    assert coverage_hits(point, reference) >= COVERAGE_HITS


def full_chain_chunk(point: SimPoint, chunk_index: int) -> tuple[int, int]:
    """The reference for ``_simulate_chunk``: one chunk of the full chain,
    bits -> symbols -> codeword -> Rayleigh links -> AWGN -> combine -> detect.

    It draws the data bits, the channels CN(0, 1) (n_tx, n_rx, n), the
    estimation errors CN(0, beta) of that shape when beta > 0 and the
    antenna noise CN(0, 1) (n_rx, n_slots, n), builds the codeword with
    :func:`encode`, divides the combiner output by sqrt(P) G_est with its own
    G_est = sum_ij |w_i est_ij|^2, and counts like the chunk: (errors, sum
    of the squared per-block errors) over its n blocks.
    """
    code = CODES[point.scheme]
    rng = RngStream(point.seed, chunk_index)
    n = montecarlo._chunk_blocks(point)
    power = 10.0 ** (point.gamma_db / 10.0)
    w = code.weights(10.0 ** (point.r_db / 10.0))[:, None, None]
    work = Workspace()
    tx_bits = rng.bits(code.n_symbols * point.mod.bits_per_symbol * n)
    syms = modulate(tx_bits, point.mod, work).reshape(n, code.n_symbols).T
    h = sample_circular_gaussian(rng, 1.0, (code.n_tx, code.n_rx, n))
    est = h
    if point.beta > 0.0:
        est = h + sample_circular_gaussian(rng, point.beta, h.shape)
    noise = sample_circular_gaussian(rng, 1.0, (code.n_rx, code.n_slots, n))
    y = math.sqrt(power) * np.einsum("ijb,itb->jtb", w * h, encode(code, syms)) + noise
    s_tilde = combine(code, y, est, w[:, 0, 0], work)
    g_est = np.sum(np.abs(w * est) ** 2, axis=(0, 1))
    z = s_tilde / (math.sqrt(power) * g_est)
    wrong = np.flatnonzero(detect(*planes(z.T), point.mod, work) != tx_bits)
    per_block = np.bincount(wrong // point.bits_per_block)
    return wrong.size, int(np.dot(per_block, per_block))


def ber_and_variance(bits, errors, sq_errors, bits_per_block):
    """The BER of some whole blocks and its variance from the per-block error counts."""
    blocks = bits // bits_per_block
    between = (sq_errors - errors * errors / blocks) / (blocks - 1)
    return errors / bits, between / blocks / bits_per_block**2


def z_score(bits, a, b, bits_per_block):
    """Two-sample z statistic between the (errors, squared block errors) ``a``
    and ``b`` of two estimators over ``bits`` bits each."""
    ber_a, var_a = ber_and_variance(bits, *a, bits_per_block)
    ber_b, var_b = ber_and_variance(bits, *b, bits_per_block)
    return (ber_a - ber_b) / math.sqrt(var_a + var_b)


@pytest.mark.parametrize(
    "scheme, mod, gamma_db, r_db, beta, seed",
    [
        ("alamouti_2x1", BPSK, 6.0, 0.0, 0.0, 3001),
        ("ostbc_4x2", QPSK, 4.0, 0.0, 0.0, 3101),
        ("ostbc_4x2", QAM16, 12.0, 0.0, 0.0, 3201),
        # At r = 10 dB and 30 dB the estimation leak is improper, yet the
        # thermal noise the chunk draws per symbol stays white.
        ("alamouti_2x1", QPSK, 30.0, 10.0, 0.05, 3301),
        # QAM16's detector is the one that reads the scale of its input, so
        # this case sees a chunk that drops its 1/sqrt(1+beta).
        ("ostbc_4x2", QAM16, 12.0, 5.0, 0.05, 3401),
    ],
    ids=["alamouti_2x1-BPSK", "ostbc_4x2-QPSK", "ostbc_4x2-QAM16", "alamouti_2x1-QPSK-leak",
         "ostbc_4x2-QAM16-leak"],
)
def test_chunk_agrees_with_the_full_chain_over_a_seed_block(scheme, mod, gamma_db, r_db,
                                                           beta, seed):
    # Per seed, one chunk of each on independent streams. If the two have one
    # distribution, each two-sided 95% z test passes with probability 0.95, so
    # the passes are Bin(COVERAGE_SEEDS, 0.95) and COVERAGE_HITS bounds them
    # as it bounds the coverage blocks. The totals over the block must agree
    # too, at the 0.1% level.
    point = SimPoint(scheme, mod, gamma_db, r_db, beta, seed=seed)
    bits = 10_000 * point.bits_per_block  # one chunk of each
    assert montecarlo._chunk_blocks(point) == 10_000
    z95 = NormalDist().inv_cdf(0.975)
    hits = 0
    totals = np.zeros((2, 2), dtype=np.int64)
    for s in range(seed, seed + COVERAGE_SEEDS):
        cell = dataclasses.replace(point, seed=s)
        [reduced], full = _simulate_chunk((cell,), 0), full_chain_chunk(cell, 1)
        hits += abs(z_score(bits, reduced, full, point.bits_per_block)) <= z95
        totals += (reduced, full)
    assert hits >= COVERAGE_HITS
    assert (abs(z_score(COVERAGE_SEEDS * bits, *totals, point.bits_per_block))
            <= NormalDist().inv_cdf(1 - 0.0005))


def decided_bits(monkeypatch, run):
    """``run()``'s result and every bit that :func:`ostbc.detect` decides
    while it runs, in order, with a ``RuntimeWarning`` raised as an error."""
    decided = []

    def recording_detect(*args):
        bits = detect(*args)
        decided.append(bits.copy())
        return bits

    monkeypatch.setattr(ostbc, "detect", recording_detect)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        result = run()
    return result, np.concatenate(decided)


def test_extreme_cell_decides_both_bit_values_without_a_warning(tmp_path, monkeypatch):
    # simulate --gamma-db 3080 --r-db 0 --beta 1e300: sqrt(P) G_est is about
    # 1e304, while P G_est would overflow. Its BER is about 1/2, and the
    # decisions must take both bit values, not all fall to label 0.
    argv = ["simulate", "--gamma-db", "3080", "--r-db", "0", "--beta", "1e300",
            "--max-bits", "40000", "--output", str(tmp_path / "extreme.csv")]
    exit_code, bits = decided_bits(monkeypatch, lambda: cli.main(argv))
    assert exit_code == 0
    assert bits.size == 40_000
    assert set(np.unique(bits)) == {0, 1}
    assert 0.45 < bits.mean() < 0.55


@pytest.mark.parametrize("beta", [1e308, sys.float_info.max], ids=["1e308", "max"])
@pytest.mark.parametrize("scheme, mod", [("alamouti_2x1", QPSK), ("ostbc_4x2", QAM16)],
                         ids=["alamouti_2x1-QPSK", "ostbc_4x2-QAM16"])
def test_any_finite_beta_decides_both_bit_values_without_a_warning(monkeypatch, scheme,
                                                                   mod, beta):
    # |est|^2 is about beta, past the largest float at beta = 1e308, so the
    # chunk sums the powers of the unit draws u of est = sqrt(1+beta) u and
    # carries sqrt(1+beta) apart. The estimate is then almost all error,
    # and the BER is 1/2.
    point = SimPoint(scheme, mod, 10.0, 0.0, beta, seed=2018, max_bits=4_000)
    hits, bits = decided_bits(monkeypatch, lambda: coverage_hits(point, 0.5))
    assert hits >= COVERAGE_HITS
    assert set(np.unique(bits)) == {0, 1}


def curve_stream(point: SimPoint, chunk_index: int = 0) -> RngStream:
    """The one stream of the bits, fades and noise that chunk ``chunk_index``
    of ``point``'s curve draws."""
    return RngStream(point.curve[-1], chunk_index)


def replayed_draws(point: SimPoint, chunk_index: int = 0):
    """Chunk ``chunk_index`` of ``point``'s curve replayed in its stream's
    order: the bits in block order, the raw fades, and the two rows of the
    raw noise, each of shape (n_symbols, blocks). The fades are the path
    powers |h_ij|^2 at beta = 0, and the unit estimates u and the unit
    errors v at beta > 0, each of shape (n_tx, n_rx, blocks)."""
    code = CODES[point.scheme]
    n = montecarlo._chunk_blocks(point)
    replay = curve_stream(point, chunk_index)
    tx_bits = replay.bits(point.bits_per_block * n)
    shape = (code.n_tx, code.n_rx, n)
    if point.beta == 0.0:
        fades = (replay.exponentials(shape),)
    else:
        fades = tuple(sample_circular_gaussian(replay, 1.0, shape) for _ in "uv")
    return tx_bits, fades, replay.normal_pairs((code.n_symbols, n))


def cell_input(noise, signal, root, gamma_db: float):
    """signal + the raw noise / (sqrt(2 P) sqrt(G_est)), in the chunk's own
    operations, so it is the cell's detector input to the last bit."""
    scale = 1.0 / (math.sqrt(2.0) * math.sqrt(10.0 ** (gamma_db / 10.0))) / root
    x, y = noise
    return (x * scale + signal.real) + 1j * (y * scale + signal.imag)


def chunk_branches(cells, chunk_index: int = 0):
    """Chunk ``chunk_index`` of the curve of ``cells`` up to its noise stage:
    {(r_db, beta): (signal, sqrt(G_est))} for every (r, beta) of ``cells``,
    copied out of the workspace, from the chunk's own fade draw and
    branches at weights of this test's choosing. The bits are drawn in the
    stream's block order and their symbols laid out as (n_symbols, blocks)."""
    first = cells[0]
    code = CODES[first.scheme]
    rng = curve_stream(first, chunk_index)
    n = montecarlo._chunk_blocks(first)
    work = Workspace()
    tx_bits = rng.bits(first.bits_per_block * n)
    syms = modulate(tx_bits, first.mod, work).reshape(n, code.n_symbols).T.copy()
    fades = montecarlo._draw_fades(work, rng, code, first.beta == 0.0, n)
    got = {}
    for r_db in dict.fromkeys(cell.r_db for cell in cells):
        betas = tuple(dict.fromkeys(cell.beta for cell in cells if cell.r_db == r_db))
        w = code.weights(10.0 ** (r_db / 10.0))
        for beta, (signal, _, root) in zip(betas, montecarlo._branch(work, code, syms, fades, w,
                                                                     betas)):
            assert signal.flags.c_contiguous
            got[r_db, beta] = (signal.copy(), root.copy())
    return got


def chunk_fade_stage(monkeypatch, point: SimPoint, chunk_index: int = 0):
    """The (signal, sqrt(G_est)) that ``_simulate_chunk((point,),
    chunk_index)`` hands its noise stage, copied as the chunk passes them,
    so the weights are the ones that the chunk itself takes for its r."""
    handed = []
    noise_stage = montecarlo._noise_stage

    def recording_noise_stage(work, planes, noise, signal, root, power):
        handed.append((signal.copy(), root.copy()))
        return noise_stage(work, planes, noise, signal, root, power)

    with monkeypatch.context() as patch:
        patch.setattr(montecarlo, "_noise_stage", recording_noise_stage)
        _simulate_chunk((point,), chunk_index)
    (stage,) = handed
    return stage


def effective_link(code, point: SimPoint, fades):
    """The replayed effective channels of a chunk: (w, h, est, G_est), with h
    = (u + sqrt(beta) v) / sqrt(1+beta) and est = sqrt(1+beta) u at beta >
    0, built from the unit draws with plain numpy, and G_est = sum_ij
    w_i^2 |est_ij|^2 per block (|h_ij|^2 summed at beta = 0, where h and
    est are None)."""
    r = 10.0 ** (point.r_db / 10.0)
    node_power = {"BS": 1.0 / (1.0 + r), "RS": r / (1.0 + r)}
    w_sq = np.array([node_power[node] / code.nodes.count(node) for node in code.nodes])
    if point.beta == 0.0:
        (paths,) = fades
        return np.sqrt(w_sq), None, None, np.sum(w_sq[:, None, None] * paths, axis=(0, 1))
    u, v = fades
    h = (u + math.sqrt(point.beta) * v) / math.sqrt(1.0 + point.beta)
    est = math.sqrt(1.0 + point.beta) * u
    return (np.sqrt(w_sq), h, est,
            np.sum(w_sq[:, None, None] * np.abs(est) ** 2, axis=(0, 1)))


@pytest.mark.parametrize("beta", [0.0, 0.05, 3.0])
@pytest.mark.parametrize("r_db", [-7.0, 0.0, 10.0])
@pytest.mark.parametrize("code", CODES.values(), ids=lambda c: c.name)
def test_fade_stage_gain_is_the_imbalance_weighted_branch_sum(monkeypatch, code, r_db, beta):
    # G_est = sum_i w_i^2 sum_j |est_ij|^2, with w_B^2 = 1/(1+r) and
    # w_R^2 = r/(1+r) split over each node's antennas, over the chunk's own
    # draws: the path powers |h_ij|^2 at beta = 0; at beta > 0, the unit
    # draws u and v, with est = sqrt(1+beta) u and h = (u + sqrt(beta) v) /
    # sqrt(1+beta). The branch returns sqrt(G_est). The signal is the
    # symbols at beta = 0, where the matched filter returns G s exactly.
    # At beta > 0 the branch forms it from the leak of v alone, as a (a s +
    # b L / G); it must equal the full combiner output on the replayed
    # effective channels, combine(transmit(s, w h), w est) / G_est, which
    # holds only if that algebra, its shrinks a and b and the weights of
    # both layers are right.
    point = SimPoint(code.name, QPSK, 10.0, r_db, beta, seed=2019, max_bits=6_000)
    signal, root = chunk_fade_stage(monkeypatch, point)
    n = root.size
    tx_bits, fades, _ = replayed_draws(point)
    syms = modulate(tx_bits, QPSK, Workspace()).reshape(n, code.n_symbols).T
    w, h, est, expected = effective_link(code, point, fades)
    assert np.max(np.abs(root**2 - expected) / expected) < 1e-13
    if beta == 0.0:
        assert np.array_equal(signal, syms)
        return
    y = transmit(code, syms, h, w, Workspace())
    want = combine(code, y, est, w, Workspace()) / expected
    assert np.max(np.abs(signal - want)) < 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("code", CODES.values(), ids=lambda c: c.name)
def test_chunk_counts_what_the_detector_decides_at_a_large_beta(monkeypatch, code):
    # At beta = 3 the estimate est = 2 u is half error. The fade stage's
    # sqrt(G_est) is that of est, not of the unit draws u, and the chunk
    # counts the errors that the QAM16 detector, which reads the scale of its
    # input, makes of the raw noise that the stream gives after the fades,
    # scaled to the cell's SNR. The replay decides and counts in the
    # stream's block order, so the sum of the squared block errors checks
    # the block that the chunk finds for each wrong bit.
    point = SimPoint(code.name, QAM16, 10.0, 5.0, 3.0, seed=2020, max_bits=6_000)
    signal, root = chunk_fade_stage(monkeypatch, point)
    tx_bits, fades, noise = replayed_draws(point)
    *_, expected = effective_link(code, point, fades)
    assert np.max(np.abs(root**2 - expected) / expected) < 1e-13
    z = cell_input(noise, signal, root, point.gamma_db)
    wrong = np.flatnonzero(detect(*planes(z.T), QAM16, Workspace()) != tx_bits)
    per_block = np.bincount(wrong // point.bits_per_block)
    assert wrong.size > 0
    assert _simulate_chunk((point,), 0) == [(wrong.size, int(np.dot(per_block, per_block)))]


def recorded_inputs(monkeypatch, cells, chunk_index: int):
    """Chunk ``chunk_index`` of ``cells``: its counts, each cell's detector
    input as a complex array, each cell's decisions, and how many streams
    the chunk made."""
    inputs, decisions, streams = [], [], []

    def recording_detect(zr, zi, mod, work):
        inputs.append(zr + 1j * zi)
        bits = detect(zr, zi, mod, work)
        decisions.append(bits.copy())  # before the chunk counts over them
        return bits

    def recording_stream(*args):
        streams.append(args)
        return RngStream(*args)

    monkeypatch.setattr(ostbc, "detect", recording_detect)
    monkeypatch.setattr(montecarlo, "RngStream", recording_stream)
    counts = _simulate_chunk(cells, chunk_index)
    return counts, inputs, decisions, len(streams)


@pytest.mark.parametrize("beta", [0.0, 0.05])
def test_cells_of_a_curve_share_the_fade_and_the_noise(monkeypatch, beta):
    # Chunk 1 of a curve of two r, one or two beta and three SNR values
    # makes one stream, the curve's, and draws from it the bits, the fades
    # and then one raw noise. Every cell counts against those bits, and its
    # detector input is its branch's signal over its branch's G_est plus
    # that raw noise scaled to the cell's own SNR. A chunk that drew each
    # cell's noise from a stream of its own, drew the noise before the
    # fades, let a cell's input overwrite the raw noise, or let one branch
    # weight the fades that the next one reads, fails the input check.
    betas = (beta,) if beta == 0.0 else (0.01, beta)
    cells = sweep_points(("ostbc_4x2",), ("QPSK",), (2.0, 6.0, 10.0), (0.0, 5.0), betas,
                         seed=2022, max_bits=24_000)
    assert len({cell.curve for cell in cells}) == 1
    counts, inputs, _, streams = recorded_inputs(monkeypatch, cells, 1)
    monkeypatch.undo()
    branches = chunk_branches(cells, chunk_index=1)
    tx_bits, _, noise = replayed_draws(cells[0], 1)
    assert streams == 1
    assert len(branches) == 2 * len(betas)
    assert len(inputs) == len(counts) == len(cells)
    for cell, z, (errors, sq_errors) in zip(cells, inputs, counts):
        want = cell_input(noise, *branches[cell.r_db, cell.beta], cell.gamma_db)
        assert np.max(np.abs(z - want)) <= 1e-12 * np.max(np.abs(want))
        # Decided and counted in the stream's block order.
        wrong = np.flatnonzero(detect(*planes(z.T), QPSK, Workspace()) != tx_bits)
        per_block = np.bincount(wrong // cell.bits_per_block)
        assert (errors, sq_errors) == (wrong.size, int(np.dot(per_block, per_block)))
        assert errors > 0


@pytest.mark.parametrize("beta", [0.0, 0.05])
@pytest.mark.parametrize("mod", [BPSK, QPSK], ids=lambda m: m.name)
@pytest.mark.parametrize("scheme", CODES)
def test_wrong_bits_nest_along_the_snr_axis(monkeypatch, scheme, mod, beta):
    # With one raw noise n for the whole curve, a BPSK or QPSK bit is
    # decided by the sign of m + c n on its own axis, where m is the
    # noiseless input and c shrinks as the SNR grows. So a bit decided
    # unlike m's own decision at a higher SNR is decided so at every lower
    # SNR too. At beta = 0, m is the transmitted symbol: a bit wrong at a
    # higher SNR is wrong at every lower SNR. At beta > 0 an estimation
    # error can put m on the wrong side, and such a bit may be right at a
    # low SNR and wrong at a high one; among the bits whose m decides
    # rightly, the wrong bits still nest.
    cells = sweep_points((scheme,), (mod.name,), tuple(range(0, 31, 3)), (5.0,), (beta,),
                         seed=2024)
    counts, _, decided, _ = recorded_inputs(monkeypatch, cells, 0)
    monkeypatch.undo()
    signal, root = chunk_fade_stage(monkeypatch, cells[0])
    n = root.size
    tx_bits, _, _ = replayed_draws(cells[0])
    # The bits in the detector's (n_symbols, blocks, bits per symbol) order.
    tx = tx_bits.reshape(n, -1, mod.bits_per_symbol).transpose(1, 0, 2).ravel()
    noiseless = detect(*planes(signal), mod, Workspace())
    assert [int(np.sum(d != tx)) for d in decided] == [errors for errors, _ in counts]
    if beta == 0.0:
        assert np.array_equal(noiseless, tx)
    for lower, higher in zip(decided, decided[1:]):
        assert not np.any((higher != noiseless) & (lower == noiseless))
        assert not np.any((higher != tx) & (lower == tx) & (noiseless == tx))
    assert counts[0][0] > counts[-1][0]


def test_a_cells_row_is_the_same_alone_and_in_its_whole_curve(tmp_path):
    # 2x1 BPSK cells of 10,000-block chunks: at 0 dB a cell stops at
    # min_errors in chunk 0, at 20 dB it runs three chunks to max_bits, so
    # the cells of a curve leave its chunks at different times. Each row
    # must be the bytes of the one-cell sweep of its SNR.
    base = ["simulate", "--scheme", "alamouti_2x1", "--modulation", "BPSK",
            "--r-db", "5", "--beta", "0,0.05", "--seed", "2023", "--min-errors", "100",
            "--max-bits", "60000"]

    def rows(gamma_db):
        out = tmp_path / "sweep.csv"
        assert cli.main(base + ["--gamma-db", gamma_db, "--output", str(out)]) == 0
        return {tuple(row.split(",")[:5]): row for row in out.read_text().splitlines()[1:]}

    curves = rows("0:20:2")
    alone = {}
    for gamma_db in range(0, 21, 2):
        alone.update(rows(str(gamma_db)))
    assert len(curves) == 22
    assert alone == curves
    bits, errors = zip(*(map(int, row.split(",")[9:11]) for row in curves.values()))
    assert bits[0] == 20_000 and errors[0] >= 100  # 0 dB, beta = 0
    assert bits[10] == 60_000 and errors[10] < 100  # 20 dB, beta = 0


def test_run_sweep_raises_at_its_first_chunk_before_any_draw(monkeypatch):
    # The chunk is where every draw happens, so a sweep whose first chunk
    # raises has drawn nothing.
    streams = []
    original = RngStream.__init__

    def recording_init(self, *args):
        streams.append(args)
        original(self, *args)

    class FirstChunk(Exception):
        pass

    def first_chunk(cells, chunk_index):
        raise FirstChunk(chunk_index)

    monkeypatch.setattr(RngStream, "__init__", recording_init)
    monkeypatch.setattr(montecarlo, "_simulate_chunk", first_chunk)
    points = sweep_points(("alamouti_2x1", "ostbc_4x2"), ("QPSK",), (0.0, 6.0), (0.0,),
                          (0.0, 0.05), seed=2024)
    with pytest.raises(FirstChunk):
        run_sweep(points, 2)
    assert streams == []


def test_a_lone_curve_is_one_task_on_two_threads(monkeypatch):
    # One curve on two threads is still one task: chunk 0 runs every cell in
    # one call. The second thread is free from the start, so from chunk 1 on
    # it may run a lookahead, chunk k+1 of the cells open before chunk k;
    # each call of chunk k therefore holds only cells that ran chunk k-1, and
    # every cell that runs chunk k is in one of them. Every estimate is still
    # the one of its one-cell sweep.
    points = sweep_points(("alamouti_2x1",), ("BPSK",), (0.0, 4.0, 8.0, 12.0, 16.0, 20.0),
                          (5.0,), (0.05,), seed=2025, min_errors=100, max_bits=60_000)
    want = [run_alone(p) for p in points]
    used = dict(zip(points, (e.streams_used for e in want)))
    assert len({p.curve for p in points}) == 1 and max(used.values()) > 1
    calls = []
    chunk = montecarlo._simulate_chunk

    def recording(cells, chunk_index):
        calls.append((chunk_index, cells))
        return chunk(cells, chunk_index)

    monkeypatch.setattr(montecarlo, "_CPUS", 2)
    monkeypatch.setattr(montecarlo, "_simulate_chunk", recording)
    assert run_sweep(points, 2) == want
    assert [cells for chunk_index, cells in calls if chunk_index == 0] == [points]
    for k in range(1, max(used.values())):
        held = [set(cells) for chunk_index, cells in calls if chunk_index == k]
        assert all(used[p] >= k for cells in held for p in cells)
        assert {p for p in points if used[p] > k} <= set().union(*held)


def test_a_grid_of_enough_curves_covers_its_one_thread_calls_on_two(monkeypatch):
    # On one thread each curve runs chunk k of the cells still open before
    # it, and nothing else. On two threads a free thread may also run a
    # lookahead: chunk k+1 of the cells open before chunk k, which may be a
    # chunk that no cell reaches once they stop at min_errors in chunk k. So
    # a two-thread call holds every cell that the one-thread call of its
    # curve and index holds, and only cells of the one-thread call before it.
    points = sweep_points(("alamouti_2x1",), ("BPSK", "QPSK"), (0.0, 10.0, 20.0), (5.0,),
                          (0.0, 0.05), seed=2026, min_errors=100, max_bits=60_000)
    want = [run_alone(p) for p in points]
    curves: dict = {}
    for point, estimate in zip(points, want):
        curves.setdefault(point.curve, []).append((point, estimate.streams_used))
    expected = Counter((tuple(p for p, used in cells if used > k), k)
                       for cells in curves.values()
                       for k in range(max(used for _, used in cells)))
    chunk = montecarlo._simulate_chunk

    def calls(threads):
        made = []

        def recording(cells, chunk_index):
            made.append((cells, chunk_index))
            return chunk(cells, chunk_index)

        with monkeypatch.context() as patch:
            patch.setattr(montecarlo, "_CPUS", 2)
            patch.setattr(montecarlo, "_simulate_chunk", recording)
            assert run_sweep(points, threads) == want
        return Counter(made)

    one = calls(1)
    assert one == expected
    assert len(curves) == 4 and max(chunk_index for _, chunk_index in one) > 0
    opened = {(cells[0].curve, chunk_index): set(cells) for cells, chunk_index in one}
    two = calls(2)
    assert max(two.values()) == 1
    for cells, chunk_index in two:
        curve = cells[0].curve
        assert opened.get((curve, chunk_index), set()) <= set(cells)
        assert set(cells) <= opened[(curve, max(chunk_index - 1, 0))]


def test_a_failing_chunk_stops_the_other_tasks_at_their_next_chunk(monkeypatch):
    # Two curves on two threads. The beta = 0 curve's chunk 0 raises once
    # the other curve's chunk 0 has started, and that chunk returns only
    # after the raise, so the other curve must see the failure before its
    # chunk 1, which it would otherwise run: its cell runs two chunks.
    points = sweep_points(("alamouti_2x1",), ("BPSK",), (20.0,), (5.0,), (0.0, 0.05),
                          seed=2027, min_errors=100, max_bits=60_000)
    assert run_alone(points[1]).streams_used == 2
    other_started, raised = threading.Event(), threading.Event()
    calls = []
    chunk = montecarlo._simulate_chunk

    class Failed(Exception):
        pass

    def failing(cells, chunk_index):
        calls.append((cells[0].beta, chunk_index))
        if cells[0].beta == 0.0:
            assert other_started.wait(timeout=60)
            raised.set()
            raise Failed
        other_started.set()
        assert raised.wait(timeout=60)
        time.sleep(0.05)  # lets the raise reach the failing curve's handler
        return chunk(cells, chunk_index)

    monkeypatch.setattr(montecarlo, "_CPUS", 2)
    monkeypatch.setattr(montecarlo, "_simulate_chunk", failing)
    with pytest.raises(Failed):
        run_sweep(points, 2)
    assert sorted(calls) == [(0.0, 0), (0.05, 0)]


def lookahead_grid():
    # One curve of 2x1 BPSK cells at 0 and 13 dB, r = -10 and 0 dB: on two
    # threads it is one task, and the second thread is free from the start.
    # The 0 dB cells stop at min_errors after chunk 0; the 13 dB cells stop
    # at min_errors after chunk 1 (r = -10 dB) and chunk 3 (r = 0 dB), far
    # below the max_bits of 10 chunks.
    points = sweep_points(("alamouti_2x1",), ("BPSK",), (0.0, 13.0), (-10.0, 0.0), (0.0,),
                          seed=2031, min_errors=100, max_bits=200_000)
    want = [run_alone(p) for p in points]
    assert [(p.r_db, p.gamma_db, e.streams_used) for p, e in zip(points, want)] == [
        (-10.0, 0.0, 1), (-10.0, 13.0, 2), (0.0, 0.0, 1), (0.0, 13.0, 4)]
    assert all(e.errors >= 100 for e in want)
    return points, want


def holding(patch, holds, fail=None):
    """Record each chunk call as (chunk index, thread, cells); chunk k of
    ``holds`` waits until a call of chunk ``holds[k]`` has started, and a
    call of chunk ``fail`` raises ``Failed`` once it has started."""
    started = {j: threading.Event() for j in holds.values()}
    calls = []
    chunk = montecarlo._simulate_chunk

    def recording(cells, chunk_index):
        calls.append((chunk_index, threading.get_ident(), cells))
        if chunk_index in started:
            started[chunk_index].set()
        if chunk_index == fail:
            raise Failed(chunk_index)
        if chunk_index in holds:
            assert started[holds[chunk_index]].wait(timeout=60)
        return chunk(cells, chunk_index)

    patch.setattr(montecarlo, "_CPUS", 2)
    patch.setattr(montecarlo, "_simulate_chunk", recording)
    return calls


class Failed(Exception):
    pass


def test_a_free_thread_runs_the_next_chunk_while_the_task_runs_its_chunk(monkeypatch):
    # The curve's chunk 1 returns only once chunk 2 has started, and only
    # the free thread can start it: as the lookahead of both 13 dB cells,
    # of which the curve keeps the counts of the r = 0 dB cell alone.
    points, want = lookahead_grid()
    calls = holding(monkeypatch, {1: 2})
    assert run_sweep(points, 2) == want
    [(_, task, ran)] = [call for call in calls if call[0] == 1]
    [(_, other, ahead)] = [call for call in calls if call[0] == 2]
    assert other != task
    assert ran == ahead == (points[1], points[3])
    assert [call[2] for call in calls if call[0] == 3] == [(points[3],)]


def test_no_lookahead_during_chunk_0_past_max_bits_or_on_one_thread(monkeypatch):
    # A 30 dB cell that stops at max_bits after K = 2 chunks, on two threads:
    # its curve is the one task, so one thread is free for the whole sweep.
    # Each chunk sleeps long enough for a lookahead to start on that thread:
    # none may start during chunk 0, and none of chunk K at all.
    [point] = sweep_points(("alamouti_2x1",), ("BPSK",), (30.0,), (0.0,), (0.0,), seed=2032,
                           max_bits=40_000)
    want = run_alone(point)
    assert want.streams_used == 2 and want.bits == 40_000 and want.errors < 100
    calls, running = [], set()
    chunk = montecarlo._simulate_chunk

    def sleeping(cells, chunk_index):
        calls.append((chunk_index, frozenset(running)))
        running.add(chunk_index)
        try:
            time.sleep(0.1)
            return chunk(cells, chunk_index)
        finally:
            running.discard(chunk_index)

    with monkeypatch.context() as patch:
        patch.setattr(montecarlo, "_CPUS", 2)
        patch.setattr(montecarlo, "_simulate_chunk", sleeping)
        assert run_sweep((point,), 2) == [want]
    assert calls == [(0, frozenset()), (1, frozenset())]
    # One thread never offers a lookahead, in a sweep of many cells or of one; two do.
    points, want = lookahead_grid()
    submitted = []

    class Recorded(montecarlo.ThreadPoolExecutor):
        def submit(self, fn, *args, **kwargs):
            submitted.append(fn)
            return super().submit(fn, *args, **kwargs)

    monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", Recorded)
    monkeypatch.setattr(montecarlo, "_CPUS", 2)
    assert run_sweep(points, 1) == want
    assert [run_alone(p) for p in points] == want
    # The one-thread sweep's one curve and each one-cell sweep's, and nothing else.
    assert len(submitted) == 1 + len(points) and montecarlo._simulate_chunk not in submitted
    assert run_sweep(points, 2) == want
    assert montecarlo._simulate_chunk in submitted


def test_a_lookahead_fails_a_sweep_only_at_a_chunk_that_a_cell_reaches(monkeypatch):
    points, _ = lookahead_grid()
    # No cell reaches chunk 4. On two threads, chunks 1 and 3 wait until
    # chunks 2 and 4 have started, so the free thread runs chunk 4 as a
    # lookahead of the r = 0 dB, 13 dB cell, and its error is dropped.
    with monkeypatch.context() as patch:
        holding(patch, {}, fail=4)
        one = run_sweep(points, 1)
    with monkeypatch.context() as patch:
        calls = holding(patch, {1: 2, 3: 4}, fail=4)
        assert run_sweep(points, 2) == one
    assert [call[2] for call in calls if call[0] == 4] == [(points[3],)]
    # The r = 0 dB, 13 dB cell reaches chunk 2: run by its curve on one thread
    # and as a lookahead on two, its error fails the sweep.
    for threads, holds in ((1, {}), (2, {1: 2})):
        with monkeypatch.context() as patch:
            calls = holding(patch, holds, fail=2)
            with pytest.raises(Failed):
                run_sweep(points, threads)
        assert sorted(call[0] for call in calls) == [0, 1, 2]


def test_lookaheads_keep_every_estimate_under_fast_thread_switches(monkeypatch):
    # Four threads on however many CPUs, switching every microsecond, over
    # curves that stop at min_errors and at max_bits after chunks 1 to 9:
    # curves, lookaheads and their cancellations interleave in every order,
    # and a count taken from the wrong chunk or cell would move an estimate.
    points, _ = lookahead_grid()
    points += sweep_points(("alamouti_2x1", "ostbc_4x2"), ("BPSK", "QPSK"), (8.0, 14.0, 20.0),
                           (5.0,), (0.0, 0.05), seed=2033, min_errors=100, max_bits=200_000)
    want = [run_alone(p) for p in points]
    assert max(e.streams_used for e in want) > 3
    monkeypatch.setattr(montecarlo, "_CPUS", 4)
    got = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        thread = threading.Thread(target=lambda: got.extend(run_sweep(points, 4) for _ in range(3)))
        thread.start()
        thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not thread.is_alive()
    assert got == [want] * 3


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
    [(errors, sq_errors)] = _simulate_chunk((point,), 0)
    # Each of the errors sits in a block of 12 bits: errors <= sum e_b^2 <= 12 errors,
    # and the squares exceed the counts as soon as a block holds two errors.
    assert point.bits_per_block == 12 and errors > 0
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
        ((SimPoint("ostbc_4x2", QAM16, 10.0, 5.0, 0.01, seed=2013),), 0),
        ((SimPoint("ostbc_4x2", QAM16, 10.0, 5.0, 0.0, seed=2021),), 0),
        ((SimPoint("alamouti_2x1", BPSK, 4.0, 0.0, 0.0, seed=2014),), 0),
        ((SimPoint("ostbc_4x2", QPSK, 2.0, 0.0, 0.05, seed=2015, max_bits=30_000),), 0),
        ((SimPoint("ostbc_4x2", QAM16, 10.0, 5.0, 0.01, seed=2013),), 1),
    ]
    alone = [_on_new_buffers(monkeypatch, lambda c=c: _simulate_chunk(*c)) for c in chunks]
    in_turn = _on_new_buffers(monkeypatch, lambda: [_simulate_chunk(*c) for c in chunks])
    assert chunks[3][0][0].max_bits // chunks[3][0][0].bits_per_block < 10_000
    assert all(errors > 0 for [(errors, _)] in alone)
    assert in_turn == alone


def test_concurrent_sweeps_never_share_a_workspace():
    # Sweeps started at once from several threads, and threads that run
    # one-cell sweeps beside them, borrow workspaces from, and give them back
    # to, one list; a workspace lent to two chunks at once would mix them
    # and change the estimates.
    points = sweep_points(("alamouti_2x1", "ostbc_4x2"), ("BPSK", "QAM16"), (0.0, 6.0),
                          (0.0,), (0.0, 0.05), seed=2017, min_errors=50, max_bits=40_000)
    want = [run_alone(p) for p in points]
    assert run_sweep(points, 3) == want  # leaves workspaces to borrow
    got = [None] * 6

    def sweep(i):
        got[i] = run_sweep(points, 3)

    def direct(i):
        got[i] = [run_alone(p) for p in points]

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
    # Both fade stages: the channel chain at beta > 0, the path powers at 0.
    for beta in (0.01, 0.0):
        point = SimPoint("ostbc_4x2", QAM16, 10.0, 5.0, beta, seed=2016)

        def fresh_bytes():
            _simulate_chunk((point,), 0)  # sizes the new workspace's buffers
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                _simulate_chunk((point,), 1)
                return tracemalloc.get_traced_memory()[1] - start
            finally:
                tracemalloc.stop()

        assert _on_new_buffers(monkeypatch, fresh_bytes) <= FRESH_CHUNK_BYTES / 4


# What the workspace of a warm 10k-block ostbc_4x2 QAM16 beta=0.01 chunk
# held with a codeword array and a received-signal array of its own:
# 11,640,000 bytes; with transmit and combine each weighting the channels
# into a scratch array of their own: 7,400,000 bytes. The chunk now weights
# its drawn channels once, in place: 6,280,000 bytes; with the bits
# reordered into the (n_symbols, blocks) layout of every later array, a
# "bits" array of 120,000 bytes more: 6,400,000. Its path powers and every
# chunk's per-cell detector input reuse the bytes of the channels, since
# path powers and noise under names of their own would grow a workspace
# that runs both fade stages to 7,400,000. A beta = 0 chunk needed
# 1,880,000 bytes while detect staged a copy of its complex input in the
# scratch (560,000 bytes), and 1,520,000 while each cell drew its own noise
# as the detector's real and imaginary planes (a scratch of 80,000). Since
# the chunk draws one raw noise for all of its cells, each cell's planes
# take the bytes of the estimates, which a beta = 0 chunk has no other use
# for: one (2, n_symbols, blocks) float array, 480,000 bytes, more at beta =
# 0 and none at beta > 0. Since one draw of fades serves every r of a curve,
# the fades stay unweighted and the raw noise, read by every branch, has a
# (2, n_symbols, blocks) float array of its own: 480,000 bytes more at beta =
# 0 (2,480,000). At beta > 0 that array and the per-antenna path powers
# (320,000) are paid for by the scratch, which falls from 1,280,000 to
# 320,000: the normals are drawn into the fades' own bytes, and transmit
# and combine work one rx antenna at a time. Each beta's signal, root and
# cell planes take the bytes of the received samples after combining, so
# the chunk holds 6,240,000 bytes.
WARM_CHUNK_WORKSPACE_BYTES = 6_600_000
WARM_BETA_0_CHUNK_WORKSPACE_BYTES = 1_600_000 + 480_000 + 480_000


def test_warm_chunk_workspace_holds_no_codeword_or_signal_copy(monkeypatch):
    monkeypatch.setattr(montecarlo, "_idle_workspaces", [])
    # One workspace through both fade stages, beta = 0 first.
    for beta, bound in ((0.0, WARM_BETA_0_CHUNK_WORKSPACE_BYTES),
                        (0.01, WARM_CHUNK_WORKSPACE_BYTES)):
        point = SimPoint("ostbc_4x2", QAM16, 10.0, 5.0, beta, seed=2016)
        _simulate_chunk((point,), 0)
        _simulate_chunk((point,), 1)
        [work] = montecarlo._idle_workspaces
        assert sum(flat.nbytes for flat in work._buffers.values()) <= bound


def test_every_chunk_borrows_from_the_capped_idle_list(monkeypatch):
    # A one-cell sweep on one thread gives its workspace back to the idle
    # list too, and the next sweep borrows that one, so the cap bounds every
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
    run_alone(point)
    assert len(made) == 1 and montecarlo._idle_workspaces == made
    run_alone(point)
    assert len(made) == 1 and montecarlo._idle_workspaces == made


def six_one_chunk_curves(seed: int):
    # 2x1 BPSK, QPSK and QAM16 at beta 0 and 0.05: six curves of one cell
    # that each stop at max_bits after one chunk.
    points = sweep_points(("alamouti_2x1",), ("BPSK", "QPSK", "QAM16"), (0.0,), (0.0,),
                          (0.0, 0.05), seed=seed, min_errors=20, max_bits=20_000)
    assert len({p.curve for p in points}) == 6
    return points


def overlapping(patch, seconds: float = 0.05):
    """Hold every chunk for ``seconds`` inside its workspace, so the chunks
    that a sweep's threads can run at once do; returns [peak] of those
    running at once."""
    peak, running, lock = [0], [0], threading.Lock()
    chunk_in = montecarlo._simulate_chunk_in

    def held(work, cells, chunk_index):
        with lock:
            running[0] += 1
            peak[0] = max(peak[0], running[0])
        try:
            time.sleep(seconds)
            return chunk_in(work, cells, chunk_index)
        finally:
            with lock:
                running[0] -= 1

    patch.setattr(montecarlo, "_simulate_chunk_in", held)
    return peak


def test_a_sweep_wider_than_the_cpus_makes_no_more_workspaces_than_cpus(monkeypatch):
    # Six curves on six workers and two CPUs: two chunks run at once, each
    # holding its workspace, and no more; more threads would start more
    # chunks at once, each finding the idle list empty and making one.
    points = six_one_chunk_curves(2020)
    want = [run_alone(p) for p in points]
    made = []

    class Recorded(Workspace):
        def __init__(self):
            super().__init__()
            made.append(self)

    monkeypatch.setattr(montecarlo, "Workspace", Recorded)
    monkeypatch.setattr(montecarlo, "_CPUS", 2)
    monkeypatch.setattr(montecarlo, "_idle_workspaces", [])
    peak = overlapping(monkeypatch)
    assert run_sweep(points, 6) == want
    assert peak == [2] and len(made) == 2


def test_idle_workspaces_are_at_most_one_per_cpu(monkeypatch):
    # Two CPUs run two chunks at once and leave two workspaces idle; on one
    # CPU the next sweep's chunk gives its workspace back to a list that
    # already holds the other, which must drop one.
    points = six_one_chunk_curves(2018)
    monkeypatch.setattr(montecarlo, "_CPUS", 2)
    monkeypatch.setattr(montecarlo, "_idle_workspaces", [])
    peak = overlapping(monkeypatch)
    run_sweep(points, 4)
    assert peak == [2] and len(montecarlo._idle_workspaces) == 2
    monkeypatch.setattr(montecarlo, "_CPUS", 1)
    run_sweep(points, 4)
    assert len(montecarlo._idle_workspaces) == 1


def test_noise_dominated_limit_is_half():
    point = SimPoint("alamouti_2x1", QPSK, -100.0, 0.0, 0.0, seed=2002)
    est = run_alone(point)
    assert est.ber == pytest.approx(0.5, abs=0.02)


def test_estimation_errors_dominate_at_high_snr():
    clean = run_alone(
        SimPoint("alamouti_2x1", QPSK, 30.0, 0.0, 0.0, seed=2003, min_errors=100)
    )
    noisy_csi = run_alone(
        SimPoint("alamouti_2x1", QPSK, 30.0, 0.0, 0.1, seed=2003, min_errors=300)
    )
    assert noisy_csi.ber > 10.0 * clean.ber


def test_a_lone_cell_is_deterministic():
    # The worker invariance of whole sweeps is checked through the CLI
    # (test_golden, test_simulate_workers_do_not_change_bytes, c09).
    point = SimPoint("alamouti_2x1", QPSK, 8.0, 3.0, 0.02, seed=2004, min_errors=150)
    assert run_alone(point) == run_alone(point)


def test_a_lone_cell_respects_max_bits():
    point = SimPoint(
        "alamouti_2x1", QPSK, 40.0, 0.0, 0.0, seed=2005, min_errors=10**9,
        max_bits=1000,
    )
    est = run_alone(point)
    assert est.streams_used == 1
    assert est.bits == 1000


@pytest.mark.parametrize("threads", [1, 2])
def test_a_cell_stops_after_the_first_chunk_that_meets_its_stopping_rule(monkeypatch,
                                                                         threads):
    # 2x1 QPSK chunks hold 40,000 bits, so max_bits = 100,001 is K = 3
    # chunks, the third one past max_bits. The 40 dB cell never reaches
    # min_errors and runs exactly K chunks; the 0 and 10 dB cells stop after
    # the first chunk at which their cumulative errors reach min_errors,
    # counted here from the chunks themselves. A stop one chunk early or late
    # on either rule moves a chunk count and the bits with it, on one thread
    # and with the lookahead of two.
    points = sweep_points(("alamouti_2x1",), ("QPSK",), (0.0, 10.0, 40.0), (0.0,), (0.0,),
                          seed=2005, min_errors=1_000, max_bits=100_001)
    # errors[k][i]: cell i's errors over chunks 0 to k.
    errors = np.cumsum([[e for e, _ in _simulate_chunk(points, k)] for k in range(3)], axis=0)
    used = [next((k + 1 for k in range(3) if errors[k][i] >= 1_000), 3) for i in range(3)]
    assert used == [1, 2, 3]
    monkeypatch.setattr(montecarlo, "_CPUS", 2)
    for i, est in enumerate(run_sweep(points, threads)):
        assert (est.streams_used, est.bits) == (used[i], used[i] * 40_000)
        assert est.errors == errors[used[i] - 1][i]


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
    # A cell's seed is its curve seed, the last item of its curve.
    cell = SimPoint("alamouti_2x1", QPSK, 0.0, 0.0, 0.0, seed=7)
    assert cell.curve[-1] == cell.seed == 7
    assert dataclasses.replace(cell, seed=8).curve[-1] == 8


def test_a_hand_built_cell_with_its_sweeps_curve_seed_gives_the_sweeps_estimate():
    # The cell at 6 dB and r = 5 dB of a sweep of two r and three SNRs, built
    # by hand with the sweep's curve seed for 2x1 QPSK at beta = 0: alone,
    # it is a curve of one cell on the same stream, so it gives the estimate
    # that the sweep gives it.
    points = sweep_points(
        schemes=("alamouti_2x1",),
        modulations=("QPSK",),
        gamma_db=(2.0, 6.0, 10.0),
        r_db=(0.0, 5.0),
        beta=(0.0,),
        seed=77,
        min_errors=120,
    )
    estimates = run_sweep(points, 1)
    point = SimPoint(
        "alamouti_2x1",
        QPSK,
        6.0,
        5.0,
        0.0,
        seed=derive_seed(77, "alamouti_2x1", "QPSK", True),
        min_errors=120,
    )
    assert {p.seed for p in points} == {point.seed} and point in points
    assert estimates[points.index(point)] == run_alone(point)
    ber_analytic = cell_ber(point.scheme, point.mod, point.r_db, point.beta, point.gamma_db)
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
        assert p.seed == derive_seed(1, p.scheme, p.mod.name, True)


def test_sweep_result_independent_of_grid_composition(monkeypatch):
    # A curve holds every r and beta (all 0, or all above) of its scheme and
    # modulation, so a cell shares its draws with cells of other r, beta and
    # SNR, and on two threads a free thread may run its chunks ahead; none
    # of it may change the cell's estimate.
    base = dict(schemes=("alamouti_2x1",), modulations=("BPSK",), seed=11, min_errors=60,
                max_bits=200_000)
    grid = sweep_points(gamma_db=(2.0, 5.0, 12.0), r_db=(0.0, 5.0, 10.0),
                        beta=(0.0, 0.01, 0.05), **base)
    assert len({p.curve for p in grid}) == 2
    monkeypatch.setattr(montecarlo, "_CPUS", 2)
    for workers in (1, 2):
        joined = dict(zip(((p.r_db, p.beta, p.gamma_db) for p in grid), run_sweep(grid, workers)))
        for r_db, beta in ((5.0, 0.0), (5.0, 0.01), (10.0, 0.05)):
            alone = run_sweep(sweep_points(gamma_db=(5.0,), r_db=(r_db,), beta=(beta,), **base),
                              workers)
            assert joined[r_db, beta, 5.0] == alone[0]


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
            run_alone(
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
        est = run_alone(
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
    # 11 cells of one curve, 95% intervals. The cells share their fades and
    # their noise, so their misses are correlated; over sweep seeds
    # 5000-5399 this bound held for 86.0% of seeds on the stream of one
    # curve per scheme, modulation and beta = 0 (84.75% with one curve per
    # r, the same 11 cells on other draws; 89.0% while each cell drew its
    # own noise, as it would for 11 independent cells:
    # P(Binomial(11, 0.948) >= 10) = 0.89). The mean hit count is 10.44
    # (10.43), and its standard deviation 0.92 (0.98; 0.73 with each cell's
    # own noise). The seed is fixed, so the test is deterministic; a new
    # stream may need a new seed, not a looser bound.
    assert hits >= 10


def test_ostbc4_point_runs_and_improves_on_alamouti():
    kwargs = dict(gamma_db=10.0, r_db=0.0, beta=0.0, seed=2010, min_errors=200)
    small = run_alone(SimPoint("ostbc_4x2", QPSK, **kwargs))
    big = run_alone(SimPoint("alamouti_2x1", QPSK, **kwargs))
    assert small.ber < big.ber / 5.0


def test_qam16_runs_through_the_pipeline():
    est = run_alone(
        SimPoint("alamouti_2x1", QAM16, 10.0, 0.0, 0.0, seed=2011, min_errors=200)
    )
    assert 0.0 < est.ber < 0.5
    assert est.ci_lo <= est.ber <= est.ci_hi
