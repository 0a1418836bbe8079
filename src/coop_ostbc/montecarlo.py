"""Seeded Monte Carlo BER estimation of what the detector sees.

A chunk simulates the detector's input, not the antennas: a fade stage
gives each block's gain-normalized noiseless signal and the root of its
gain G_est, and one noise stage adds the per-symbol noise that the
matched filter of an orthogonal design makes of white antenna noise
(white, circular, of variance G_est before the normalization). At beta =
0 the fade stage needs only the path powers; at beta > 0 it draws the
estimates and the estimation errors, carries the symbols over the errors
and combines them with the estimates. The chunk is the one place that
sums path powers into G_est and divides by it; :func:`ostbc.detect`
slices the normalized input it is given.

Work is split into fixed-size chunks of fading blocks, and the unit of
work is the curve: the cells of one scheme, modulation and stopping rule
that all have beta = 0, or all beta > 0, which share a curve seed. Chunk
``k`` of a curve draws everything once, from its one stream
``RngStream(curve seed, k)``: the data bits, then the raw fades, then the
raw noise. Each imbalance r of the cells still running is then a branch:
it weights the fades by its own per-antenna weights into its gain (and,
at beta > 0, its leak of the estimation errors), each beta of the branch
forms its signal from those, and each cell of that beta scales the noise
by its own SNR, detects and counts. So the cells of one curve see common
fades and common noise (common random numbers) across r, beta and the
SNR, and their estimates are correlated, while each cell's estimate
stays a pure function of the curve seed and its own fields. beta = 0 and
beta > 0 stay apart because they draw different fades: one Exp(1) power
per path against two CN(0, 1) draws. Every chunk of a curve holds the
same number of bits, so ``max_bits`` is a count K of chunks for the
whole curve. A cell stops after the first chunk at which its cumulative
error count reaches ``min_errors`` or its chunk count reaches K; a cell
runs its chunks in index order until it stops.

:func:`sweep_points` turns a grid into its deduplicated cells, a
:class:`SimPoint` tuple in report order, and that tuple is the only
description of a sweep from spec to CSV row. Each cell's seed is its
curve seed, derived from the sweep seed, the scheme, the modulation and
whether beta is 0, so a cell's estimate does not depend on which other
cells are present in the grid, and a sweep of one cell gives the
estimate that its curve gives it. A sweep runs on ``workers`` threads
(at most one per CPU) that take its curves one at a time, each curve a
task of its own. From chunk 1 on, a curve offers its next chunk to the
pool before it runs its current one, so a thread with no curve left runs
that chunk ahead (a lookahead), and the curve keeps its counts for the
cells still open; there is none past chunk K - 1 nor on one thread. The
estimates are therefore bit-identical for any worker count.

Each chunk draws and runs in one :class:`~coop_ostbc.numerics.Workspace`
(up to 6.3 MB for a 4x2 chunk at beta > 0, 2.5 MB at beta = 0) that it
borrows from one idle list and gives back when it ends, so a warm chunk
reuses the buffers of an earlier one instead of allocating them afresh.
The cells of a chunk run one after another in it. The list keeps at most
one workspace per CPU, for the chunks of every sweep in the process.
"""

from __future__ import annotations

import hashlib
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from itertools import product

import numpy as np

from . import ostbc
from .numerics import RngStream, Workspace, sample_circular_gaussian, wilson_interval

__all__ = [
    "SimPoint",
    "BerEstimate",
    "derive_seed",
    "sweep_points",
    "run_sweep",
]

DEFAULT_CHUNK_BLOCKS = 10_000
DEFAULT_MIN_ERRORS = 100
DEFAULT_MAX_BITS = 10**8


def _db_to_linear(db: float) -> float:
    try:
        return 10.0 ** (db / 10.0)
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class SimPoint:
    """One Monte Carlo cell: scheme, modulation, SNR, imbalance, beta, curve seed.

    ``gamma_db`` and ``r_db`` are in dB; the chain converts them to linear
    units, so each must have a finite, positive linear value.

    ``seed`` is the curve seed, the last item of :attr:`curve`: it keys
    the data bits, the fades and the noise that the cell shares with the
    other cells of its curve. It is not the CSV ``seed`` column, which the
    command line derives from the sweep seed and the cell's fields.
    """

    scheme: str
    mod: ostbc.Modulation
    gamma_db: float
    r_db: float
    beta: float
    seed: int
    min_errors: int = DEFAULT_MIN_ERRORS
    max_bits: int = DEFAULT_MAX_BITS

    def __post_init__(self):
        if self.scheme not in ostbc.CODES:
            raise ValueError(
                f"unknown scheme {self.scheme!r}; expected {tuple(ostbc.CODES)}"
            )
        if not isinstance(self.mod, ostbc.Modulation):
            raise ValueError(f"mod must be a Modulation, got {self.mod!r}")
        for name in ("gamma_db", "r_db"):
            db = getattr(self, name)
            if not 0.0 < _db_to_linear(db) < math.inf:
                raise ValueError(
                    f"{name} must be finite in dB and in linear units, got {db}"
                )
        if not (math.isfinite(self.beta) and self.beta >= 0.0):
            raise ValueError(f"beta must be finite and >= 0, got {self.beta}")
        if self.min_errors < 1:
            raise ValueError(f"min_errors must be >= 1, got {self.min_errors}")
        if self.max_bits < self.mod.bits_per_symbol:
            raise ValueError(
                f"max_bits must be at least one symbol ({self.mod.bits_per_symbol} "
                f"bits), got {self.max_bits}"
            )

    @property
    def bits_per_block(self) -> int:
        return ostbc.CODES[self.scheme].n_symbols * self.mod.bits_per_symbol

    @property
    def curve(self) -> tuple:
        """What the cells of one curve share: the scheme, the modulation,
        whether beta is 0, the stopping rule and the curve seed.

        The cells of a curve differ in gamma_db, r_db and beta (all 0 or
        all above), since one draw of bits, fades and noise serves them
        all. The last item, the curve seed ``seed``, keys those draws.
        """
        return (self.scheme, self.mod, self.beta == 0.0, self.min_errors, self.max_bits, self.seed)


@dataclass(frozen=True)
class BerEstimate:
    """Bit counts, point estimate, and block-clustered Wilson interval for one cell."""

    bits: int
    errors: int
    ber: float
    ci_lo: float
    ci_hi: float
    streams_used: int

    @classmethod
    def from_counts(cls, bits: int, errors: int, sq_errors: int, bits_per_block: int,
                    streams_used: int) -> "BerEstimate":
        """Estimate from the totals over ``bits // bits_per_block`` fading blocks.

        ``sq_errors`` is the sum of the squared per-block error counts. The
        bits of one block share one fade, so their errors are not
        independent: the 95% Wilson interval is taken at the Kish effective
        size ``bits / deff``, with the design effect ``deff`` the sample
        variance of the per-block error counts over its binomial value
        ``bits_per_block * ber * (1 - ber)``, and never below 1.
        """
        if errors > bits:
            raise ValueError(f"errors ({errors}) cannot exceed bits ({bits})")
        ber = errors / bits
        blocks = bits // bits_per_block
        deff = 1.0
        if blocks > 1 and 0 < errors < bits:
            between = (sq_errors - errors * errors / blocks) / (blocks - 1)
            deff = max(1.0, between / (bits_per_block * ber * (1.0 - ber)))
        lo, hi = wilson_interval(errors, bits, deff)
        return cls(bits, errors, ber, lo, hi, streams_used)


def _chunk_blocks(point: SimPoint) -> int:
    needed = -(-point.max_bits // point.bits_per_block)  # ceil division
    return min(DEFAULT_CHUNK_BLOCKS, needed)


# The workspaces that finished chunks left, for the chunks that start next; no
# more than one per CPU, so a wide sweep does not hold its memory for good. A
# sweep runs on no more threads either, so it makes no more workspaces.
_idle_workspaces: list = []
_CPUS = os.cpu_count() or 1
_idle_lock = threading.Lock()


def _simulate_chunk(cells: tuple, chunk_index: int) -> list[tuple[int, int]]:
    """Simulate chunk ``chunk_index`` of some cells of one curve; returns each
    cell's (bit_errors, sum of squared block errors), in ``cells`` order.
    Every chunk of a curve holds ``_chunk_blocks`` blocks of the curve's
    ``bits_per_block`` bits, so it returns no bit count.

    Draw order, all from the curve's one stream ``RngStream(curve seed,
    chunk_index)``: the data bits (eight per random byte); then, at beta =
    0, the path powers |h_ij|^2 ~ Exp(1) of shape (n_tx, n_rx, blocks), or,
    at beta > 0, the unit estimates u ~ CN(0, 1) and then the unit errors
    v ~ CN(0, 1), each of that shape; then the raw noise CN(0, 1) of shape
    (n_symbols, blocks), one per detected symbol. Each Gaussian array is
    one ziggurat draw, and so are the path powers. None of the draws
    depends on r, beta or the SNR.

    The cells are then grouped into branches, one per r_db, and each
    branch's cells by beta. A branch takes the weights w_i of
    :meth:`ostbc.SpaceTimeCode.weights` at its r and forms its gain
    G = sum_i w_i^2 sum_j P_ij from the raw path powers P (|h_ij|^2 at
    beta = 0, |u_ij|^2 at beta > 0). At beta = 0 the signal is the symbols
    and sqrt(G_est) is sqrt(G). At beta > 0 the channel is h = a (u +
    sqrt(beta) v) and the estimate est = sqrt(1+beta) u, with a =
    1/sqrt(1+beta): this is the joint law of h ~ CN(0, 1) and est = h + e,
    e ~ CN(0, beta), and the effective estimate w_i est has error variance
    w_i^2 beta. An orthogonal design gives combine(transmit(s, w u), w u)
    = G s, so the combiner output on w est over G_est is a (a s + b L / G)
    with b = sqrt(beta/(1+beta)) and the branch's leak L =
    combine(transmit(s, w v), w u): one transmit and one combine per r,
    and three passes over the symbols per beta. sqrt(G_est) is
    sqrt(1+beta) sqrt(G). The
    noise stage then adds n_k / (sqrt(P) sqrt(G_est)) to each
    gain-normalized symbol, for each cell of that beta.

    The data bits run block by block, symbol by symbol, MSB first, and are
    moved once into the (n_symbols, blocks) layout of every later array.
    One :func:`ostbc.detect` call per cell returns the decisions in that
    layout, so the errors are one comparison against the moved bits,
    written over the decisions, and a wrong bit's block is its index over
    the bits per symbol, modulo the blocks.

    Every array from the symbols to the decisions is a view on a workspace
    borrowed from the idle list and given back when the chunk ends, so the
    next chunk overwrites it. The bits, the symbols, the fades, their path
    powers and the raw noise that the branches share are only read once
    drawn; a branch's gain, leak and received samples are its own, and
    each beta's signal, sqrt(G_est) and cell planes go in the bytes of the
    received samples, which the branch is done with after combining.
    """
    with _idle_lock:
        work = _idle_workspaces.pop() if _idle_workspaces else Workspace()
    try:
        return _simulate_chunk_in(work, cells, chunk_index)
    finally:
        with _idle_lock:
            _idle_workspaces.append(work)
            del _idle_workspaces[_CPUS:]


def _simulate_chunk_in(work: Workspace, cells: tuple, chunk_index: int):
    first = cells[0]  # its scheme, modulation and stopping rule are the curve's
    *_, curve_seed = first.curve
    code = ostbc.CODES[first.scheme]
    rng = RngStream(curve_seed, chunk_index)
    n = _chunk_blocks(first)
    bps = first.mod.bits_per_symbol
    # Drawn block-major, as the stream (and so every CSV byte) has them, the
    # bits move once into the (n_symbols, n) layout, a symbol's bits as one item.
    tx_bits = work.array("bits", (first.bits_per_block * n,), np.uint8)
    np.copyto(tx_bits.view(f"V{bps}").reshape(code.n_symbols, n),
              rng.bits(tx_bits.size).view(f"V{bps}").reshape(n, code.n_symbols).T)
    syms = ostbc.modulate(tx_bits, first.mod, work).reshape(code.n_symbols, n)
    fades = _draw_fades(work, rng, code, first.beta == 0.0, n)
    noise = rng.normal_pairs(syms.shape, out=work.array("noise", (2,) + syms.shape, float))
    noise = noise[:first.mod.axes]  # the rows of the axes that detect reads
    branches: dict = {}
    for position, cell in enumerate(cells):
        branches.setdefault(cell.r_db, {}).setdefault(cell.beta, []).append(position)
    counts = [None] * len(cells)
    for r_db, betas in branches.items():
        inputs = _branch(work, code, syms, fades, code.weights(_db_to_linear(r_db)), betas)
        for positions, (signal, planes, root) in zip(betas.values(), inputs):
            for position in positions:
                power = _db_to_linear(cells[position].gamma_db)
                zr, zi = _noise_stage(work, planes, noise, signal, root, power)
                rx_bits = ostbc.detect(zr, zi, first.mod, work)
                wrong = np.flatnonzero(np.not_equal(rx_bits, tx_bits, out=rx_bits.view(bool)))
                np.floor_divide(wrong, bps, out=wrong)
                per_block = np.bincount(np.remainder(wrong, n, out=wrong))
                counts[position] = (wrong.size, int(np.dot(per_block, per_block)))
    return counts


def _draw_fades(work: Workspace, rng: RngStream, code: ostbc.SpaceTimeCode, beta_zero: bool,
                n: int):
    """The raw fades of a chunk, drawn once for all of its branches: (P, u, v).

    ``P`` is the (n_tx, n) per-antenna sum over the rx antennas of the raw
    path powers. At beta = 0 those are |h_ij|^2 ~ Exp(1), drawn into the
    bytes of ``"h"`` and summed in place, and u and v are None. At beta > 0
    they are |u_ij|^2 of the unit estimates u ~ CN(0, 1), drawn into
    ``"est"``, and the unit errors v ~ CN(0, 1) follow in ``"h"``, each of
    shape (n_tx, n_rx, n). No weight and no beta enters here.
    """
    shape = (code.n_tx, code.n_rx, n)
    if beta_zero:
        paths = rng.exponentials(shape, out=work.array("h", shape, float))
        for j in range(1, code.n_rx):
            np.add(paths[:, 0], paths[:, j], out=paths[:, 0])
        return paths[:, 0], None, None
    u = sample_circular_gaussian(rng, 1.0, shape, work.array("est", shape))
    v = sample_circular_gaussian(rng, 1.0, shape, work.array("h", shape))
    powers = work.array("powers", (code.n_tx, n), float)
    (squares,) = work.scratch(((2, code.n_rx, n), float))
    for paths, power in zip(u, powers):
        np.square(paths.real, out=squares[0])
        np.square(paths.imag, out=squares[1])
        np.sum(squares.reshape(-1, n), axis=0, out=power)
    return powers, u, v


def _branch(work: Workspace, code: ostbc.SpaceTimeCode, syms, fades, w, betas):
    """Yield (signal, planes, sqrt(G_est)) for each beta of ``betas``, in
    order, at the per-antenna weights ``w`` of one r.

    The branch's gain G = sum_i w_i^2 P_i goes into ``"gain"``, where its
    root is taken in place. At beta = 0 the signal is ``syms`` and
    sqrt(G_est) that root. At beta > 0 the leak L of the unit errors v,
    combined with the unit estimates u at the same weights, is divided by G
    in place in ``"combined"``, two real divides for its real and imaginary
    parts; each beta's signal a (a s + b L / G), with a = 1/sqrt(1+beta)
    and b = sqrt(beta/(1+beta)), is formed by three passes as a b (s a/b +
    L / G), and sqrt(G_est) as sqrt(1+beta) sqrt(G). Neither overflows at
    any finite beta, where G_est itself can. ``planes``, for the noise
    stage, and each beta's signal and root lie in the bytes of
    ``"received"``, valid until the next beta; at beta = 0 ``planes`` alone
    does.
    """
    powers, u, v = fades
    gain = work.array("gain", syms.shape[1:], float)
    (term,) = work.scratch((gain.shape, float))
    np.multiply(powers[0], w[0] * w[0], out=gain)
    for power, weight in zip(powers[1:], w[1:]):
        np.add(gain, np.multiply(power, weight * weight, out=term), out=gain)
    if u is None:
        (planes,) = work.arrays("received", ((2,) + syms.shape, float))
        yield syms, planes, np.sqrt(gain, out=gain)
        return
    leak = ostbc.combine(code, ostbc.transmit(code, syms, v, w, work), u, w, work)
    np.divide(leak.real, gain, out=leak.real)
    np.divide(leak.imag, gain, out=leak.imag)
    np.sqrt(gain, out=gain)
    for beta in betas:
        signal, planes, root = work.arrays(
            "received", (syms.shape, complex), ((2,) + syms.shape, float), (gain.shape, float))
        a, b = 1.0 / math.sqrt(1.0 + beta), math.sqrt(beta / (1.0 + beta))
        np.multiply(syms, a / b, out=signal)
        np.add(signal, leak, out=signal)
        np.multiply(signal, a * b, out=signal)
        yield signal, planes, np.multiply(gain, math.sqrt(1.0 + beta), out=root)


def _noise_stage(work: Workspace, planes, noise, signal, root, power: float):
    """The planes x, y of z_k = signal_k + n_k / (sqrt(P) sqrt(G_est)), n_k ~ CN(0, 1).

    The matched filter of an orthogonal design turns white CN(0, 1) antenna
    noise into white, circular noise of variance G_est on each symbol, and
    the gain normalization divides it by sqrt(P) G_est. One (n_symbols,
    n) draw therefore stands for all of the antenna noise of the
    (n_symbols, n) ``signal``. ``noise`` is the rows of normals of that
    draw that :func:`ostbc.detect` reads, the real one for BPSK and both
    otherwise, which the chunk makes once for all of its cells. The stage
    scales each row by 1 / (sqrt(2) sqrt(P) ``root``) per block, ``root``
    being the branch's sqrt(G_est), into its plane of the (2, n_symbols,
    n) float ``planes``, and adds the real or the imaginary part of the
    signal in place: the planes are the detector input, which the detector
    may overwrite. An unread plane is left as it is. ``noise``, ``signal``
    and ``root`` are only read, so every cell of a branch sees the same
    fade and the same raw noise.

    It scales the pair itself rather than through
    :func:`~coop_ostbc.numerics.sample_circular_gaussian`, which takes a
    variance, for two reasons. The per-block variance 1 / (P G_est) need
    not be a float where its square root is (P of 1e-320 is a valid SNR),
    so the square roots are taken apart and no P G_est product can
    overflow. And the scalar variance 1 / P with a further per-block divide
    is one more pass over the input: on a 2-core Xeon a 10k-block 4x2 stage
    took 0.123-0.124 ms here against 0.147-0.150 ms that way (medians of
    200, five rounds).
    """
    (scale,) = work.scratch((root.shape, float))
    np.divide(1.0 / (math.sqrt(2.0) * math.sqrt(power)), root, out=scale)
    for plane, raw, part in zip(planes, noise, (signal.real, signal.imag)):
        np.add(np.multiply(raw, scale, out=plane), part, out=plane)
    return planes


def _run_curve(points, stop: threading.Event, pool, cells: list) -> dict:
    """Run chunks 0, 1, ... of the cells of one curve; return each cell's totals.

    The cells share their stopping rule and their chunk size, so the curve
    reaches ``max_bits`` after the same chunk count K for every cell,
    counted once from the first cell. One :func:`_simulate_chunk` call per
    chunk runs the cells whose stopping rule did not hold after the chunk
    before: a cell stops after the first chunk at which its error count
    reaches ``min_errors`` or after chunk K - 1. The totals map each cell's
    index to its (errors, squared block errors, chunks); its bits are its
    chunks times the bits of one chunk. ``stop`` is checked before every
    chunk and set when a chunk raises, so a failing sweep stops its other
    curves at their next chunk.

    With a ``pool`` (a sweep on more than one thread), the curve offers
    chunk k+1 of its open cells to the pool before it runs chunk k of them
    itself. The pool's queue is first in, first out and holds every curve
    before any lookahead, so only a thread with no curve left takes it. If
    none has after chunk k, the lookahead is cancelled and the curve runs
    chunk k+1 as it would alone; if one has, the curve keeps the counts of
    the cells still open after chunk k, a subset of those the lookahead
    ran, and goes on to chunk k+2. A cell's counts in a chunk depend only
    on its curve seed, the chunk index and its own fields, so the totals
    are those of a curve run without a pool. There is no lookahead during
    chunk 0, after which most cells of a wide sweep stop, nor of chunk K
    or later. A curve whose cells have all stopped returns without
    waiting for its lookahead, whose result (or error) is dropped, and
    every exit cancels a lookahead that no thread has taken.
    """
    max_chunks = _chunks_to_max_bits(points[cells[0]])
    totals = dict.fromkeys(cells, (0, 0, 0))
    chunk_index, ahead = 0, None
    try:
        while cells and not stop.is_set():
            if ahead is not None and not ahead.cancel():
                taken = dict(zip(ran_ahead, ahead.result()))
                counts, ahead = [taken[i] for i in cells], None
            else:
                run = tuple(points[i] for i in cells)
                ahead = None
                if pool is not None and 0 < chunk_index < max_chunks - 1:
                    ahead, ran_ahead = pool.submit(_simulate_chunk, run, chunk_index + 1), cells
                counts = _simulate_chunk(run, chunk_index)
            chunk_index += 1
            for i, (errors, sq_errors) in zip(cells, counts):
                e, e2, _ = totals[i]
                totals[i] = (e + errors, e2 + sq_errors, chunk_index)
            cells = [i for i in cells
                     if totals[i][0] < points[i].min_errors and chunk_index < max_chunks]
    except BaseException:
        stop.set()
        raise
    finally:
        if ahead is not None:
            ahead.cancel()
    return totals


def _chunks_to_max_bits(point: SimPoint) -> int:
    """The chunks after which the cells of ``point``'s curve reach ``max_bits``."""
    return -(-point.max_bits // (_chunk_blocks(point) * point.bits_per_block))


def derive_seed(master_seed: int, *fields) -> int:
    """Stable 64-bit seed mixed from the sweep seed and ``fields``.

    :func:`sweep_points` mixes a curve seed from the scheme, the
    modulation name and whether beta is 0; the command line labels each
    CSV row with one mixed from the scheme, the modulation name, r_db,
    beta and gamma_db.
    """
    text = "|".join([str(int(master_seed))] + [repr(f) for f in fields])
    digest = hashlib.blake2b(text.encode("ascii"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def sweep_points(schemes, modulations, gamma_db, r_db, beta, seed: int,
                 min_errors: int = DEFAULT_MIN_ERRORS,
                 max_bits: int = DEFAULT_MAX_BITS) -> tuple[SimPoint, ...]:
    """The deduplicated cells of a grid, each with its curve seed and stopping rule.

    The cells are sorted by (scheme, modulation, r_db, beta, gamma_db).
    Each cell's seed is its curve seed, derived from ``seed``, the scheme,
    the modulation and whether beta is 0, so the cells of one curve share
    their bits, fades and noise across r_db, beta and gamma_db. Only empty
    axes are refused here; every cell check is :class:`SimPoint`'s.
    """
    axes = {"schemes": schemes, "modulations": modulations, "gamma_db": gamma_db,
            "r_db": r_db, "beta": beta}
    for name, values in axes.items():
        if not values:
            raise ValueError(f"{name} must be non-empty")
    # Adding 0.0 turns -0.0 into 0.0: the two are one key here, so they must
    # also be one seed and one CSV value, whichever the grid lists first.
    cells = dict.fromkeys(  # deduplicated, in grid order
        product(
            schemes,
            (ostbc.modulation_by_name(m) for m in modulations),
            (float(r) + 0.0 for r in r_db),
            (float(b) + 0.0 for b in beta),
            (float(g) + 0.0 for g in gamma_db),
        )
    )
    points = [
        SimPoint(
            scheme=scheme,
            mod=mod,
            gamma_db=g,
            r_db=r,
            beta=b,
            seed=derive_seed(seed, scheme, mod.name, b == 0.0),
            min_errors=min_errors,
            max_bits=max_bits,
        )
        for scheme, mod, r, b, g in cells
    ]
    # Sorted only after every cell has passed its checks, so a bad value is
    # reported by SimPoint, not by a failed comparison during the sort.
    points.sort(key=lambda p: (p.scheme, p.mod.name, p.r_db, p.beta, p.gamma_db))
    return tuple(points)


def run_sweep(points, workers: int) -> list[BerEstimate]:
    """Estimate every cell of ``points`` on ``workers`` threads (at most one per CPU).

    The cells are grouped by :attr:`SimPoint.curve`, and the threads run
    the curves in order, one task each; a curve draws its bits, fades and
    noise once per chunk for all of its cells, whatever their r_db, beta
    and gamma_db. On more than one thread the curves get the pool, to which
    each offers a one-chunk lookahead from its chunk 1 on (see
    :func:`_run_curve`); the pool queue holds every curve first, so only a
    thread that has no curve left runs one, and no more chunks run at once
    than there are threads. A cell's counts are those of its chunks 0, 1,
    ..., whichever cells ran beside it and whichever thread ran them, so
    every estimate is the one that a sweep of its cell alone gives. A
    cell's bits are its chunks times the bits of one chunk. The estimates
    come back in ``points`` order whatever order the cells finish in. Each
    chunk borrows its workspace from the idle list that every sweep
    shares, and gives it back when it ends: reusing the buffers spares
    allocating them again on a heap that the freed ones would have left
    full of holes.
    """
    threads = min(workers, _CPUS)
    curves: dict = {}
    for i, point in enumerate(points):
        curves.setdefault(point.curve, []).append(i)
    totals: dict = {}
    with ThreadPoolExecutor(max_workers=threads) as pool:
        run = partial(_run_curve, points, threading.Event(), pool if threads > 1 else None)
        for done in pool.map(run, curves.values()):
            totals.update(done)
    return [BerEstimate.from_counts(used * _chunk_blocks(point) * point.bits_per_block, errors,
                                    sq_errors, point.bits_per_block, used)
            for point, (errors, sq_errors, used)
            in zip(points, (totals[i] for i in range(len(points))))]
