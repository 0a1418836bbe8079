"""Seeded Monte Carlo BER estimation of what the detector sees.

A chunk simulates the detector's input, not the antennas: a fade stage
gives each block's gain-normalized noiseless signal and its gain G_est,
and one noise stage adds the per-symbol noise that the matched filter of
an orthogonal design makes of white antenna noise (white, circular, of
variance G_est before the normalization). At beta = 0 the fade stage
needs only the path powers; at beta > 0 it carries the symbols over the
drawn channels and combines them with the estimates. The chunk is the one
place that sums path powers into G_est and divides by it;
:func:`ostbc.detect` slices the normalized input it is given.

Work is split into fixed-size chunks of fading blocks. Chunk ``k`` of a
point draws everything it needs from ``RngStream(point.seed, k)``, the
k-th child stream of the point's seed, so the random plan is a pure
function of the point. A point runs its chunks serially in index order
and stops after the first chunk at which the cumulative error count
reaches ``min_errors`` or the cumulative bit count reaches ``max_bits``.

:func:`sweep_points` turns a grid into its deduplicated cells, a
:class:`SimPoint` tuple in report order, and that tuple is the only
description of a sweep from spec to CSV row. Each cell's seed
is derived from the sweep seed and the cell parameters, so a cell's
estimate does not depend on which other cells are present in the grid.
A sweep runs its cells ``workers`` (at most one per CPU) at a time on
one thread pool; each cell is a pure function of its seed, so the
estimates are bit-identical for any worker count. A one-cell sweep uses
one thread.

Each chunk draws and runs in one :class:`~coop_ostbc.numerics.Workspace`
(up to 6.3 MB for a 4x2 chunk at beta > 0, 1.8 MB at beta = 0) that it
borrows from one idle list and gives back when it ends, so a warm chunk
reuses the buffers of an earlier one instead of allocating them afresh.
The list keeps at most one workspace per CPU, for the chunks of every
sweep and of direct :func:`run_point` calls alike.
"""

from __future__ import annotations

import hashlib
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import product

import numpy as np

from . import analytic, ostbc
from .numerics import RngStream, Workspace, sample_circular_gaussian, wilson_interval

__all__ = [
    "SimPoint",
    "BerEstimate",
    "run_point",
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
    """One Monte Carlo cell: scheme, modulation, SNR, imbalance, beta, seed.

    ``gamma_db`` and ``r_db`` are in dB; the chain converts them to linear
    units, so each must have a finite, positive linear value.
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
# sweep runs no more cells at a time either, so it makes no more workspaces.
_idle_workspaces: list = []
_CPUS = os.cpu_count() or 1
_idle_lock = threading.Lock()


def _simulate_chunk(point: SimPoint, chunk_index: int) -> tuple[int, int, int]:
    """Simulate one chunk; returns (bits, bit_errors, sum of squared block errors).

    Draw order: the data bits (eight per random byte); then, at beta = 0,
    the path powers |h_ij|^2 ~ Exp(1) of shape (n_tx, n_rx, blocks), or, at
    beta > 0, the channels CN(0, 1) and then the estimation errors CN(0,
    beta), each of that shape; then the noise CN(0, 1) of shape (n_symbols,
    blocks), one per detected symbol. Each Gaussian array is one ziggurat
    draw, and so are the path powers.

    The fade stage works on effective channels: the weights of
    :meth:`ostbc.SpaceTimeCode.weights` scale the path powers by w_i^2, or
    the drawn channels h and estimates h + e by w_i, once. beta is the
    error variance of a unit-power link, and the effective estimate's error
    variance is w_i^2 beta. The noise stage then adds n_k / (sqrt(P)
    sqrt(G_est)) to each gain-normalized symbol. At beta >= 2 the estimates
    are scaled by 2^-k, 2^k about sqrt(beta), so no |est_ij|^2 overflows;
    the detector input, scaled back by 2^-k, keeps its bytes.

    The data bits run block by block, symbol by symbol, MSB first. One
    :func:`ostbc.detect` call on the detector input laid out as (blocks,
    n_symbols) returns the decisions in that same order, so the errors are
    one comparison against the transmitted bits, and the block of a wrong
    bit is its index over the bits per block.

    Every array from the symbols to the decisions is a view on a workspace
    borrowed from the idle list and given back when the chunk ends, so the
    next chunk overwrites it. The path powers and the per-symbol noise
    reuse the bytes of the channels.
    """
    with _idle_lock:
        work = _idle_workspaces.pop() if _idle_workspaces else Workspace()
    try:
        return _simulate_chunk_in(work, point, chunk_index)
    finally:
        with _idle_lock:
            _idle_workspaces.append(work)
            del _idle_workspaces[_CPUS:]


def _simulate_chunk_in(work: Workspace, point: SimPoint, chunk_index: int):
    code = ostbc.CODES[point.scheme]
    rng = RngStream(point.seed, chunk_index)
    n = _chunk_blocks(point)
    tx_bits = rng.bits(code.n_symbols * point.mod.bits_per_symbol * n)
    syms = ostbc.modulate(tx_bits, point.mod, work).reshape(n, code.n_symbols).T
    w = code.weights(_db_to_linear(point.r_db))[:, None, None]
    # The estimates are carried at 2^-k of their size, 2^k about sqrt(beta),
    # and z comes out exactly 2^k times too large.
    k = max(0, math.frexp(point.beta)[1] // 2)
    signal, gain = _fade_stage(work, rng, code, w, point.beta, k, syms)
    z = _noise_stage(work, rng, signal, gain, _db_to_linear(point.gamma_db))
    if k:  # a pass over z that most chunks need not pay for
        np.ldexp(z.view(float), -k, out=z.view(float))
    rx_bits = ostbc.detect(z.T, point.mod, work)
    wrong = np.flatnonzero(rx_bits != tx_bits)
    per_block = np.bincount(np.floor_divide(wrong, point.bits_per_block, out=wrong))
    return tx_bits.size, wrong.size, int(np.dot(per_block, per_block))


def _fade_stage(work: Workspace, rng: RngStream, code: ostbc.SpaceTimeCode, w, beta: float,
                k: int, syms):
    """The gain-normalized noiseless detector input and the gain G_est of each block.

    Each branch writes the (n_tx, n_rx, n) path powers into the bytes of
    ``"h"``, and one sum over the paths gives G_est. At beta = 0 they are
    w_i^2 |h_ij|^2 with |h_ij|^2 ~ Exp(1), and the signal is the symbols
    themselves, as the matched filter returns G s_k exactly. At beta > 0 the
    effective channels w h and estimates 2^-k w (h + e) carry the symbols
    through :func:`ostbc.transmit` and :func:`ostbc.combine`, the path
    powers are |est_ij|^2, and the combiner output over G_est is exactly
    2^k times its value at k = 0.
    """
    n = syms.shape[1]
    shape = (code.n_tx, code.n_rx, n)
    if beta == 0.0:
        signal = syms
        powers = rng.exponentials(shape, out=work.array("h", shape, float))
        np.multiply(np.square(w), powers, out=powers)
    else:
        h = sample_circular_gaussian(rng, 1.0, shape, work.array("h", shape), work)
        est = sample_circular_gaussian(rng, beta, shape, work.array("est", shape), work)
        np.add(h, est, out=est)  # h + e
        np.multiply(np.ldexp(w, -k), est, out=est)
        np.multiply(w, h, out=h)
        signal = ostbc.combine(code, ostbc.transmit(code, syms, h, work), est, work)
        squares = work.array("h", (2,) + shape, float)
        np.square(est.real, out=squares[0])
        np.square(est.imag, out=squares[1])
        powers = np.add(squares[0], squares[1], out=squares[0])
    gain = np.sum(powers.reshape(-1, n), axis=0, out=work.array("gain", (n,), float))
    if beta > 0.0:
        parts = signal.view(float).reshape(signal.shape + (2,))
        np.divide(parts, gain[:, None], out=parts)
    return signal, gain


def _noise_stage(work: Workspace, rng: RngStream, signal, gain, power: float):
    """The detector input z_k = signal_k + n_k / (sqrt(P) sqrt(G)), n_k ~ CN(0, 1).

    The matched filter of an orthogonal design turns white CN(0, 1)
    antenna noise into white, circular noise of variance G_est on each
    symbol, and the gain normalization divides it by sqrt(P) G_est. One
    (n_symbols, n) draw therefore stands for all of the antenna noise. The
    two square roots are taken apart, so no P G product can overflow.
    The fade stage is done with ``"h"``, so the noise takes its bytes;
    ``gain`` is overwritten.
    """
    noise = sample_circular_gaussian(rng, 1.0, signal.shape, work.array("h", signal.shape), work)
    scale = np.sqrt(gain, out=gain)
    scale *= math.sqrt(power)
    parts = noise.view(float).reshape(noise.shape + (2,))
    np.divide(parts, scale[:, None], out=parts)
    return np.add(noise, signal, out=noise)


def run_point(point: SimPoint) -> BerEstimate:
    """Estimate the BER of one point with the adaptive stopping rule."""
    bits = errors = sq_errors = streams = 0
    while errors < point.min_errors and bits < point.max_bits:
        b, e, e2 = _simulate_chunk(point, streams)
        bits += b
        errors += e
        sq_errors += e2
        streams += 1
    return BerEstimate.from_counts(bits, errors, sq_errors, point.bits_per_block, streams)


def derive_seed(master_seed: int, *fields) -> int:
    """Stable 64-bit seed for one grid cell, mixed from the sweep seed."""
    text = "|".join([str(int(master_seed))] + [repr(f) for f in fields])
    digest = hashlib.blake2b(text.encode("ascii"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def sweep_points(schemes, modulations, gamma_db, r_db, beta, seed: int,
                 min_errors: int = DEFAULT_MIN_ERRORS,
                 max_bits: int = DEFAULT_MAX_BITS) -> tuple[SimPoint, ...]:
    """The deduplicated cells of a grid, each with its seed and stopping rule.

    The cells are sorted by (scheme, modulation, r_db, beta, gamma_db),
    and each seed is derived from ``seed`` and those five fields. Only
    empty axes are refused here; every cell check is :class:`SimPoint`'s.
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
            seed=derive_seed(seed, scheme, mod.name, r, b, g),
            min_errors=min_errors,
            max_bits=max_bits,
        )
        for scheme, mod, r, b, g in cells
    ]
    # Sorted only after every cell has passed its checks, so a bad value is
    # reported by SimPoint, not by a failed comparison during the sort.
    points.sort(key=lambda p: (p.scheme, p.mod.name, p.r_db, p.beta, p.gamma_db))
    return tuple(points)


def analytic_ber(scheme: str, mod: ostbc.Modulation, r_db: float, beta: float,
                 gamma_db: float) -> float | None:
    """Closed-form BER of a cell, or None where the closed form does not cover it.

    It is derived for one transmit antenna at each node and one receive
    antenna, a modulation with an ``a_constant`` (BPSK, QPSK) and perfect
    channel estimates.
    """
    code = ostbc.CODES[scheme]
    if (code.nodes != ("BS", "RS") or code.n_rx != 1 or mod.a_constant is None
            or beta != 0.0):
        return None
    point = analytic.AnalyticPoint(
        a_sq=mod.a_constant**2,
        r=_db_to_linear(r_db),
        gamma=_db_to_linear(gamma_db),
    )
    return analytic.ber_closed_form(point)


def run_sweep(points, workers: int) -> list[BerEstimate]:
    """Estimate every cell of ``points``, ``workers`` (at most one per CPU) at a time.

    The estimates come back in ``points`` order whatever order the cells
    finish in. Each chunk borrows its workspace from the idle list that
    every sweep shares, and gives it back when it ends: reusing the
    buffers spares allocating them again on a heap that the freed ones
    would have left full of holes.
    """
    with ThreadPoolExecutor(max_workers=min(workers, _CPUS)) as pool:
        return list(pool.map(run_point, points))
