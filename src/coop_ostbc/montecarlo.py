"""Seeded Monte Carlo BER estimation over the full transmit/receive chain.

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
(up to 6.3 MB, for the largest chunk it has run) that it borrows from
one idle list and gives back when it ends, so a warm chunk reuses the
buffers of an earlier one instead of allocating them afresh. The list
keeps at most one workspace per CPU, for the chunks of every sweep and
of direct :func:`run_point` calls alike.
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

    Draw order is the same for every code: data bits (eight per random
    byte), then the channels (n_tx, n_rx, blocks), then the estimation
    errors of the same shape (skipped entirely when beta == 0, where the
    estimates equal the true channels), then the noise (n_rx, n_slots,
    blocks); each Gaussian array is one ziggurat draw.

    The chain runs on effective channels: the drawn channels h and, when
    beta > 0, the estimates h + e are multiplied in place by the weights of
    :meth:`ostbc.SpaceTimeCode.weights`, once, so the layers see w_i h_ij and
    w_i (h_ij + e_ij). beta is the error variance of a unit-power link, and
    the effective estimate's error variance is w_i^2 beta.

    The data bits run block by block, symbol by symbol, MSB first. One
    :func:`ostbc.detect` call on the combiner output laid out as (blocks,
    n_symbols) returns the decisions in that same order, so the errors are
    one comparison against the transmitted bits, and the block of a wrong
    bit is its index over the bits per block.

    Every array from the symbols to the decisions is a view on a workspace
    borrowed from the idle list and given back when the chunk ends, so the
    next chunk overwrites it. No codeword is built, the received samples
    are added onto the noise, and the gain is scaled in place.
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
    power = _db_to_linear(point.gamma_db)
    w = code.weights(_db_to_linear(point.r_db))[:, None, None]
    bps = point.mod.bits_per_symbol
    h_shape = (code.n_tx, code.n_rx, n)
    noise_shape = (code.n_rx, code.n_slots, n)

    tx_bits = rng.bits(code.n_symbols * bps * n)
    syms = ostbc.modulate(tx_bits, point.mod, work)
    h = sample_circular_gaussian(rng, 1.0, h_shape, work.array("h", h_shape), work)
    if point.beta == 0.0:
        est = h
    else:
        est = sample_circular_gaussian(rng, point.beta, h_shape, work.array("est", h_shape), work)
        np.add(h, est, out=est)  # h + e
        np.multiply(w, est, out=est)
    np.multiply(w, h, out=h)
    noise = sample_circular_gaussian(rng, 1.0, noise_shape, work.array("noise", noise_shape), work)
    y = ostbc.transmit(code, syms.reshape(n, code.n_symbols).T, h, power, noise, work)
    s_tilde = ostbc.combine(code, y, est, work)
    gain = ostbc.effective_gain(code, est, work)
    gain *= math.sqrt(power)
    rx_bits = ostbc.detect(s_tilde.T, gain[:, None], point.mod, work)
    wrong = np.flatnonzero(rx_bits != tx_bits)
    per_block = np.bincount(np.floor_divide(wrong, point.bits_per_block, out=wrong))
    return tx_bits.size, wrong.size, int(np.dot(per_block, per_block))


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
