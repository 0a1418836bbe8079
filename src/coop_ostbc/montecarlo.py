"""Seeded Monte Carlo BER estimation over the full transmit/receive chain.

Work is split into fixed-size chunks of fading blocks. Chunk ``k`` of a
point draws everything it needs from ``RngStream(point.seed, k)``, so the
random plan is a pure function of the point. A point runs its chunks
serially in index order and stops after the first chunk at which the
cumulative error count reaches ``min_errors`` or the cumulative bit count
reaches ``max_bits``.

Sweeps derive one seed per grid cell from the sweep seed and the cell
parameters, so a cell's estimate does not depend on which other cells
are present in the grid. A sweep runs its cells ``workers`` at a time on
one thread pool; each cell is a pure function of its seed, so the results
are bit-identical for any worker count. A one-cell sweep uses one thread.
"""

from __future__ import annotations

import hashlib
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import product

import numpy as np

from . import analytic, ostbc
from .numerics import RngStream, sample_circular_gaussian, wilson_interval

__all__ = [
    "SCHEMES",
    "SimPoint",
    "BerEstimate",
    "run_point",
    "derive_seed",
    "has_closed_form",
    "SweepSpec",
    "SweepRow",
    "SweepResult",
    "run_sweep",
]

SCHEMES = tuple(ostbc.CODES)

DEFAULT_CHUNK_BLOCKS = 10_000
DEFAULT_MIN_ERRORS = 100
DEFAULT_MAX_BITS = 10**8
CONFIDENCE = 0.95


@dataclass(frozen=True)
class SimPoint:
    """One Monte Carlo cell: scheme, modulation, SNR, imbalance, beta, seed."""

    scheme: str
    mod: ostbc.Modulation
    gamma_db: float
    r_db: float
    beta: float
    seed: int
    min_errors: int = DEFAULT_MIN_ERRORS
    max_bits: int = DEFAULT_MAX_BITS

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}; expected {SCHEMES}")
        if not isinstance(self.mod, ostbc.Modulation):
            raise ValueError(f"mod must be a Modulation, got {self.mod!r}")
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
    """Bit counts, point estimate, and Wilson interval for one cell."""

    bits: int
    errors: int
    ber: float
    ci_lo: float
    ci_hi: float
    seed: int
    streams_used: int

    @classmethod
    def from_counts(
        cls, bits: int, errors: int, seed: int, streams_used: int
    ) -> "BerEstimate":
        if errors > bits:
            raise ValueError(f"errors ({errors}) cannot exceed bits ({bits})")
        if bits == 0:
            return cls(0, 0, 0.0, 0.0, 1.0, seed, streams_used)
        lo, hi = wilson_interval(errors, bits, CONFIDENCE)
        return cls(bits, errors, errors / bits, lo, hi, seed, streams_used)


def _chunk_blocks(point: SimPoint) -> int:
    needed = -(-point.max_bits // point.bits_per_block)  # ceil division
    return min(DEFAULT_CHUNK_BLOCKS, needed)


def _simulate_chunk(point: SimPoint, chunk_index: int) -> tuple[int, int]:
    """Simulate one chunk; returns (bits, bit_errors).

    Draw order is the same for every code: data bits, then the channels
    (n_tx, n_rx, blocks), then the estimation errors of the same shape
    (skipped entirely when beta == 0, where the estimates equal the true
    channels), then the noise (n_rx, n_slots, blocks).

    The data bits run block by block, symbol by symbol, MSB first. One
    :func:`ostbc.detect` call on the combiner output laid out as (blocks,
    n_symbols) returns the decisions in that same order, so the errors are
    one comparison against the transmitted bits.
    """
    code = ostbc.CODES[point.scheme]
    rng = RngStream(point.seed, chunk_index)
    n = _chunk_blocks(point)
    power = 10.0 ** (point.gamma_db / 10.0)
    imb = ostbc.ImbalanceRatio.from_db(point.r_db)
    bps = point.mod.bits_per_symbol

    tx_bits = rng.bits(code.n_symbols * bps * n)
    syms = ostbc.modulate(tx_bits, point.mod).reshape(n, code.n_symbols).T
    x = ostbc.encode(code, syms)
    h = sample_circular_gaussian(rng, 1.0, size=(code.n_tx, code.n_rx, n))
    if point.beta == 0.0:
        est = h
    else:
        est = h + sample_circular_gaussian(rng, point.beta, size=h.shape)
    noise = sample_circular_gaussian(rng, 1.0, size=(code.n_rx, code.n_slots, n))
    y = ostbc.transmit(code, x, h, power, imb, noise)
    s_tilde = ostbc.combine(code, y, est, imb)
    gain = math.sqrt(power) * ostbc.effective_gain(code, est, imb)
    rx_bits = ostbc.detect(s_tilde.T, gain[:, None], point.mod)
    return tx_bits.size, int(np.count_nonzero(rx_bits != tx_bits))


def run_point(point: SimPoint) -> BerEstimate:
    """Estimate the BER of one point with the adaptive stopping rule."""
    bits = errors = streams = 0
    while errors < point.min_errors and bits < point.max_bits:
        b, e = _simulate_chunk(point, streams)
        bits += b
        errors += e
        streams += 1
    return BerEstimate.from_counts(bits, errors, point.seed, streams)


def derive_seed(master_seed: int, *fields) -> int:
    """Stable 64-bit seed for one grid cell, mixed from the sweep seed."""
    text = "|".join([str(int(master_seed))] + [repr(f) for f in fields])
    digest = hashlib.blake2b(text.encode("ascii"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


@dataclass(frozen=True)
class SweepSpec:
    """Grid of points to estimate, plus stopping and seeding parameters."""

    schemes: tuple
    modulations: tuple
    gamma_db: tuple
    r_db: tuple
    beta: tuple
    seed: int
    min_errors: int = DEFAULT_MIN_ERRORS
    max_bits: int = DEFAULT_MAX_BITS
    workers: int = 1
    output_path: str | None = None

    def __post_init__(self):
        for name in ("schemes", "modulations", "gamma_db", "r_db", "beta"):
            values = tuple(getattr(self, name))
            if not values:
                raise ValueError(f"{name} must be non-empty")
            object.__setattr__(self, name, values)
        for name in ("gamma_db", "r_db", "beta"):
            if not all(math.isfinite(float(v)) for v in getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {list(getattr(self, name))}")
        if min(self.beta) < 0.0:
            raise ValueError(f"beta must be >= 0, got {list(self.beta)}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.min_errors < 1:
            raise ValueError(f"min_errors must be >= 1, got {self.min_errors}")
        object.__setattr__(
            self, "gamma_db", tuple(sorted(set(float(g) for g in self.gamma_db)))
        )
        for s in self.schemes:
            if s not in SCHEMES:
                raise ValueError(f"unknown scheme {s!r}; expected {SCHEMES}")
        for m in self.modulations:
            bps = ostbc.modulation_by_name(m).bits_per_symbol
            if self.max_bits < bps:
                raise ValueError(
                    f"max_bits must be at least one {m} symbol ({bps} bits), "
                    f"got {self.max_bits}"
                )


@dataclass(frozen=True)
class SweepRow:
    scheme: str
    modulation: str
    r_db: float
    beta: float
    gamma_db: float
    ber_analytic: float | None
    estimate: BerEstimate


@dataclass(frozen=True)
class SweepResult:
    spec: SweepSpec
    rows: tuple


def sweep_cells(spec: SweepSpec):
    """Deduplicated grid cells in deterministic report order."""
    cells = set(
        product(
            spec.schemes,
            (ostbc.modulation_by_name(m).name for m in spec.modulations),
            (float(r) for r in spec.r_db),
            (float(b) for b in spec.beta),
            spec.gamma_db,
        )
    )
    return sorted(cells)


def has_closed_form(scheme: str, mod: ostbc.Modulation, beta: float) -> bool:
    """Whether the closed form covers a cell.

    It is derived for one transmit antenna at each node and one receive
    antenna, a modulation with an ``a_constant`` (BPSK, QPSK) and perfect
    channel estimates.
    """
    code = ostbc.CODES[scheme]
    return (
        code.nodes == ("BS", "RS")
        and code.n_rx == 1
        and mod.a_constant is not None
        and beta == 0.0
    )


def analytic_ber(scheme: str, mod: ostbc.Modulation, r_db: float, beta: float,
                 gamma_db: float) -> float | None:
    """Closed-form BER where :func:`has_closed_form` holds, else None."""
    if not has_closed_form(scheme, mod, beta):
        return None
    point = analytic.AnalyticPoint(
        a_sq=mod.a_constant**2,
        r=10.0 ** (r_db / 10.0),
        gamma=10.0 ** (gamma_db / 10.0),
    )
    return analytic.ber_closed_form(point)


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Run every grid cell and pair it with the analytic value where defined.

    Cells run ``spec.workers`` at a time; the rows come back in
    :func:`sweep_cells` order whatever order the cells finish in.
    """
    points = [
        SimPoint(
            scheme=scheme,
            mod=ostbc.modulation_by_name(mod_name),
            gamma_db=gamma_db,
            r_db=r_db,
            beta=beta,
            seed=derive_seed(spec.seed, scheme, mod_name, r_db, beta, gamma_db),
            min_errors=spec.min_errors,
            max_bits=spec.max_bits,
        )
        for scheme, mod_name, r_db, beta, gamma_db in sweep_cells(spec)
    ]
    with ThreadPoolExecutor(max_workers=spec.workers) as pool:
        estimates = list(pool.map(run_point, points))
    rows = [
        SweepRow(
            scheme=p.scheme,
            modulation=p.mod.name,
            r_db=p.r_db,
            beta=p.beta,
            gamma_db=p.gamma_db,
            ber_analytic=analytic_ber(p.scheme, p.mod, p.r_db, p.beta, p.gamma_db),
            estimate=estimate,
        )
        for p, estimate in zip(points, estimates)
    ]
    return SweepResult(spec=spec, rows=tuple(rows))
