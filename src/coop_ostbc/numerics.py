"""Deterministic numerics shared by the whole package.

Probabilities are plain floats in [0, 1]. All randomness flows through
``RngStream`` so that every sample sequence is reproducible from a
(seed, stream_id) pair, which names the SFC64 child stream ``stream_id``
of the seed: Gaussians from its ziggurat ``standard_normal``, unit-mean
exponentials from its ziggurat ``standard_exponential``, data bits
byte-packed from its raw bytes.

A :class:`Workspace` keeps grow-only arrays for reuse from call to call.
The draws take an ``out`` array for their result and fill it in place,
so a caller that keeps one workspace draws into the same memory every
time: each Monte Carlo chunk borrows one from an idle list, capped at one
per CPU, that keeps the working sets of earlier chunks.
"""

from __future__ import annotations

import math
from statistics import NormalDist

import numpy as np

__all__ = [
    "RngStream",
    "Workspace",
    "sample_circular_gaussian",
    "wilson_interval",
]

_UINT64_MAX = (1 << 64) - 1


class RngStream:
    """Reproducible random stream keyed by (seed, stream_id).

    Backed by the SFC64 generator (``numpy.random.SFC64``) seeded with
    ``SeedSequence(seed, spawn_key=(stream_id,))``: stream k is exactly
    the k-th child that ``SeedSequence(seed).spawn`` gives. Identical
    (seed, stream_id) replay the exact same sequence from the start;
    distinct stream_ids give statistically independent streams, so
    parallel workers can each own one.

    Normal and exponential variates come from the generator's ziggurat
    ``standard_normal`` and ``standard_exponential``, and data bits from its
    raw bytes, eight bits per byte.
    """

    def __init__(self, seed: int, stream_id: int = 0):
        seed = int(seed)
        stream_id = int(stream_id)
        if not 0 <= seed <= _UINT64_MAX:
            raise ValueError(f"seed must fit in 64 bits, got {seed}")
        if not 0 <= stream_id <= _UINT64_MAX:
            raise ValueError(f"stream_id must fit in 64 bits, got {stream_id}")
        self.seed = seed
        self.stream_id = stream_id
        seq = np.random.SeedSequence(seed, spawn_key=(stream_id,))
        self._gen = np.random.Generator(np.random.SFC64(seq))

    def bits(self, n: int) -> np.ndarray:
        """n equiprobable bits as a uint8 array: ceil(n/8) random bytes, MSB first."""
        raw = np.frombuffer(self._gen.bytes(-(-n // 8)), np.uint8)
        return np.unpackbits(raw, count=n)

    def normal_pairs(self, size, out=None):
        """Two independent N(0,1) arrays of shape ``size``: the two rows of one
        ziggurat ``standard_normal`` draw of shape (2, *size).

        With ``out``, a C-contiguous float64 array of shape (2, *size), the
        draw fills it and its rows are returned; otherwise they are fresh.
        """
        x, y = self._gen.standard_normal((2, *np.atleast_1d(size)), out=out)
        return x, y

    def exponentials(self, size, out=None):
        """Independent Exp(1) variates of shape ``size``: one ziggurat
        ``standard_exponential`` draw, into ``out`` (a C-contiguous float64
        array of that shape) when it is given, else a fresh array."""
        return self._gen.standard_exponential(tuple(np.atleast_1d(size)), out=out)

    def __repr__(self) -> str:  # pragma: no cover
        return f"RngStream(seed={self.seed}, stream_id={self.stream_id})"


class Workspace:
    """Grow-only arrays reused call after call: named results and one shared scratch.

    :meth:`array` returns an array of the requested shape and dtype on the
    bytes kept under ``name``, and :meth:`arrays` lays out several, one
    after another, on them; :meth:`scratch` lays out the temporaries of
    one call on the bytes that every caller of it shares. Bytes are
    replaced only when they are too small, so each request returns the
    memory of the last one under its name, holding whatever that left
    there: a caller is done with an array before its name is asked for
    again, and with its scratch before any other ``scratch`` call. A fresh
    ``Workspace()`` gives fresh arrays.
    """

    def __init__(self):
        self._buffers: dict = {}

    def array(self, name: str, shape, dtype=complex) -> np.ndarray:
        dtype = np.dtype(dtype)
        nbytes = math.prod(shape) * dtype.itemsize
        flat = self._buffers.get(name)
        if flat is None or flat.size < nbytes:
            flat = self._buffers[name] = np.empty(nbytes, np.uint8)
        return flat[:nbytes].view(dtype).reshape(shape)

    def arrays(self, name: str, *specs) -> list:
        """One array per ``(shape, dtype)`` of ``specs`` on the bytes kept under
        ``name``, each starting on a 64-byte step, which keeps every array
        aligned whatever its dtype."""
        sizes = [math.prod(shape) * np.dtype(dtype).itemsize for shape, dtype in specs]
        starts = [0]
        for size in sizes:
            starts.append(starts[-1] + -(-size // 64) * 64)
        flat = self.array(name, (starts[-1],), np.uint8)
        return [flat[start:start + size].view(dtype).reshape(shape)
                for (shape, dtype), start, size in zip(specs, starts, sizes)]

    def scratch(self, *specs) -> list:
        """:meth:`arrays` on the bytes that every caller shares."""
        return self.arrays("scratch", *specs)


def sample_circular_gaussian(rng: RngStream, variance: float, size, out=None):
    """Circularly-symmetric complex Gaussian draws of the given variance.

    Real and imaginary parts are independent N(0, variance/2); returns a
    complex array of shape ``size``: ``out`` (C-contiguous) when it is
    given, else a fresh one. One ``normal_pairs`` draw fills the float
    view of that array, its two rows being the two halves of the view, so
    the entries take their real and imaginary parts from consecutive
    normals; the view is then scaled in place.
    """
    variance = float(variance)
    if not (math.isfinite(variance) and variance >= 0.0):
        raise ValueError(f"variance must be finite and >= 0, got {variance}")
    shape = tuple(np.atleast_1d(size))
    if out is None:
        out = np.empty(shape, dtype=complex)
    elif out.shape != shape or out.dtype != complex or not out.flags.c_contiguous:
        raise ValueError(f"out must be a C-contiguous complex array of shape {shape}")
    parts = out.view(float)
    rng.normal_pairs(shape, out=parts.reshape((2,) + shape))
    np.multiply(parts, math.sqrt(variance / 2.0), out=parts)
    return out


def wilson_interval(errors: int, trials: int, deff: float = 1.0):
    """95% Wilson score interval for the proportion errors/trials.

    The interval is taken at the Kish effective size ``trials / deff``,
    where the design effect ``deff >= 1`` is the variance of the
    proportion over its binomial variance; ``deff = 1`` is the binomial
    interval. Returns (lo, hi) with lo <= errors/trials <= hi.
    """
    errors = int(errors)
    trials = int(trials)
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if not 0 <= errors <= trials:
        raise ValueError(f"errors must be in [0, trials], got {errors}/{trials}")
    if not (math.isfinite(deff) and deff >= 1.0):
        raise ValueError(f"deff must be finite and >= 1, got {deff}")
    z = NormalDist().inv_cdf(0.975)  # two-sided 95%
    phat = errors / trials
    n = trials / deff
    z2_n = z * z / n
    denom = 1.0 + z2_n
    center = (phat + 0.5 * z2_n) / denom
    half = (z / denom) * math.sqrt(phat * (1.0 - phat) / n + 0.25 * z2_n / n)
    # At the boundaries the interval endpoint is exact by construction.
    lo = 0.0 if errors == 0 else max(0.0, center - half)
    hi = 1.0 if errors == trials else min(1.0, center + half)
    return lo, hi
