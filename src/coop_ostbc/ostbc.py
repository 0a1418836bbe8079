"""Modulation mapping and the distributed space-time codes, written as data.

Each :class:`Modulation` (:data:`BPSK`, :data:`QPSK`, :data:`QAM16`)
describes its constellation once, as Gray PAM on one or two axes: a
name, the number of axes and the levels of an axis by Gray label. Its
points, bit count, closed-form constant and the per-bit comparisons of
:func:`detect` are worked out from those levels, and :func:`modulate`
and :func:`detect` read nothing else.

A :class:`SpaceTimeCode` lists the non-zero entries of its codeword X
(rows index transmit antennas, columns index time slots) and the node,
base station (BS) or relay (RS), that owns each antenna. One set of
functions transmits and combines for every code in :data:`CODES`.
:func:`transmit` reads that table and the symbols themselves, so the
chain never builds X.

The per-node power split comes from :meth:`SpaceTimeCode.weights`, the
one place that turns the linear RS-to-BS received-SNR ratio r into
weights: the BS transmits with amplitude weight w_B = sqrt(1/(1+r)) and
the RS with w_R = sqrt(r/(1+r)). A node with m antennas splits its
weight equally, so each of its antennas has weight w_node / sqrt(m).
Imbalance changes only the average power of each link, so the receiver
sees the effective channel w_i h_ij. :func:`transmit` and
:func:`combine` take the raw channels and the weights and apply
``sign * w_i`` per codeword entry, to the symbol that :func:`transmit`
sends and to the conjugated factor of each :func:`combine` term, so the
effective channels are never formed: a Monte Carlo chunk carries one
draw of fades through every imbalance of its curve.

:func:`transmit` carries the symbols over the channels at unit power and
without noise. The matched filter of :func:`combine` turns white antenna
noise into white, circular noise of variance G on each symbol, with G =
sum_ij |est_ij|^2 the sum of the estimated path powers (Tarokh,
Jafarkhani and Calderbank, 1999). The Monte Carlo chunk is the one place
that forms G, divides by it and adds the power and the noise per symbol,
after combining; with perfect estimates it needs neither layer.
:func:`detect` slices the gain-normalized input it is given.

Arrays may carry one trailing axis of fading blocks, which is the form
the Monte Carlo engine uses: symbols and detector inputs (n_symbols,
blocks), channels and their estimates (n_tx, n_rx, blocks), received
samples (n_rx, n_slots, blocks).

Every layer of the chain takes the chunk's
:class:`~coop_ostbc.numerics.Workspace` as its last argument, keeps its
temporaries in that workspace's scratch and allocates no result:
:func:`modulate`, :func:`transmit`, :func:`combine` and :func:`detect`
return its ``"symbols"``, ``"received"``, ``"combined"`` and
``"decisions"`` arrays, each valid until the next call for that name. A
Monte Carlo chunk borrows its workspace from the engine's idle list, so
a warm chunk allocates almost nothing.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .numerics import Workspace

__all__ = [
    "Modulation",
    "BPSK",
    "QPSK",
    "QAM16",
    "modulation_by_name",
    "SpaceTimeCode",
    "CODES",
    "modulate",
    "transmit",
    "combine",
    "detect",
]


@dataclass(frozen=True)
class Modulation:
    """One unit-average-energy constellation, as Gray PAM on each of its axes.

    ``levels[i]`` is the level, at unit symbol energy, of an axis whose
    Gray label is ``i``: BPSK uses the real axis alone (``axes`` 1), QPSK
    and QAM16 both. A symbol's bit label is its real axis' label followed
    by its imaginary axis' label, MSB first. Worked out once per record:
    ``bits_per_symbol``; ``points[i]``, the symbol whose bit label is the
    binary expansion of ``i``; ``a_sq``, the constant a^2 = 2 level^2 of
    the closed-form error analysis, exactly 2/axes on 2-PAM axes and None
    otherwise; and ``bit_tests``, one ``(plane, index, fold, compare,
    edge)`` per bit, which :func:`detect` runs as ``compare(z, edge)`` on
    axis ``plane``, folded in place to |z| when ``fold`` is true, into
    ``bits[index]``, the bit's column of its decisions; each edge is a 0-d
    float64 array, which numpy need not convert on every call as it
    converts a Python float. An axis' high
    bit is its sign; the low bit of Gray 4-PAM tells the inner levels from
    the outer ones, at the edge midway between them. Each comparison is
    strict and puts bit 1 on the side of the levels whose label has it, so
    a symbol exactly on an edge goes to the smaller label.
    """

    name: str
    axes: int
    levels: tuple

    @cached_property
    def bits_per_symbol(self) -> int:
        return self.axes * (len(self.levels).bit_length() - 1)

    @cached_property
    def points(self) -> np.ndarray:
        labels = itertools.product(self.levels, repeat=self.axes)
        return np.array([complex(*label) for label in labels])

    @cached_property
    def a_sq(self) -> float | None:
        return 2.0 / self.axes if len(self.levels) == 2 else None

    @cached_property
    def bit_tests(self) -> tuple:
        half = len(self.levels) // 2  # the first label whose high bit is 1
        axis = [(False, np.greater if self.levels[half] > 0.0 else np.less, np.array(0.0))]
        if half == 2:  # labels 1 and 3 have the low bit
            edge = (abs(self.levels[0]) + abs(self.levels[1])) / 2.0
            axis.append((True, np.less if abs(self.levels[1]) < edge else np.greater,
                         np.array(edge)))
        return tuple((plane, (..., plane * len(axis) + j), *test)
                     for plane in range(self.axes) for j, test in enumerate(axis))


BPSK = Modulation("BPSK", 1, (1.0, -1.0))
QPSK = Modulation("QPSK", 2, tuple(level / math.sqrt(2.0) for level in (1, -1)))
QAM16 = Modulation("QAM16", 2, tuple(level / math.sqrt(10.0) for level in (-3, -1, 3, 1)))

_MODULATIONS = {m.name: m for m in (BPSK, QPSK, QAM16)}


def modulation_by_name(name: str) -> Modulation:
    try:
        return _MODULATIONS[str(name).upper()]
    except KeyError:
        raise ValueError(
            f"unknown modulation {name!r}; expected one of {sorted(_MODULATIONS)}"
        ) from None


@dataclass(frozen=True)
class SpaceTimeCode:
    """An orthogonal space-time block code as a table of codeword entries.

    Each entry ``(antenna, slot, symbol, conjugate, sign)`` places
    ``sign * s[symbol]``, conjugated when ``conjugate`` is true, at
    ``X[antenna, slot]``; every other entry of X is zero. ``nodes[i]``
    names the node ("BS" or "RS") that owns antenna i. The rows of X are
    orthogonal with the common norm sum_k |s_k|^2, which is what lets the
    matched filter of :func:`combine` decouple the symbols. The sizes
    ``n_tx``, ``n_slots`` and ``n_symbols`` are worked out from the table
    once per code; equality and hashing read the four fields only.
    """

    name: str
    entries: tuple
    nodes: tuple
    n_rx: int

    @cached_property
    def n_tx(self) -> int:
        return len(self.nodes)

    @cached_property
    def n_slots(self) -> int:
        return 1 + max(entry[1] for entry in self.entries)

    @cached_property
    def n_symbols(self) -> int:
        return 1 + max(entry[2] for entry in self.entries)

    def weights(self, r: float) -> np.ndarray:
        """Per-antenna amplitude weights for the linear imbalance r.

        w_B^2 = 1/(1+r) and w_R^2 = r/(1+r), so the node powers add up to
        one; each node splits its weight equally over its antennas.
        """
        node_weight = {"BS": math.sqrt(1.0 / (1.0 + r)), "RS": math.sqrt(r / (1.0 + r))}
        return np.array(
            [node_weight[n] * math.sqrt(1.0 / self.nodes.count(n)) for n in self.nodes]
        )


CODES = {
    code.name: code
    for code in (
        # Rate 1, one antenna per node, one receive antenna:
        #   [[ s0, -s1*],
        #    [ s1,  s0*]]
        SpaceTimeCode(
            name="alamouti_2x1",
            entries=(
                (0, 0, 0, False, 1), (0, 1, 1, True, -1),
                (1, 0, 1, False, 1), (1, 1, 0, True, 1),
            ),
            nodes=("BS", "RS"),
            n_rx=1,
        ),
        # Rate 3/4, two antennas per node, two receive antennas:
        #   [[ s0, -s1*, -s2*,  0  ],
        #    [ s1,  s0*,  0,   -s2*],
        #    [ s2,  0,    s0*,  s1*],
        #    [ 0,   s2,  -s1,   s0 ]]
        SpaceTimeCode(
            name="ostbc_4x2",
            entries=(
                (0, 0, 0, False, 1), (0, 1, 1, True, -1), (0, 2, 2, True, -1),
                (1, 0, 1, False, 1), (1, 1, 0, True, 1), (1, 3, 2, True, -1),
                (2, 0, 2, False, 1), (2, 2, 0, True, 1), (2, 3, 1, True, 1),
                (3, 1, 2, False, 1), (3, 2, 1, False, -1), (3, 3, 0, False, 1),
            ),
            nodes=("BS", "BS", "RS", "RS"),
            n_rx=2,
        ),
    )
}


def modulate(bits, mod: Modulation, work: Workspace) -> np.ndarray:
    """Map a bit vector (MSB-first per symbol) onto constellation symbols.

    The symbols are the ``"symbols"`` array of ``work``.
    """
    bits = np.asarray(bits, dtype=np.uint8).ravel()
    bps = mod.bits_per_symbol
    if bits.size % bps != 0:
        raise ValueError(
            f"bit count {bits.size} is not a multiple of {bps} ({mod.name})"
        )
    groups = bits.reshape(-1, bps)
    labels = groups[:, 0].copy()
    for j in range(1, bps):  # at most 4 bits, so a label fits in its byte
        labels <<= 1
        labels |= groups[:, j]
    # Every label indexes a point, so "clip" never clips; unlike the default
    # "raise", it writes straight into ``out`` without a buffer.
    return np.take(mod.points, labels, out=work.array("symbols", labels.shape), mode="clip")


def _signed(out, x, c, conjugate: bool):
    """``c * x``, or ``c * conj(x)``, into ``out``: one real multiply for each
    of its real and imaginary parts, so the conjugation costs no pass."""
    np.multiply(x.real, c, out=out.real)
    np.multiply(x.imag, -c if conjugate else c, out=out.imag)
    return out


def _check_weights(code: SpaceTimeCode, weights) -> np.ndarray:
    w = np.asarray(weights, dtype=float)
    if w.shape != (code.n_tx,):
        raise ValueError(f"{code.name} takes {code.n_tx} weights, got shape {w.shape}")
    return w


def transmit(code: SpaceTimeCode, symbols, channels, weights, work: Workspace) -> np.ndarray:
    """Noiseless received samples Y[j, t] = sum_i w_i H[i, j] X[i, t] at unit power.

    X is not built: each slot sums the code's entries of that slot, in
    table order, as ``H[i, j] (sign w_i s_k)`` or ``H[i, j] (sign w_i
    conj(s_k))`` from the (n_symbols[, blocks]) ``symbols``, so the
    ``weights``, one per transmit antenna, scale the symbols and not the
    channels. ``channels`` must be (n_tx, n_rx) with the symbols'
    block axis. Y, of shape (n_rx, n_slots[, blocks]), is the
    ``"received"`` array of ``work``; the scaled symbol and one rx
    antenna's product are the scratch, so every pass is over one block
    axis.
    """
    s = np.asarray(symbols, dtype=complex)
    if s.shape[:1] != (code.n_symbols,):
        raise ValueError(f"{code.name} takes {code.n_symbols} symbols, got shape {s.shape}")
    h = np.asarray(channels, dtype=complex)
    if h.shape != (code.n_tx, code.n_rx) + s.shape[1:]:
        raise ValueError(f"{code.name} carries symbols {s.shape} over channels of shape "
                         f"{(code.n_tx, code.n_rx) + s.shape[1:]}, got {h.shape}")
    w = _check_weights(code, weights)
    blocks = s.shape[1:]
    # One flat block axis, even of length 1, keeps each slot's last axis
    # contiguous.
    s, h = s.reshape(code.n_symbols, -1), h.reshape(code.n_tx, code.n_rx, -1)
    received = work.array("received", (code.n_rx, code.n_slots, s.shape[1]))
    scaled, product = work.scratch((s.shape[1:], complex), (s.shape[1:], complex))
    for t in range(code.n_slots):
        terms = [entry for entry in code.entries if entry[1] == t]
        for n, (i, _, k, conjugate, sign) in enumerate(terms):
            _signed(scaled, s[k], sign * w[i], conjugate)
            for j in range(code.n_rx):
                np.multiply(h[i, j], scaled, out=product if n else received[j, t])
                if n:
                    np.add(received[j, t], product, out=received[j, t])
    return received.reshape((code.n_rx, code.n_slots) + blocks)


def combine(code: SpaceTimeCode, y, est, weights, work: Workspace) -> np.ndarray:
    """Matched-filter combining with the estimated channels over all rx antennas.

    s~_k = sum over the entries of s_k and over rx antennas j of
    sign * w_i conj(est_ij) y_jt, or sign * w_i est_ij conj(y_jt) for a
    conjugated entry, with ``weights`` the w_i, one per transmit antenna.
    Returns shape (n_symbols[, blocks]). With perfect estimates and the
    noiseless samples of :func:`transmit` at the same weights, s~_k = G *
    s_k with G = sum_ij w_i^2 |est_ij|^2; white CN(0, 1) noise on y
    becomes white CN(0, G) noise on each s~_k.
    The result is the ``"combined"`` array of ``work``. Each symbol sums
    its terms in table order, rx antenna by rx antenna; one antenna's
    conjugated factor, scaled by sign * w_i, and its product are the
    scratch, so every pass is over one block axis.
    """
    y = np.asarray(y, dtype=complex)
    est = np.asarray(est, dtype=complex)
    if (
        est.shape[:2] != (code.n_tx, code.n_rx)
        or y.shape[:2] != (code.n_rx, code.n_slots)
        or est.shape[2:] != y.shape[2:]
    ):
        raise ValueError(f"dimension mismatch for {code.name}: y {y.shape}, est {est.shape}")
    w = _check_weights(code, weights)
    blocks = y.shape[2:]
    combined = work.array("combined", (code.n_symbols,) + blocks)
    factor, product = work.scratch((blocks, complex), (blocks, complex))
    for k in range(code.n_symbols):
        total = combined[k, ...]
        terms = [(j, entry) for entry in code.entries if entry[2] == k
                 for j in range(code.n_rx)]
        for n, (j, (i, t, _, conjugate, sign)) in enumerate(terms):
            # The product never overwrites a factor: numpy can round a
            # one-element complex product written over one of its own inputs
            # differently from the same product written elsewhere.
            a, b = (est[i, j, ...], y[j, t, ...]) if conjugate else (y[j, t, ...], est[i, j, ...])
            np.multiply(a, _signed(factor, b, sign * w[i], True), out=product if n else total)
            if n:
                np.add(total, product, out=total)
    return combined


def detect(zr, zi, mod: Modulation, work: Workspace) -> np.ndarray:
    """Nearest-point decision on the gain-normalized detector input, back to bits.

    ``zr`` and ``zi`` are the real and imaginary parts of the input, one
    value per symbol, as float arrays of one shape that the detector may
    overwrite; a one-axis modulation never reads ``zi``. Every
    constellation is Gray PAM on each of its axes, so the nearest point is
    found one axis at a time, by running ``mod.bit_tests`` against the
    midpoints between adjacent levels. A symbol exactly on a decision edge
    goes to the smallest bit label, the point a search over all points
    taking the first minimum would pick.

    Returns a flat uint8 bit vector, ``bits_per_symbol`` bits per symbol,
    MSB first, with the symbols in C order of ``zr``'s shape. The bits are
    the ``"decisions"`` array of ``work``.
    """
    bits = work.array("decisions", zr.shape + (mod.bits_per_symbol,), bool)
    for plane, index, fold, compare, edge in mod.bit_tests:
        z = zi if plane else zr
        # Each ufunc takes its output positionally, which numpy parses
        # faster than out=: this loop runs once per cell and chunk.
        compare(np.abs(z, z) if fold else z, edge, bits[index])
    return bits.view(np.uint8).ravel()
