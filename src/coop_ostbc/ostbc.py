"""Modulation mapping and the distributed space-time codes, written as data.

Each :class:`Modulation` (:data:`BPSK`, :data:`QPSK`, :data:`QAM16`) is
the one record of its constellation: its points by bit label, its
per-axis slicer, its bit count and its closed-form constant.
:func:`modulate` and :func:`detect` read nothing else.

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
:func:`combine` are plain OSTBC over the channels they are given; the
Monte Carlo chunk weights its draws once and hands them effective
channels.

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

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

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
    """One unit-average-energy, Gray-labelled constellation, as one record.

    ``points[i]`` is the symbol whose bit label is the binary expansion
    of ``i``, most significant bit first. ``slicer(zr, zi, bits)`` writes
    the ``bits_per_symbol`` bit decisions of gain-normalized symbols with
    real parts ``zr`` and imaginary parts ``zi`` along the last axis of the
    bool array ``bits``, MSB first; it may overwrite ``zr`` and ``zi``.
    ``a_sq``, the constant a^2 of the closed-form error analysis, is stored
    exactly and exists only for BPSK (2) and QPSK (1). Equality, hashing
    and repr read the name, the bit count and ``a_sq`` only.
    """

    name: str
    bits_per_symbol: int
    a_sq: float | None
    points: np.ndarray = field(repr=False, compare=False)
    slicer: Callable = field(repr=False, compare=False)


# Gray 4-PAM levels by 2-bit label: 00 -> -3, 01 -> -1, 10 -> +3, 11 -> +1.
_PAM4 = (-3, -1, 3, 1)
# Midway between the QAM16 axis levels 1/sqrt(10) and 3/sqrt(10).
_QAM16_EDGE = 2.0 / math.sqrt(10.0)


# Each slicer compares strictly on the side that keeps the smaller bit label
# when a symbol lies exactly on a decision edge.
def _slice_bpsk(zr, zi, bits):
    np.less(zr, 0.0, out=bits[..., 0])


def _slice_qpsk(zr, zi, bits):
    np.less(zr, 0.0, out=bits[..., 0])
    np.less(zi, 0.0, out=bits[..., 1])


def _slice_qam16(zr, zi, bits):
    # Each axis is Gray 4-PAM: its high bit is the sign and its low bit
    # marks the two inner levels.
    for axis, z in enumerate((zr, zi)):
        np.greater(z, 0.0, out=bits[..., 2 * axis])
        np.less(np.abs(z, out=z), _QAM16_EDGE, out=bits[..., 2 * axis + 1])


BPSK = Modulation(
    "BPSK", 1, 2.0,
    points=np.array([1 + 0j, -1 + 0j]),
    slicer=_slice_bpsk,
)
QPSK = Modulation(
    "QPSK", 2, 1.0,
    points=np.array([complex(i, q) / math.sqrt(2.0) for i in (1, -1) for q in (1, -1)]),
    slicer=_slice_qpsk,
)
QAM16 = Modulation(
    "QAM16", 4, None,
    points=np.array([complex(i, q) / math.sqrt(10.0) for i in _PAM4 for q in _PAM4]),
    slicer=_slice_qam16,
)

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
        one; each node splits its weight equally over its antennas. For
        r >= 1, w_R^2 is 1 - w_B^2, the form the pinned sweeps were drawn
        with; below 1 that difference cancels, down to 0 for r < 2^-53.
        """
        w_b_sq = 1.0 / (1.0 + r)
        w_r_sq = 1.0 - w_b_sq if r >= 1.0 else r / (1.0 + r)
        node_weight = {"BS": math.sqrt(w_b_sq), "RS": math.sqrt(w_r_sq)}
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


def _add_term(total, a, b, sign, first, product) -> None:
    """Add ``sign * a * b`` into ``total``, subtracting it when sign is -1.

    The first term of a sum is written, not added to zeros; negated, it
    goes through the float64 view, which numpy negates several times
    faster than the complex array. ``product`` is scratch for later terms.
    """
    if first:
        np.multiply(a, b, out=total)
        if sign < 0:
            np.negative(total.view(float), out=total.view(float))
    else:
        accumulate = np.add if sign > 0 else np.subtract
        accumulate(total, np.multiply(a, b, out=product), out=total)


def transmit(code: SpaceTimeCode, symbols, channels, work: Workspace) -> np.ndarray:
    """Noiseless received samples Y[j, t] = sum_i H[i, j] X[i, t] at unit power.

    X is not built: each slot sums the code's entries of that slot, in
    table order, as ``sign * H[i, j] s_k`` or ``sign * H[i, j] conj(s_k)``
    from the (n_symbols[, blocks]) ``symbols``, and a term with sign -1 is
    subtracted. ``channels`` must be (n_tx, n_rx) with the symbols' block
    axis. Y, of shape (n_rx, n_slots[, blocks]), is the ``"received"``
    array of ``work``; the conjugated symbols and one product are the
    scratch.
    """
    s = np.asarray(symbols, dtype=complex)
    if s.shape[:1] != (code.n_symbols,):
        raise ValueError(f"{code.name} takes {code.n_symbols} symbols, got shape {s.shape}")
    h = np.asarray(channels, dtype=complex)
    if h.shape != (code.n_tx, code.n_rx) + s.shape[1:]:
        raise ValueError(f"{code.name} carries symbols {s.shape} over channels of shape "
                         f"{(code.n_tx, code.n_rx) + s.shape[1:]}, got {h.shape}")
    blocks = s.shape[1:]
    # One flat block axis, even of length 1, keeps each slot's last axis
    # contiguous for the float view that negates a first term.
    s, h = s.reshape(code.n_symbols, -1), h.reshape(code.n_tx, code.n_rx, -1)
    received = work.array("received", (code.n_rx, code.n_slots, s.shape[1]))
    conj_s, product = work.scratch((s.shape, complex), ((code.n_rx, s.shape[1]), complex))
    np.conjugate(s, out=conj_s)
    for t in range(code.n_slots):
        terms = [entry for entry in code.entries if entry[1] == t]
        for n, (i, _, k, conjugate, sign) in enumerate(terms):
            _add_term(received[:, t], h[i], conj_s[k] if conjugate else s[k], sign, n == 0,
                      product)
    return received.reshape((code.n_rx, code.n_slots) + blocks)


def combine(code: SpaceTimeCode, y, est, work: Workspace) -> np.ndarray:
    """Matched-filter combining with the estimated channels over all rx antennas.

    s~_k = sum over the entries of s_k and over rx antennas j of
    sign * conj(est_ij) y_jt, or sign * est_ij conj(y_jt) for a conjugated
    entry. Returns shape (n_symbols[, blocks]). With perfect estimates and
    the noiseless samples of :func:`transmit`, s~_k = G * s_k with G =
    sum_ij |est_ij|^2; white CN(0, 1) noise on y becomes white CN(0, G)
    noise on each s~_k.
    The result is the ``"combined"`` array of ``work``. Each symbol's terms
    are summed per rx antenna, in table order, then over the rx antennas;
    the conjugated factor, the product and that one symbol's per-antenna
    sum are the scratch.
    """
    y = np.asarray(y, dtype=complex)
    est = np.asarray(est, dtype=complex)
    if (
        est.shape[:2] != (code.n_tx, code.n_rx)
        or y.shape[:2] != (code.n_rx, code.n_slots)
        or est.shape[2:] != y.shape[2:]
    ):
        raise ValueError(f"dimension mismatch for {code.name}: y {y.shape}, est {est.shape}")
    blocks = y.shape[2:]
    rx = y.shape[:1] + blocks
    combined = work.array("combined", (code.n_symbols,) + blocks)
    factor, product, per_rx = work.scratch((rx, complex), (rx, complex), (rx, complex))
    for k in range(code.n_symbols):
        terms = [entry for entry in code.entries if entry[2] == k]
        for n, (i, t, _, conjugate, sign) in enumerate(terms):
            # The product never overwrites a factor: numpy can round a
            # one-element complex product written over one of its own inputs
            # differently from the same product written elsewhere.
            if conjugate:
                a, b = est[i], np.conjugate(y[:, t], out=factor)
            else:
                a, b = np.conjugate(est[i], out=factor), y[:, t]
            _add_term(per_rx, a, b, sign, n == 0, product)
        np.sum(per_rx, axis=0, out=combined[k, ...])
    return combined


def detect(zr, zi, mod: Modulation, work: Workspace) -> np.ndarray:
    """Nearest-point decision on the gain-normalized detector input, back to bits.

    ``zr`` and ``zi`` are the real and imaginary parts of the input, one
    value per symbol, as float arrays of one shape that the slicer
    overwrites. Every constellation is a product of Gray-labelled levels
    on the real and imaginary axes, so ``mod.slicer`` finds the nearest
    point one axis at a time by comparing against the midpoints between
    adjacent levels: BPSK on the real axis, QPSK on each axis, QAM16 as
    Gray 4-PAM on each axis. A symbol exactly on a decision edge goes to
    the smallest bit label, the point a search over all points taking the
    first minimum would pick.

    Returns a flat uint8 bit vector, ``bits_per_symbol`` bits per symbol,
    MSB first, with the symbols in C order of ``zr``'s shape. The bits are
    the ``"decisions"`` array of ``work``.
    """
    bits = work.array("decisions", zr.shape + (mod.bits_per_symbol,), bool)
    mod.slicer(zr, zi, bits)
    return bits.view(np.uint8).ravel()
