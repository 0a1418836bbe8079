"""Modulation mapping and the distributed space-time codes, written as data.

Each :class:`Modulation` (:data:`BPSK`, :data:`QPSK`, :data:`QAM16`) is
the one record of its constellation: its points by bit label, its
per-axis slicer, its bit count and its closed-form constant.
:func:`modulate` and :func:`detect` read nothing else.

A :class:`SpaceTimeCode` lists the non-zero entries of its codeword X
(rows index transmit antennas, columns index time slots) and the node,
base station (BS) or relay (RS), that owns each antenna. One set of
functions encodes, transmits, combines and scales for every code in
:data:`CODES`. :func:`transmit` reads that table and the symbols
themselves, so the chain never builds X; :func:`encode` builds it for
reference.

The per-node power split comes from :meth:`SpaceTimeCode.weights`, the
one place that turns the linear RS-to-BS received-SNR ratio r into
weights: the BS transmits with amplitude weight w_B = sqrt(1/(1+r)) and
the RS with w_R = sqrt(r/(1+r)). A node with m antennas splits its
weight equally, so each of its antennas has weight w_node / sqrt(m).
Imbalance changes only the average power of each link, so the receiver
sees the effective channel w_i h_ij. :func:`transmit`, :func:`combine`
and :func:`effective_gain` are plain OSTBC over the channels they are
given; the Monte Carlo chunk weights its drawn channels once and hands
them effective channels.

Arrays may carry one trailing axis of fading blocks, which is the form
the Monte Carlo engine uses: symbols (n_symbols, blocks), codewords
(n_tx, n_slots, blocks), channels and their estimates (n_tx, n_rx,
blocks), noise and received samples (n_rx, n_slots, blocks).

Every layer of the chain takes the chunk's
:class:`~coop_ostbc.numerics.Workspace` as its last argument, keeps its
temporaries in that workspace's scratch and allocates no result:
:func:`modulate`, :func:`combine`, :func:`effective_gain` and
:func:`detect` return its ``"symbols"``, ``"combined"``, ``"gain"`` and
``"decisions"`` arrays, each valid until the next call for that name,
and :func:`transmit` adds the signal onto the noise array it is given
and returns it. A Monte Carlo chunk borrows its workspace from the
engine's idle list, so a warm chunk allocates almost nothing.
:func:`encode`, the reference, returns a fresh codeword.
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
    "encode",
    "transmit",
    "combine",
    "effective_gain",
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
    ``a_constant`` feeds the closed-form error analysis and exists only
    for BPSK and QPSK. Equality, hashing and repr read the name, the bit
    count and ``a_constant`` only.
    """

    name: str
    bits_per_symbol: int
    a_constant: float | None
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
    "BPSK", 1, math.sqrt(2.0),
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

        w_B^2 = 1/(1+r) and w_R^2 = 1 - w_B^2, so the node powers add up
        to one; each node splits its weight equally over its antennas.
        """
        w_b_sq = 1.0 / (1.0 + r)
        node_weight = {"BS": math.sqrt(w_b_sq), "RS": math.sqrt(1.0 - w_b_sq)}
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


def encode(code: SpaceTimeCode, symbols) -> np.ndarray:
    """Codeword X of shape (n_tx, n_slots[, blocks]) from (n_symbols[, blocks]) symbols."""
    s = np.asarray(symbols, dtype=complex)
    if s.shape[:1] != (code.n_symbols,):
        raise ValueError(f"{code.name} takes {code.n_symbols} symbols, got shape {s.shape}")
    x = np.zeros((code.n_tx, code.n_slots) + s.shape[1:], dtype=complex)
    for i, t, k, conjugate, sign in code.entries:
        entry = x[i, t, ...]  # a view, also when X has no block axis
        np.multiply(sign, np.conjugate(s[k], out=entry) if conjugate else s[k], out=entry)
    return x


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


def transmit(code: SpaceTimeCode, symbols, channels, total_power: float, noise,
             work: Workspace) -> np.ndarray:
    """Received samples Y[j, t] = sqrt(P) sum_i H[i, j] X[i, t] + noise[j, t].

    X is not built: each slot sums the code's entries of that slot, in
    table order, as ``sign * H[i, j] s_k`` or ``sign * H[i, j] conj(s_k)``
    from the (n_symbols[, blocks]) ``symbols``, and a term with sign -1 is
    subtracted. Y is added onto ``noise``, a complex array of shape
    (n_rx, n_slots[, blocks]), which is returned; the conjugated symbols
    and one slot's sum and product are the scratch of ``work``.
    """
    total_power = float(total_power)
    if not (math.isfinite(total_power) and total_power >= 0.0):
        raise ValueError(f"total power must be finite and >= 0, got {total_power}")
    s = np.asarray(symbols, dtype=complex)
    if s.shape[:1] != (code.n_symbols,):
        raise ValueError(f"{code.name} takes {code.n_symbols} symbols, got shape {s.shape}")
    h = np.asarray(channels, dtype=complex)
    blocks = h.shape[2:]
    if noise.dtype != complex or noise.shape != (code.n_rx, code.n_slots) + blocks:
        raise ValueError(f"{code.name} adds onto complex noise of shape "
                         f"{(code.n_rx, code.n_slots) + blocks}, got {noise.dtype} {noise.shape}")
    rx = (code.n_rx,) + blocks
    conj_s, slot, product = work.scratch((s.shape, complex), (rx, complex), (rx, complex))
    np.conjugate(s, out=conj_s)
    amplitude = math.sqrt(total_power)
    for t in range(code.n_slots):
        terms = [entry for entry in code.entries if entry[1] == t]
        for n, (i, _, k, conjugate, sign) in enumerate(terms):
            _add_term(slot, h[i], conj_s[k] if conjugate else s[k], sign, n == 0, product)
        slot *= amplitude
        noise[:, t] += slot
    return noise


def combine(code: SpaceTimeCode, y, est, work: Workspace) -> np.ndarray:
    """Matched-filter combining with the estimated channels over all rx antennas.

    s~_k = sum over the entries of s_k and over rx antennas j of
    sign * conj(est_ij) y_jt, or sign * est_ij conj(y_jt) for a conjugated
    entry. Returns shape (n_symbols[, blocks]). With perfect estimates and
    no noise, s~_k = sqrt(P) * G * s_k with G from :func:`effective_gain`.
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


def effective_gain(code: SpaceTimeCode, est, work: Workspace) -> np.ndarray:
    """Combined gain sum_ij |est[i, j]|^2 over all transmit-receive paths.

    The gain is the ``"gain"`` array of ``work``; the squares of the real
    and imaginary parts are its scratch.
    """
    est = np.asarray(est, dtype=complex)
    if est.shape[:2] != (code.n_tx, code.n_rx):
        raise ValueError(f"expected a {code.name} channel array, got shape {est.shape}")
    (squares,) = work.scratch(((2,) + est.shape, float))
    np.square(est.real, out=squares[0])
    np.square(est.imag, out=squares[1])
    paths = np.add(squares[0], squares[1], out=squares[0]).reshape((-1,) + est.shape[2:])
    return np.sum(paths, axis=0, out=work.array("gain", est.shape[2:], float))


def detect(s_tilde, effective_gain, mod: Modulation, work: Workspace) -> np.ndarray:
    """Nearest-point decision on s_tilde / effective_gain, back to bits.

    Every constellation is a product of Gray-labelled levels on the real
    and imaginary axes, so ``mod.slicer`` finds the nearest point one axis
    at a time by comparing against the midpoints between adjacent levels:
    BPSK on the real axis, QPSK on each axis, QAM16 as Gray 4-PAM on each
    axis. A symbol exactly on a decision edge goes to the smallest bit
    label, the point a search over all points taking the first minimum
    would pick.

    ``s_tilde`` and ``effective_gain`` may have any shapes that broadcast
    together. Returns a flat uint8 bit vector, ``bits_per_symbol`` bits per
    symbol, MSB first, with the symbols in C order of the broadcast shape.
    The bits are the ``"decisions"`` array of ``work``, and the normalized
    symbols are its scratch.
    """
    g = np.asarray(effective_gain, dtype=float)
    if not np.all(g > 0.0):
        raise ValueError("effective gain must be positive")
    s = np.asarray(s_tilde, dtype=complex)
    shape = np.broadcast_shapes(s.shape, g.shape)
    (z,) = work.scratch(((2,) + shape, float))
    # numpy divides a complex by a real as a product with the reciprocal,
    # so this is s_tilde / g bit for bit.
    inv = 1.0 / g
    np.multiply(s.real, inv, out=z[0, ...])
    np.multiply(s.imag, inv, out=z[1, ...])
    bits = work.array("decisions", shape + (mod.bits_per_symbol,), bool)
    mod.slicer(z[0, ...], z[1, ...], bits)
    return bits.view(np.uint8).ravel()
