"""The reference codeword builder that the tests check the chain against.

The chain never builds a codeword: :func:`coop_ostbc.ostbc.transmit`
reads the code table and the symbols themselves. :func:`encode` builds X
from the same table, so a test can carry it over a channel with plain
matrix products and compare.
"""

import numpy as np

from coop_ostbc.ostbc import SpaceTimeCode


def encode(code: SpaceTimeCode, symbols) -> np.ndarray:
    """Codeword X of shape (n_tx, n_slots[, blocks]) from (n_symbols[, blocks]) symbols.

    X is a fresh array: each entry ``(antenna, slot, symbol, conjugate,
    sign)`` of the table puts ``sign * s[symbol]``, conjugated when
    ``conjugate`` is true, at ``X[antenna, slot]``, and every other entry is
    zero.
    """
    s = np.asarray(symbols, dtype=complex)
    if s.shape[:1] != (code.n_symbols,):
        raise ValueError(f"{code.name} takes {code.n_symbols} symbols, got shape {s.shape}")
    x = np.zeros((code.n_tx, code.n_slots) + s.shape[1:], dtype=complex)
    for i, t, k, conjugate, sign in code.entries:
        entry = x[i, t, ...]  # a view, also when X has no block axis
        np.multiply(sign, np.conjugate(s[k], out=entry) if conjugate else s[k], out=entry)
    return x
