"""The detector input of a complex array, as :func:`coop_ostbc.ostbc.detect` takes it."""

import numpy as np


def planes(z):
    """The real and imaginary parts of ``z`` as two fresh C-ordered float
    arrays, which the detector may overwrite."""
    z = np.asarray(z, dtype=complex)
    return z.real.copy(), z.imag.copy()
