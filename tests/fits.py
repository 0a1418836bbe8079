"""Readings of a BER curve that the tests check the package's reports against.

The package reports the diversity order exactly, as n_tx n_rx, and the
imbalance penalty as its high-SNR limit. :func:`diversity_slope` fits the
slope of points of a closed-form, quadrature or simulated curve, and
:func:`snr_db_at_ber` finds where such a curve crosses a BER, so a test
can compare the reported numbers with the curves at finite SNR.
"""

import numpy as np


def diversity_slope(points) -> float:
    """Least-squares slope of -log10(pe) against log10(gamma).

    ``points`` is a sequence of (gamma, pe) pairs with strictly
    increasing gamma and pe > 0.
    """
    pts = list(points)
    if len(pts) < 2:
        raise ValueError(f"need at least 2 points, got {len(pts)}")
    gammas = np.array([float(g) for g, _ in pts])
    pes = np.array([float(pe) for _, pe in pts])
    if np.any(np.diff(gammas) <= 0.0):
        raise ValueError("gamma values must be strictly increasing")
    if np.any(pes <= 0.0):
        raise ValueError("pe values must be positive for the log-log fit")
    slope, _ = np.polyfit(np.log10(gammas), -np.log10(pes), 1)
    return float(slope)


def snr_db_at_ber(ber_at, target: float, lo: float, hi: float) -> float:
    """The SNR in dB where the decreasing curve ``ber_at(snr_db)`` crosses ``target``.

    Bisection on [lo, hi], which must bracket the crossing; 60 halvings
    leave the interval below a float's resolution for any bracket up to
    a few hundred dB.
    """
    if not ber_at(lo) > target >= ber_at(hi):
        raise ValueError(f"[{lo}, {hi}] dB does not bracket BER {target}")
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if ber_at(mid) > target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
