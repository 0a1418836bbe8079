"""Closed-form error probability, its quadrature oracle, and slope fitting.

For the two-node Alamouti scheme in independent Rayleigh fading with
linear imbalance r and total SNR gamma, the average bit error probability
(BPSK and Gray-mapped QPSK, perfect channel estimates) is

    Pe = 1/2 (1 - 1/mu_M)(1 - 1/mu_N)(1 + 1/(mu_M + mu_N)),

    mu_M = sqrt(1 + 2(1+r)/(a^2 gamma)),
    mu_N = sqrt(1 + 2(1+r)/(a^2 gamma r)),

with a^2 = 2 for BPSK and a^2 = 1 for QPSK. The product form is
continuous at r = 1, symmetric in r <-> 1/r, and strictly inside
(0, 1/2). An independent check, :func:`ber_integral_oracle`, evaluates
the same quantity by averaging the finite-range form of the Gaussian
tail over both fading densities and integrating numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import integrate_half_pi

__all__ = [
    "AnalyticPoint",
    "ber_closed_form",
    "ber_integral_oracle",
    "diversity_slope",
]


@dataclass(frozen=True)
class AnalyticPoint:
    """Inputs of the closed form: a^2, linear imbalance r, linear SNR gamma."""

    a_sq: float
    r: float
    gamma: float

    def __post_init__(self):
        for name in ("a_sq", "r", "gamma"):
            v = float(getattr(self, name))
            if not (math.isfinite(v) and v > 0.0):
                raise ValueError(f"{name} must be finite and > 0, got {v}")
            object.__setattr__(self, name, v)


def ber_closed_form(p: AnalyticPoint) -> float:
    """Average bit error probability, evaluated via the stable product form."""
    c_m = 2.0 * (1.0 + p.r) / (p.a_sq * p.gamma)
    c_n = c_m / p.r
    mu_m = math.sqrt(1.0 + c_m)
    mu_n = math.sqrt(1.0 + c_n)
    # 1 - 1/mu written as c / (mu (mu + 1)), with mu^2 = 1 + c: the
    # subtraction would cancel catastrophically as mu -> 1 at high SNR.
    pe = (
        0.5
        * (c_m / (mu_m * (mu_m + 1.0)))
        * (c_n / (mu_n * (mu_n + 1.0)))
        * (1.0 + 1.0 / (mu_m + mu_n))
    )
    if not math.isfinite(pe):
        raise FloatingPointError(f"non-finite error probability for {p}")
    return pe


def ber_integral_oracle(p: AnalyticPoint, nodes: int = 64) -> float:
    """Independent quadrature evaluation of the averaged error probability.

    Averaging the finite-range Gaussian-tail integrand over the two
    exponential branch-gain densities leaves

        Pe = (1/pi) Int_0^{pi/2} 1/(1 + M/sin^2 t) * 1/(1 + N/sin^2 t) dt

    with M = a^2 gamma / (2 (1+r)) and N = r M. This form has no special
    case at r = 1 and serves as the cross-check on the closed form.
    """
    if nodes < 16:
        raise ValueError(f"oracle needs at least 16 nodes, got {nodes}")
    m = p.a_sq * p.gamma / (2.0 * (1.0 + p.r))
    n = m * p.r

    def integrand(theta):
        s2 = np.sin(theta) ** 2
        return 1.0 / ((1.0 + m / s2) * (1.0 + n / s2))

    return integrate_half_pi(integrand, nodes) / math.pi


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
