"""Closed-form error probability, its quadrature oracle, and the imbalance penalty.

:func:`cell_ber` is the theory value of a simulation cell: the closed
form below where it covers the cell, else None.

For the two-node Alamouti scheme in independent Rayleigh fading with
linear imbalance r and total SNR gamma, the average bit error probability
(BPSK and Gray-mapped QPSK, perfect channel estimates) is

    Pe = 1/2 (1 - 1/mu_M)(1 - 1/mu_N)(1 + 1/(mu_M + mu_N)),

    mu_M = sqrt(1 + 2(1+r)/(a^2 gamma)),
    mu_N = sqrt(1 + 2(1+r)/(a^2 gamma r)),

with a^2 = 2 for BPSK and a^2 = 1 for QPSK. The product form is
continuous at r = 1, symmetric in r <-> 1/r, and strictly inside
(0, 1/2); its float rounds to 0 or 1/2 only where the exact value lies
within rounding of them. The factors are carried as a mantissa and a
power of two, so no intermediate overflows anywhere in the float range.

An independent check, :func:`ber_integral_oracle`, covers any code in
``ostbc.CODES``: it averages the finite-range form of the Gaussian tail
over the code's weighted fading paths, with the weights from
``SpaceTimeCode.weights``, and integrates numerically. For
``alamouti_2x1`` it evaluates the same quantity as the closed form.

At high SNR every code's error probability falls as gamma^-L, with
L = n_tx n_rx its diversity order at any r, and imbalance shifts the
curve by the SNR of :func:`imbalance_penalty_db`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ostbc import CODES, Modulation, SpaceTimeCode

__all__ = [
    "AnalyticPoint",
    "ber_closed_form",
    "ber_integral_oracle",
    "cell_ber",
    "imbalance_penalty_db",
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


# Past 2**110 a factor 1 - 1/mu rounds to 1; below 2**-110 it is c/2.
_FACTOR_EXP = 110


def _factor(q: float, e: int):
    """(mantissa, exponent, mu) of the factor 1 - 1/mu, mu = sqrt(1 + c), c = q 2**e."""
    if e > _FACTOR_EXP:
        return 0.5, 1, math.inf
    if e < -_FACTOR_EXP:  # mu rounds to 1
        m, x = math.frexp(q)
        return m, x + e - 1, 1.0
    c = math.ldexp(q, e)
    mu = math.sqrt(1.0 + c)
    # 1 - 1/mu written as c / (mu (mu + 1)), with mu^2 = 1 + c: the
    # subtraction would cancel catastrophically as mu -> 1 at high SNR.
    m, x = math.frexp(c / (mu * (mu + 1.0)))
    return m, x, mu


def ber_closed_form(p: AnalyticPoint) -> float:
    """Average bit error probability, evaluated via the stable product form.

    c_m = 2(1+r)/(a^2 gamma) and c_n = c_m/r are formed as mantissas and
    powers of two, which round exactly as the plain float expressions do
    wherever those stay normal. A c past 2**110 gives the limit factor 1,
    which is the factor rounded to a float, and a c below 2**-110 the
    factor c/2. The product is scaled back once at the end, so no step
    overflows and only the result can round into the subnormal range.
    """
    m1, e1 = math.frexp(1.0 + p.r)
    ma, ea = math.frexp(p.a_sq)
    mg, eg = math.frexp(p.gamma)
    mr, er = math.frexp(p.r)
    q_m = m1 / (ma * mg)
    e_m = 1 + e1 - ea - eg
    f_m, x_m, mu_m = _factor(q_m, e_m)
    f_n, x_n, mu_n = _factor(q_m / mr, e_m - er)
    return math.ldexp(0.5 * f_m * f_n * (1.0 + 1.0 / (mu_m + mu_n)), x_m + x_n)


def cell_ber(scheme: str, mod: Modulation, r_db: float, beta: float,
             gamma_db: float) -> float | None:
    """Closed-form BER of a simulation cell, or None where the closed form does not cover it.

    It is derived for one transmit antenna at each node and one receive
    antenna, a modulation with an ``a_sq`` (BPSK, QPSK) and perfect
    channel estimates. ``r_db`` and ``gamma_db`` are in dB, as a
    ``montecarlo.SimPoint`` holds them, and become linear exactly as the
    simulator converts them; each must have a finite, positive linear value.
    """
    code = CODES[scheme]
    if (code.nodes != ("BS", "RS") or code.n_rx != 1 or mod.a_sq is None
            or beta != 0.0):
        return None
    return ber_closed_form(AnalyticPoint(mod.a_sq, 10.0 ** (r_db / 10.0),
                                         10.0 ** (gamma_db / 10.0)))


def ber_integral_oracle(code: SpaceTimeCode, p: AnalyticPoint, nodes: int = 64) -> float:
    """Quadrature of the averaged error probability of ``code`` with perfect CSI.

    With w = code.weights(r), the combined gain is a sum of n_tx n_rx
    independent unit exponentials, weight w_i^2 on each of antenna i's
    n_rx paths. Averaging the finite-range (Craig) form of the Gaussian
    tail over them leaves the MGF form (Simon & Alouini)

        Pe = (1/pi) Int_0^{pi/2} prod_i (1 + a^2 gamma w_i^2 / (2 sin^2 t))^(-n_rx) dt.

    It has no special case at r = 1, and for ``alamouti_2x1`` it is the
    cross-check on the closed form. The integral is a ``nodes``-point
    Gauss-Legendre rule with its nodes mapped to [0, pi/2], where the
    integrand stays in [0, 1] for any valid point.
    """
    if nodes < 16:
        raise ValueError(f"oracle needs at least 16 nodes, got {nodes}")
    x, w = np.polynomial.legendre.leggauss(nodes)
    theta = 0.25 * math.pi * (x + 1.0)
    path_snr = p.a_sq * p.gamma * code.weights(p.r)[:, None] ** 2 / 2.0
    factors = 1.0 / (1.0 + path_snr / np.sin(theta) ** 2)
    return float(np.dot(0.25 * math.pi * w, np.prod(factors, axis=0) ** code.n_rx)) / math.pi


def imbalance_penalty_db(r_db: float) -> float:
    """The SNR in dB that the imbalance ``r_db`` (in dB) costs against 0 dB at high SNR.

    With w = code.weights(r), the high-SNR error probability is
    proportional to prod_i w_i^(-2 n_rx) gamma^-L, and that product is
    ((1+r)^2/r)^(L/2) times a constant of the code, for both codes. So
    every code and modulation needs 5 log10((1+r)^2/(4r)) dB more SNR at
    r than at balance: 10 log10(cosh(x)), x = ln(r)/2 = r_db ln(10)/20,
    taken as (10/ln 10) log1p(2 sinh(x/2)^2) from r_db, as r is subnormal
    below about -3077 dB, and accurate near 0 dB, where cosh(x) rounds to 1.
    It is 0 at 0 dB and symmetric in r_db <-> -r_db.
    """
    half = r_db * math.log(10.0) / 40.0  # x/2
    return 10.0 / math.log(10.0) * math.log1p(2.0 * math.sinh(half) ** 2)
