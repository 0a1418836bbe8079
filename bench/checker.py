"""Correctness checks for one sweep CSV, kept independent of the code under test.

A cell fails if any of these holds:

- its row is missing, duplicated or breaks the pinned schema;
- it breaks the stopping rule (``errors >= min_errors`` or ``bits >= max_bits``);
- it counts more errors than bits;
- its seed is not the cell's derived seed;
- its simulated BER misses the cell's reference BER (below);
- its row differs from the same workload's first CSV in this run.

References exist for BPSK/QPSK with perfect estimates (beta = 0): the
package's closed form for ``alamouti_2x1`` and, for ``ostbc_4x2``, the
MGF/Craig integral owned by this file (:func:`ostbc4_reference`).
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
from itertools import product
from statistics import NormalDist

import numpy as np

from coop_ostbc import analytic

CSV_HEADER = [
    "scheme",
    "modulation",
    "r_db",
    "beta",
    "snr_db",
    "ber_analytic",
    "ber_sim",
    "ci_lo",
    "ci_hi",
    "bits",
    "errors",
    "seed",
]

SYMBOLS_PER_BLOCK = {"alamouti_2x1": 2, "ostbc_4x2": 3}
BITS_PER_SYMBOL = {"BPSK": 1, "QPSK": 2, "QAM16": 4}
A_SQ = {"BPSK": 2.0, "QPSK": 1.0}  # a^2 of the closed form; 16QAM has none

# Two-sided level at which a correct simulator misses its reference with
# probability at most 1e-4 per cell. The CSV's own 95% Wilson interval
# misses about one cell in twenty by chance, too often for a pass/fail gate.
MISS_PROBABILITY = 1e-4
Z_MISS = NormalDist().inv_cdf(1.0 - MISS_PROBABILITY / 2.0)


def derive_seed(master_seed: int, *fields) -> int:
    """The cell seed the README promises: blake2b of the sweep seed and cell fields."""
    text = "|".join([str(int(master_seed))] + [repr(f) for f in fields])
    digest = hashlib.blake2b(text.encode("ascii"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def grid_cells(spec: dict) -> list:
    """The sweep's cells as (scheme, modulation, r_db, beta, gamma_db) tuples."""
    return sorted(
        set(
            product(
                spec["schemes"],
                (m.upper() for m in spec["modulations"]),
                (float(r) for r in spec["r_db"]),
                (float(b) for b in spec["beta"]),
                (float(g) for g in spec["gamma_db"]),
            )
        )
    )


def ostbc4_reference(m: float, n: float, nodes: int = 128) -> float:
    """(1/pi) Int_0^{pi/2} (1 + M/sin^2 t)^-4 (1 + N/sin^2 t)^-4 dt by Gauss-Legendre.

    Each symbol of the rate-3/4 code sees SNR gamma sum_ij w_i^2 |h_ij|^2
    over four paths per node, whose MGF in Craig's form gives this integral
    with M = a^2 gamma w_B^2 / 4 and N = a^2 gamma w_R^2 / 4.
    """
    x, w = np.polynomial.legendre.leggauss(nodes)
    theta = 0.25 * math.pi * (x + 1.0)
    s2 = np.sin(theta) ** 2
    vals = (1.0 + m / s2) ** -4 * (1.0 + n / s2) ** -4
    return float(np.dot(0.25 * math.pi * w, vals)) / math.pi


def reference_ber(scheme, modulation, r_db, beta, gamma_db) -> float | None:
    """Independent BER for BPSK/QPSK at beta = 0, else None."""
    if beta != 0.0 or modulation not in A_SQ:
        return None
    a_sq = A_SQ[modulation]
    r = 10.0 ** (r_db / 10.0)
    gamma = 10.0 ** (gamma_db / 10.0)
    if scheme == "alamouti_2x1":
        return analytic.ber_closed_form(analytic.AnalyticPoint(a_sq=a_sq, r=r, gamma=gamma))
    w_b_sq = 1.0 / (1.0 + r)
    return ostbc4_reference(a_sq * gamma * w_b_sq / 4.0, a_sq * gamma * (1.0 - w_b_sq) / 4.0)


def misses_reference(ber: float, ref: float, bits: int, bits_per_block: int) -> bool:
    """Normal test of ber against ref at ``Z_MISS``.

    Errors cluster within a fading block, which inflates the binomial
    variance by at most the number of bits in a block.
    """
    sd = math.sqrt(bits_per_block * ref * (1.0 - ref) / bits)
    return abs(ber - ref) > Z_MISS * sd


def _row_problems(row: dict, spec: dict) -> list:
    """Every check one row fails, as short reasons."""
    problems = []
    try:
        r_db, beta, gamma_db = float(row["r_db"]), float(row["beta"]), float(row["snr_db"])
        ber, ci_lo, ci_hi = float(row["ber_sim"]), float(row["ci_lo"]), float(row["ci_hi"])
        bits, errors, seed = int(row["bits"]), int(row["errors"]), int(row["seed"])
    except ValueError:
        return ["schema: non-numeric field"]
    scheme, modulation = row["scheme"], row["modulation"]
    if bits < 1 or errors < 0 or not 0.0 <= ci_lo <= ber <= ci_hi <= 1.0:
        problems.append("schema: counts or interval out of range")
    elif errors <= bits and not math.isclose(ber, errors / bits, rel_tol=1e-11, abs_tol=0.0):
        problems.append("schema: ber_sim != errors/bits")
    if errors > bits:
        problems.append("errors > bits")
    if not (errors >= spec["min_errors"] or bits >= spec["max_bits"]):
        problems.append("stop rule: neither min_errors nor max_bits reached")
    if seed != derive_seed(spec["seed"], scheme, modulation, r_db, beta, gamma_db):
        problems.append("seed != derive_seed")

    ref = reference_ber(scheme, modulation, r_db, beta, gamma_db)
    closed_form = ref if scheme == "alamouti_2x1" else None
    if closed_form is None and row["ber_analytic"] != "":
        problems.append("schema: ber_analytic where no closed form exists")
    elif closed_form is not None and not (
        row["ber_analytic"] != ""
        and math.isclose(float(row["ber_analytic"]), closed_form, rel_tol=1e-9)
    ):
        problems.append("schema: ber_analytic != closed form")
    if ref is not None and bits >= 1:
        bits_per_block = SYMBOLS_PER_BLOCK[scheme] * BITS_PER_SYMBOL[modulation]
        if misses_reference(ber, ref, bits, bits_per_block):
            problems.append(f"misses reference {ref:.4e} (ber {ber:.4e}, bits {bits})")
    return problems


def check_csv(text: str, spec: dict, first_text: str | None = None):
    """Check one sweep's CSV against ``spec``.

    Returns ``(attempted, failures)``: the number of grid cells and a dict
    from each failed cell (or unparseable row) to its reasons. Rows are
    also compared with ``first_text``, the workload's first CSV, when given.
    """
    cells = grid_cells(spec)
    cell_set = set(cells)
    failures: dict = {}
    records = list(csv.reader(io.StringIO(text)))
    if not records or records[0] != CSV_HEADER:
        return len(cells), {cell: ["schema: bad header"] for cell in cells}
    # Fields hold no newlines, so each record is one line; lines are compared
    # as bytes would be, terminators included.
    lines = text.splitlines(keepends=True)
    first_lines = None if first_text is None else first_text.splitlines(keepends=True)
    seen = set()
    for lineno, record in enumerate(records[1:], start=2):
        if len(record) != len(CSV_HEADER):
            failures[f"line {lineno}"] = ["schema: wrong column count"]
            continue
        row = dict(zip(CSV_HEADER, record))
        try:
            key = (row["scheme"], row["modulation"], float(row["r_db"]),
                   float(row["beta"]), float(row["snr_db"]))
        except ValueError:
            failures[f"line {lineno}"] = ["schema: non-numeric cell key"]
            continue
        if key in seen or key not in cell_set:
            failures[f"line {lineno}"] = ["schema: row outside the grid or repeated"]
            continue
        seen.add(key)
        problems = _row_problems(row, spec)
        if first_lines is not None and (
            lineno > len(first_lines) or first_lines[lineno - 1] != lines[lineno - 1]
        ):
            problems.append("differs from the first CSV of this run")
        if problems:
            failures[key] = problems
    for cell in cells:
        if cell not in seen:
            failures[cell] = ["row missing"]
    return len(cells), failures


class Ledger:
    """Cells attempted and failed over all sweeps of one workload."""

    def __init__(self, spec: dict):
        self.spec = spec
        self.first_text = None
        self.attempted = 0
        self.failed = 0
        self.reasons: list = []

    def record(self, text: str | None) -> None:
        """Check one sweep's CSV; ``None`` means the sweep raised or exited non-zero."""
        if text is None:
            cells = len(grid_cells(self.spec))
            self.attempted += cells
            self.failed += cells
            self.reasons.append("sweep raised or exited non-zero")
            return
        attempted, failures = check_csv(text, self.spec, self.first_text)
        if self.first_text is None:
            self.first_text = text
        self.attempted += attempted
        self.failed += min(len(failures), attempted)
        self.reasons.extend(f"{cell}: {'; '.join(why)}" for cell, why in failures.items())


def totals(text: str | None, spec: dict) -> dict:
    """Rows, rows stopped by max_bits below min_errors, and bit and error sums."""
    out = {"cells": 0, "cells_stopped_max_bits": 0, "bits": 0, "errors": 0}
    for row in csv.DictReader(io.StringIO(text or "")):
        try:
            bits, errors = int(row["bits"]), int(row["errors"])
        except (TypeError, ValueError):
            continue
        out["cells"] += 1
        out["bits"] += bits
        out["errors"] += errors
        out["cells_stopped_max_bits"] += errors < spec["min_errors"]
    return out
