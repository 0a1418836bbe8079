"""Command-line front end: analytic curves and simulation sweeps.

Subcommands
    analytic   closed-form BER over a (modulation, r, gamma) grid; on stderr,
               the SNR gap that imbalance costs and the high-SNR diversity slope
    simulate   Monte Carlo BER over the full grid, with confidence intervals;
               on stderr, how often the intervals hold the closed form and
               which cells stopped at max_bits short of min_errors

Each writes its CSV to --output or stdout, and its report to stderr only,
so stdout parses as the CSV.

Sweeps are configured from a JSON file (--spec) and/or flags; flags
override the file. ``montecarlo.sweep_points`` turns them into the grid
cells, ``SimPoint`` values that hold the SNR and the imbalance in dB;
the simulator and ``analytic_ber`` convert them to linear units, and
``analytic.AnalyticPoint`` takes linear units. The imbalance convention
is r = (RS-UE SNR) / (BS-UE SNR), so r > 1 means the relay link is the
stronger one; the error-rate analysis is symmetric under r <-> 1/r.

Exit codes: 0 success, 1 usage error, 2 runtime/numeric error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import os
import re
import sys

from . import analytic
from .montecarlo import (
    DEFAULT_MAX_BITS,
    DEFAULT_MIN_ERRORS,
    BerEstimate,
    SimPoint,
    analytic_ber,
    run_sweep,
    sweep_points,
)
from .ostbc import modulation_by_name

__all__ = [
    "CSV_HEADER",
    "main",
]

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

SPEC_KEYS = ("schemes", "modulations", "gamma_db", "r_db", "beta", "seed",
             "min_errors", "max_bits", "workers", "output")
GAP_TARGET_BER = 1e-2
GAP_R_DB = (0.0, 10.0)
SLOPE_GAMMA_DB = (40.0, 45.0, 50.0)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # No option starts with a minus and a digit, so "-10,0", "-10:0:5" and
        # "-1e1" are values; argparse's own pattern takes only plain numbers.
        self._negative_number_matcher = re.compile(r"-\.?\d")

    def error(self, message):  # route argparse failures to exit code 1
        raise UsageError(message)


def _fmt(v: float) -> str:
    """``v`` in ``:g`` form where that reads back as ``v``, else in full."""
    text = f"{v:g}"
    return text if float(text) == v else repr(v)


def _fmt_prob(p: float | None) -> str:
    return "" if p is None else f"{p:.12e}"


def _parse_name_list(text: str) -> list[str]:
    """Comma-separated names, blanks dropped."""
    return [t.strip() for t in text.split(",") if t.strip()]


def _parse_float_list(text: str) -> list[float]:
    """Comma-separated floats; a start:stop:step token expands inclusively."""
    values: list[float] = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        if ":" in token:
            parts = token.split(":")
            if len(parts) != 3:
                raise UsageError(f"bad range {token!r}, expected start:stop:step")
            start, stop, step = (float(p) for p in parts)
            if not (0.0 < step < math.inf and math.isfinite((stop - start) / step)):
                raise UsageError(
                    f"range {token!r} needs a finite step > 0 and a finite value count"
                )
            count = int(math.floor((stop - start) / step + 1e-9)) + 1
            if count < 1:
                raise UsageError(f"empty range {token!r}")
            values.extend(start + i * step for i in range(count))
        else:
            values.append(float(token))
    return values


def _load_spec_file(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise UsageError(f"bad JSON in {path}: {exc}") from None
    if not isinstance(data, dict):
        raise UsageError(f"spec file {path} must hold a JSON object")
    return data


def _is_number(value) -> bool:
    """A JSON number: an int or a float, but not a bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _integer(value, key: str) -> int:
    """An integral spec value; a fractional number is refused, not truncated."""
    if not _is_number(value) or isinstance(value, float) and not value.is_integer():
        raise UsageError(f"{key} must be an integer, got {value!r}")
    return int(value)


def _read_spec(args) -> dict:
    """The spec file's values, each overridden by its flag (stored under its key)."""
    spec = _load_spec_file(args.spec) if args.spec else {}
    unknown = sorted(set(spec) - set(SPEC_KEYS))
    if unknown:
        raise UsageError(
            f"unknown key(s) {', '.join(unknown)} in {args.spec}; "
            f"expected {', '.join(SPEC_KEYS)}"
        )
    for key in SPEC_KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            spec[key] = flag
    output = spec.get("output")
    if output is not None and not isinstance(output, str):
        raise UsageError(f"output must be a path string, got {output!r}")
    return spec


def _points(spec: dict, **stop_rule) -> tuple[SimPoint, ...]:
    """The sweep's cells, with every check failing here as a usage error.

    Only ``simulate`` passes ``min_errors`` and ``max_bits``.
    """

    def grid(key, default) -> list[float]:
        values = spec.get(key, default)
        if isinstance(values, list) and all(map(_is_number, values)):
            try:
                return [float(v) for v in values]
            except OverflowError:  # a JSON integer, since 1e400 parses as inf
                raise UsageError(f"{key} holds an integer too large for a float") from None
        raise UsageError(f"{key} must be a list of numbers, got {values!r}")

    schemes = spec.get("schemes", ["alamouti_2x1"])
    modulations = spec.get("modulations", ["QPSK"])
    gamma_db = grid("gamma_db", [])
    r_db = grid("r_db", [0.0])
    beta = grid("beta", [0.0])
    if isinstance(schemes, str):
        schemes = [schemes]
    if isinstance(modulations, str):
        modulations = [modulations]
    if not gamma_db:
        raise UsageError("no SNR grid given; set --gamma-db or 'gamma_db' in the spec file")
    if gamma_db != sorted(gamma_db) or len(set(gamma_db)) != len(gamma_db):
        print(
            "warning: SNR grid was not strictly increasing; normalizing",
            file=sys.stderr,
        )
    seed = _integer(spec.get("seed", 1), "seed")
    try:
        return sweep_points(schemes, modulations, gamma_db, r_db, beta, seed, **stop_rule)
    except (TypeError, ValueError) as exc:
        raise UsageError(str(exc)) from None


def _closed_form(points) -> list[float | None]:
    """The closed-form column of ``points``: one ``analytic_ber`` call per cell."""
    return [analytic_ber(p.scheme, p.mod, p.r_db, p.beta, p.gamma_db) for p in points]


def _row(point: SimPoint, pe: float | None,
         estimate: BerEstimate | None = None) -> list[str]:
    """One CSV row; without an estimate the six simulation columns stay empty."""
    row = [point.scheme, point.mod.name, _fmt(point.r_db), _fmt(point.beta),
           _fmt(point.gamma_db), _fmt_prob(pe)]
    if estimate is None:
        return row + [""] * 6
    return row + [_fmt_prob(estimate.ber), _fmt_prob(estimate.ci_lo),
                  _fmt_prob(estimate.ci_hi), str(estimate.bits), str(estimate.errors),
                  str(point.seed)]


def _write_csv(path: str | None, rows) -> None:
    """Write header + rows to ``path`` or stdout; on failure remove the partial file."""
    try:
        with (contextlib.nullcontext(sys.stdout) if path is None
              else open(path, "w", encoding="utf-8", newline="")) as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(CSV_HEADER)
            writer.writerows(rows)
    except OSError:
        if path is not None:
            with contextlib.suppress(OSError):
                os.remove(path)
        raise


# --- analytic and simulate, with their stderr reports ----------------------


def _cell(p: SimPoint) -> str:
    return (f"{p.scheme} {p.mod.name} r={_fmt(p.r_db)}dB beta={_fmt(p.beta)} "
            f"snr={_fmt(p.gamma_db)}dB")


def snr_db_at_ber(mod_name: str, r_db: float, gamma_db_grid) -> float | None:
    """Where the analytic curve crosses GAP_TARGET_BER, by log-linear interpolation.

    None if it does not cross on the grid, or crosses onto a BER that
    underflows to 0, which has no logarithm.
    """
    mod = modulation_by_name(mod_name)
    grid = sorted(gamma_db_grid)
    pes = [analytic_ber("alamouti_2x1", mod, r_db, 0.0, g) for g in grid]
    for i in range(1, len(grid)):
        hi_pe, lo_pe = pes[i - 1], pes[i]
        if hi_pe >= GAP_TARGET_BER >= lo_pe > 0.0:
            if hi_pe == lo_pe:
                return grid[i]
            frac = (math.log10(hi_pe) - math.log10(GAP_TARGET_BER)) / (
                math.log10(hi_pe) - math.log10(lo_pe)
            )
            return grid[i - 1] + frac * (grid[i] - grid[i - 1])
    return None


def imbalance_gap_db(mod_name: str, gamma_db_grid) -> float | None:
    """SNR penalty of r = 10 dB relative to r = 0 dB at the target BER."""
    base = snr_db_at_ber(mod_name, GAP_R_DB[0], gamma_db_grid)
    skew = snr_db_at_ber(mod_name, GAP_R_DB[1], gamma_db_grid)
    if base is None or skew is None:
        return None
    return skew - base


def analytic_report(points) -> str:
    """The closed form's SNR gap at GAP_TARGET_BER between the GAP_R_DB
    imbalances, per modulation, and its diversity slope over SLOPE_GAMMA_DB,
    per modulation and imbalance of the grid."""
    lines = []
    gamma_db_grid = sorted({p.gamma_db for p in points})
    for mod_name in sorted({p.mod.name for p in points}):
        gap = imbalance_gap_db(mod_name, gamma_db_grid)
        value = "not computable on this grid" if gap is None else f"{gap:.2f} dB"
        lines.append(
            f"{mod_name}: SNR gap at BER {GAP_TARGET_BER:g} between "
            f"r={GAP_R_DB[0]:g} dB and r={GAP_R_DB[1]:g} dB: {value}"
        )
    for mod_name, r_db in sorted({(p.mod.name, p.r_db) for p in points}):
        mod = modulation_by_name(mod_name)
        pts = [
            (10.0 ** (g / 10.0), analytic_ber("alamouti_2x1", mod, r_db, 0.0, g))
            for g in SLOPE_GAMMA_DB
        ]
        lines.append(
            f"{mod_name} r={r_db:g} dB: analytic high-SNR diversity slope "
            f"({SLOPE_GAMMA_DB[0]:g}-{SLOPE_GAMMA_DB[-1]:g} dB) "
            f"{analytic.diversity_slope(pts):.3f}"
        )
    return "\n".join(lines)


def simulation_report(points, column, estimates) -> str:
    """How often the simulated 95% CI holds the closed-form ``column``, the
    cells whose CI misses it, and the cells that stopped at ``max_bits``
    short of ``min_errors``."""
    checked = [(p, pe, est) for p, pe, est in zip(points, column, estimates)
               if pe is not None]
    misses = [(p, pe, est) for p, pe, est in checked if not est.ci_lo <= pe <= est.ci_hi]
    if checked:
        lines = [f"coverage: {(len(checked) - len(misses)) / len(checked):.3f}, the share "
                 f"of the {len(checked)} cells with a closed form whose 95% CI holds it"]
    else:
        lines = ["coverage: not computable, no cell of this grid has a closed form"]
    for p, pe, est in misses:
        lines.append(f"  {_cell(p)}  analytic={pe:.3e} not in [{est.ci_lo:.3e}, "
                     f"{est.ci_hi:.3e}], sim={est.ber:.3e}")
    short = [(p, est) for p, est in zip(points, estimates) if est.errors < p.min_errors]
    lines.append(f"cells stopped at max_bits below min_errors: {len(short)}")
    for p, est in short:
        lines.append(f"  {_cell(p)}  {est.errors} < {p.min_errors} errors in {est.bits} bits")
    return "\n".join(lines)


def cmd_analytic(args) -> int:
    spec = _read_spec(args)
    points = _points(spec)
    column = _closed_form(points)
    open_cells = [p for p, pe in zip(points, column) if pe is None]
    if open_cells:
        curve = (open_cells[0].scheme, open_cells[0].mod.name)
        betas = dict.fromkeys(p.beta for p in open_cells if (p.scheme, p.mod.name) == curve)
        raise UsageError(
            f"no closed form for {curve[0]} {curve[1]} at beta "
            f"{', '.join(map(_fmt, betas))}; use 'simulate' for it"
        )
    _write_csv(spec.get("output"), list(map(_row, points, column)))
    print(analytic_report(points), file=sys.stderr)
    return 0


def cmd_simulate(args) -> int:
    spec = _read_spec(args)
    workers = _integer(spec.get("workers", 1), "workers")
    if workers < 1:
        raise UsageError(f"workers must be >= 1, got {workers}")
    points = _points(
        spec,
        min_errors=_integer(spec.get("min_errors", DEFAULT_MIN_ERRORS), "min_errors"),
        max_bits=_integer(spec.get("max_bits", DEFAULT_MAX_BITS), "max_bits"),
    )
    column = _closed_form(points)
    estimates = run_sweep(points, workers)
    _write_csv(spec.get("output"), list(map(_row, points, column, estimates)))
    print(simulation_report(points, column, estimates), file=sys.stderr)
    return 0


# --- entry point --------------------------------------------------------------


def _add_grid_options(sub, include_sim: bool) -> None:
    sub.add_argument("--spec", help="JSON sweep spec; flags override its values")
    sub.add_argument(
        "--scheme", dest="schemes", type=_parse_name_list,
        help="comma list: alamouti_2x1, ostbc_4x2",
    )
    sub.add_argument(
        "--modulation", dest="modulations", type=_parse_name_list,
        help="comma list: BPSK, QPSK, QAM16",
    )
    sub.add_argument(
        "--gamma-db",
        type=_parse_float_list,
        help="total-SNR grid in dB, comma list; start:stop:step expands",
    )
    sub.add_argument(
        "--r-db",
        type=_parse_float_list,
        help="RS-to-BS SNR-ratio grid in dB (0 = balanced)",
    )
    sub.add_argument(
        "--beta", type=_parse_float_list, help="estimation-error variance grid"
    )
    sub.add_argument("--seed", type=int, help="sweep seed (default 1)")
    sub.add_argument("--output", help="CSV output path (default: stdout)")
    if include_sim:
        sub.add_argument("--min-errors", type=int, help="stop after this many bit errors")
        sub.add_argument("--max-bits", type=int, help="hard cap on simulated bits")
        sub.add_argument(
            "--workers",
            type=int,
            help="grid cells simulated at a time, at most one per CPU, each running "
            "its chunks serially (default 1)",
        )


def _build_parser() -> _Parser:
    parser = _Parser(prog="coop-ostbc", description=__doc__.split("\n")[0])
    commands = parser.add_subparsers(dest="command", required=True)

    p_analytic = commands.add_parser(
        "analytic", help="closed-form BER grid (BPSK/QPSK, beta = 0)"
    )
    _add_grid_options(p_analytic, include_sim=False)
    p_analytic.set_defaults(func=cmd_analytic)

    p_sim = commands.add_parser("simulate", help="Monte Carlo BER grid")
    _add_grid_options(p_sim, include_sim=True)
    p_sim.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
