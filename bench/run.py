#!/usr/bin/env python3
"""Sweep benchmark for coop_ostbc: closed-loop BER sweeps through the public CLI.

Run from the repository root:

    python3 bench/run.py --workload qam16_4x2_w2 --seed 1 --seconds 50 --trace 0
    python3 bench/run.py --workload wide_low_snr_w2 --seed 1 --seconds 50 --trace 1
    python3 bench/run.py --workload wide_low_snr_w2 --seed 1 --seconds 2 --trace 0 --smoke

Load is a closed loop: one client runs one sweep after another, each as
``coop_ostbc.cli.main(["simulate", "--spec", ..., "--output", ...])`` in
this process, until ``--seconds`` have passed. The workload's grid and
``--seed`` are written into the spec. Every CSV is checked by
``checker.py``; ``attempted`` and ``failed`` in the result count grid
cells over all sweeps.

With ``--trace 0`` the result holds the end-to-end metrics. With
``--trace 1`` sweeps alternate untraced and traced (``spans.py``) and the
result holds the per-layer metrics, named ``<module>.<function>.<stat>``;
``.self_ms`` values and counts are per sweep. The last line of stdout is
the result as one JSON object; the lines before it report machine facts,
sample counts, percentiles and the CSV's sha256. ``--smoke`` shrinks every
grid to a few cells for a quick check.

The source under test is ``src/`` next to this directory; without it the
benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_MIN_SAMPLES = 7

# Grids and lengths of the workloads. Each stresses a different layer.
WORKLOADS = {
    # The fig3 grid on two workers: 4x2 dispersion and the 16-point
    # detector, chunks run in waves inside a point.
    "qam16_4x2_w2": {
        "schemes": ["ostbc_4x2"],
        "modulations": ["QAM16"],
        "gamma_db": [0, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20],
        "r_db": [0, 5],
        "beta": [0, 0.01, 0.05],
        "min_errors": 100,
        "max_bits": 1_200_000,
        "workers": 2,
    },
    # 144 cheap cells on two workers: nearly all stop in their first chunk,
    # so discarded wave chunks and per-cell overhead dominate. Its 2x1 cells
    # carry the Alamouti channel and estimation path. 48 of its cells
    # (BPSK/QPSK, beta = 0) have a reference BER.
    "wide_low_snr_w2": {
        "schemes": ["alamouti_2x1", "ostbc_4x2"],
        "modulations": ["BPSK", "QPSK", "QAM16"],
        "gamma_db": [0, 2, 4, 6],
        "r_db": [0, 5, 10],
        "beta": [0, 0.05],
        "min_errors": 100,
        "max_bits": 100_000_000,
        "workers": 2,
    },
}

# The child interpreter of the set-up measurement: it imports the package,
# parses the spec through the CLI and prints the monotonic clock at the
# first chunk, where it stops.
_SETUP_CHILD = r"""
import sys, time
sys.path.insert(0, sys.argv[1])
from coop_ostbc import cli, montecarlo

class FirstChunk(Exception):
    pass

def first_chunk(*args, **kwargs):
    raise FirstChunk(time.monotonic())

montecarlo._simulate_chunk = first_chunk
try:
    cli.main(["simulate", "--spec", sys.argv[2], "--output", sys.argv[3]])
except FirstChunk as reached:
    print(repr(reached.args[0]))
"""


class PackageMissing(Exception):
    pass


def load_package():
    """Import ``coop_ostbc`` from ``src/`` next to this directory, and nowhere else."""
    if not (SRC / "coop_ostbc" / "__init__.py").is_file():
        raise PackageMissing(f"no coop_ostbc package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import coop_ostbc
    from coop_ostbc import cli

    if not Path(coop_ostbc.__file__).resolve().is_relative_to(SRC):
        raise PackageMissing(f"coop_ostbc imported from {coop_ostbc.__file__}, not {SRC}")
    return cli


def smoke_spec(spec: dict) -> dict:
    """A few cells of ``spec`` with short stopping rules."""
    tiny = {k: (v[:2] if isinstance(v, list) else v) for k, v in spec.items()}
    tiny["r_db"] = spec["r_db"][:1]
    return dict(tiny, min_errors=20, max_bits=100_000)


def machine_facts() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def tail_summary(values, unit: str) -> str:
    """Median, the highest percentile with at least ten samples beyond it, and n."""
    n = len(values)
    text = f"median {statistics.median(values):.6g} {unit}" if n else "no samples"
    for q in (99.9, 99.0, 90.0, 50.0):
        if n * (1.0 - q / 100.0) >= 10:
            return f"{text}, p{q:g} {float(np.percentile(values, q)):.6g} {unit} (n={n})"
    return f"{text} (n={n}; no percentile has 10 samples beyond it)"


def measure_setup(spec_path: Path, out_path: Path) -> float:
    """Seconds from spawning a fresh interpreter to its first chunk."""
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-c", _SETUP_CHILD, str(SRC), str(spec_path), str(out_path)],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError(f"set-up child failed ({proc.returncode}): {proc.stderr.strip()}")
    return float(proc.stdout.split()[-1]) - start


def run_sweep(cli, spec_path: Path, out_path: Path):
    """One timed sweep; returns (seconds, CSV text or None if the sweep failed)."""
    if out_path.exists():
        out_path.unlink()
    start = time.perf_counter()
    try:
        code = cli.main(["simulate", "--spec", str(spec_path), "--output", str(out_path)])
    except Exception:  # a raising sweep fails all its cells; the loop goes on
        traceback.print_exc()
        code = None
    elapsed = time.perf_counter() - start
    if code != 0 or not out_path.exists():
        return elapsed, None
    return elapsed, out_path.read_text(encoding="utf-8")


def end_to_end_metrics(times, setup, bits) -> dict:
    return {
        "sweep_s": (statistics.median(times), "s"),
        "sim_mbit_s": (statistics.median(bits / t / 1e6 for t in times), "Mbit/s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer_metrics(summary: dict, totals: dict, chunks_computed: float,
                      csv_bytes: int, overhead: float) -> dict:
    self_s, calls, total_s = summary["self_s"], summary["calls"], summary["total_s"]

    def self_ms(name):
        return 1e3 * self_s.get(name, 0.0)

    def ostbc_ms(suffix):
        # Suffix match, so the Alamouti and 4x2 variants (alamouti_encode,
        # ostbc4_encode) and their successors count together.
        return 1e3 * sum(v for k, v in self_s.items()
                         if k.startswith("ostbc.") and k.rsplit(".", 1)[1].endswith(suffix))

    chunk_s = total_s.get(spans.CHUNK, 0.0)
    used = summary["chunks_used"]
    init_calls = calls.get("numerics.RngStream.__init__", 0)
    metrics = {
        "numerics.RngStream.normal_pairs.self_ms": (self_ms("numerics.RngStream.normal_pairs"), "ms"),
        "numerics.sample_circular_gaussian.self_ms": (self_ms("numerics.sample_circular_gaussian"), "ms"),
        "numerics.normals_per_chunk": (summary["normals"] / chunks_computed if chunks_computed else 0.0, "count"),
        "numerics.RngStream.bits.self_ms": (self_ms("numerics.RngStream.bits"), "ms"),
        "numerics.RngStream.__init__.us": (
            1e6 * self_s.get("numerics.RngStream.__init__", 0.0) / init_calls if init_calls else 0.0, "us"),
        "numerics.wilson_interval.calls": (calls.get("numerics.wilson_interval", 0), "count"),
        "ostbc.detect.self_ms": (ostbc_ms("detect"), "ms"),
        "ostbc.detect.symbols": (summary["symbols_detected"], "count"),
        "ostbc.detect.chunk_share": (ostbc_ms("detect") / (1e3 * chunk_s) if chunk_s else 0.0, "ratio"),
        "ostbc.modulate.self_ms": (ostbc_ms("modulate"), "ms"),
        "ostbc.encode.self_ms": (ostbc_ms("encode"), "ms"),
        "ostbc.transmit.self_ms": (ostbc_ms("transmit"), "ms"),
        "ostbc.combine.self_ms": (ostbc_ms("combine"), "ms"),
        "ostbc.effective_gain.self_ms": (ostbc_ms("effective_gain"), "ms"),
        "channel.sample_channel.self_ms": (self_ms("channel.sample_channel"), "ms"),
        "channel.estimate_channel.self_ms": (self_ms("channel.estimate_channel"), "ms"),
        "channel.sample_awgn.self_ms": (self_ms("channel.sample_awgn"), "ms"),
        "analytic.ber_closed_form.self_ms": (self_ms("analytic.ber_closed_form"), "ms"),
        "montecarlo.chunks_computed": (chunks_computed, "count"),
        "montecarlo.chunks_used": (used, "count"),
        "montecarlo.chunk_use_ratio": (used / chunks_computed if chunks_computed else 0.0, "ratio"),
        "montecarlo.worker_idle_s": (summary["worker_idle_s"], "s"),
        "montecarlo._simulate_chunk.ms_p50": (summary["chunk_ms_p50"], "ms"),
        "montecarlo._simulate_chunk.ms_p99": (summary["chunk_ms_p99"], "ms"),
        "montecarlo._simulate_chunk.self_ms": (self_ms(spans.CHUNK), "ms"),
        "montecarlo.cells": (totals["cells"], "count"),
        "montecarlo.cells_stopped_max_bits": (totals["cells_stopped_max_bits"], "count"),
        "montecarlo.bits": (totals["bits"], "count"),
        "montecarlo.errors": (totals["errors"], "count"),
        "cli.main.self_ms": (1e3 * (total_s.get("cli.main", 0.0)
                                    - total_s.get("montecarlo.run_sweep", 0.0)), "ms"),
        "cli.csv_bytes": (csv_bytes, "B"),
        "trace.overhead_ratio": (overhead, "ratio"),
        "trace.chunk_attributed_ratio": (
            sum(summary["chunk_self_s"].values()) / chunk_s if chunk_s else 0.0, "ratio"),
    }
    for module in ("numerics", "channel", "ostbc", "montecarlo"):
        metrics[f"{module}.self_ms_per_chunk"] = (
            1e3 * summary["chunk_self_s"].get(module, 0.0) / chunks_computed if chunks_computed else 0.0,
            "ms",
        )
    return metrics


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="a few cells per grid")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        cli = load_package()
    except PackageMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import checker  # imports coop_ostbc, so only once src/ is on the path

    spec = dict(WORKLOADS[args.workload], seed=args.seed)
    spec["workers"] = min(spec["workers"], os.cpu_count() or 1)
    warm = smoke_spec(spec)
    if args.smoke:
        spec = warm
    ledger = checker.Ledger(spec)
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        tmp = Path(tmp)
        spec_path, warm_path, out_path = tmp / "spec.json", tmp / "warm.json", tmp / "sweep.csv"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        warm_path.write_text(json.dumps(warm), encoding="utf-8")

        run_sweep(cli, warm_path, out_path)  # fills lazy caches before timing

        tracer = spans.Tracer() if args.trace else None
        setup, times, traced_times = [], [], []
        start = time.perf_counter()
        while not times or time.perf_counter() - start < args.seconds:
            if tracer is None:
                # One set-up sample per sweep spreads them over the run, whose
                # machine speed drifts; set-up is not timed in traced runs.
                setup.append(measure_setup(spec_path, out_path))
            elapsed, text = run_sweep(cli, spec_path, out_path)
            times.append(elapsed)
            ledger.record(text)
            if tracer is not None:
                tracer.sweep = len(traced_times)
                tracer.install()
                try:
                    elapsed, text = run_sweep(cli, spec_path, out_path)
                finally:
                    tracer.uninstall()
                traced_times.append(elapsed)
                ledger.record(text)

        while tracer is None and len(setup) < SETUP_MIN_SAMPLES:
            setup.append(measure_setup(spec_path, out_path))

    text = ledger.first_text
    totals = checker.totals(text, spec)
    csv_bytes = len(text.encode("utf-8")) if text else 0
    if args.trace:
        summary = spans.summarize(tracer.spans, len(traced_times), spec["workers"])
        overhead = statistics.median(traced_times) / statistics.median(times) - 1.0
        metrics = per_layer_metrics(summary, totals, tracer.chunks_computed / len(traced_times),
                                    csv_bytes, overhead)
        spans.write_spans(OUT / f"{args.workload}.spans.jsonl", tracer.spans)
    else:
        metrics = end_to_end_metrics(times, setup, totals["bits"])

    print("machine " + json.dumps(machine_facts()))
    print(f"workload {args.workload} seed {args.seed} workers {spec['workers']} "
          f"cells {len(checker.grid_cells(spec))} sweeps {len(times)} traced {len(traced_times)}")
    print("csv_sha256 " + (hashlib.sha256(text.encode("utf-8")).hexdigest() if text else "none"))
    print("sweep_s " + tail_summary(times, "s"))
    if traced_times:
        print("traced sweep_s " + tail_summary(traced_times, "s"))
        print("montecarlo._simulate_chunk.ms " + tail_summary(summary["chunk_ms"], "ms"))
    if setup:
        print("setup_s " + tail_summary(setup, "s"))
    print(f"cells_failed_ratio {ledger.failed}/{ledger.attempted}")
    for reason in ledger.reasons[:20]:
        print("failed " + reason, file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
