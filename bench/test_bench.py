"""Tests of the benchmark itself, on tiny grids.

Run from the repository root:

    python3 -m unittest discover -s bench -v
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import run

CLI = run.load_package()

import checker  # noqa: E402  (needs the package path set by load_package)
import spans  # noqa: E402
from coop_ostbc import montecarlo, numerics  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(list(argv))
    return code, json.loads(out.getvalue().strip().splitlines()[-1])


def _sweep(spec, tracer=None):
    """Run one sweep of ``spec``; returns its CSV text."""
    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        spec_path, out_path = Path(tmp) / "spec.json", Path(tmp) / "sweep.csv"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        if tracer is not None:
            tracer.install()
        try:
            _, text = run.run_sweep(CLI, spec_path, out_path)
        finally:
            if tracer is not None:
                tracer.uninstall()
    return text


def _smoke(workload, seed):
    return run.smoke_spec(dict(run.WORKLOADS[workload], seed=seed))


class ResultTest(unittest.TestCase):
    def test_workloads_match_benchmark_json(self):
        self.assertEqual({w["name"] for w in BENCHMARK["workloads"]}, set(run.WORKLOADS))

    def test_every_listed_metric_is_printed_with_its_unit(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, result = _bench("--workload", "wide_low_snr_w2", "--seed", "3",
                                  "--seconds", "0.1", "--trace", str(trace), "--smoke")
            self.assertEqual(code, 0)
            self.assertTrue(result["correct"])
            self.assertEqual(result["failed"], 0)
            self.assertGreaterEqual(result["attempted"], 1)
            want = {m["name"]: m["unit"] for m in BENCHMARK[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            self.assertEqual(got, want)

    def test_exits_non_zero_without_the_source(self):
        run.OUT.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
            shutil.copytree(Path(run.__file__).parent, Path(tmp) / "bench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", "qam16_4x2_w2",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=60,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


class TraceTest(unittest.TestCase):
    def test_traced_csv_is_byte_identical_and_self_times_add_up(self):
        spec = _smoke("qam16_4x2_w2", 5)  # two workers: spans on pool threads
        plain = _sweep(spec)
        tracer = spans.Tracer()
        traced = _sweep(spec, tracer)
        self.assertIsNotNone(plain)
        self.assertEqual(plain, traced)
        self.assertIs(montecarlo._simulate_chunk, montecarlo.__dict__["_simulate_chunk"])
        self.assertFalse(hasattr(montecarlo._simulate_chunk, "__wrapped__"))

        summary = spans.summarize(tracer.spans, 1, spec["workers"])
        chunk_s = summary["total_s"][spans.CHUNK]
        self.assertEqual(summary["calls"][spans.CHUNK], tracer.chunks_computed)
        self.assertAlmostEqual(sum(summary["chunk_self_s"].values()) / chunk_s, 1.0, places=9)
        # Gaussians are drawn through names imported into channel and montecarlo.
        self.assertGreater(summary["calls"]["numerics.sample_circular_gaussian"], 0)
        self.assertGreater(summary["normals"], 0)

    def test_a_removed_name_is_skipped(self):
        saved = numerics.__all__
        numerics.__all__ = saved + ["removed_by_a_refactor"]
        try:
            tracer = spans.Tracer()
            tracer.install()
            tracer.uninstall()
        finally:
            numerics.__all__ = saved


class CheckerTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.spec = _smoke("wide_low_snr_w2", 7)
        cls.text = _sweep(cls.spec)

    def _mutated(self, pick, change):
        """The CSV with ``change`` applied to the first row ``pick`` accepts; and its cell."""
        records = list(csv.reader(io.StringIO(self.text)))
        for record in records[1:]:
            row = dict(zip(checker.CSV_HEADER, record))
            if pick(row):
                change(row)
                record[:] = [row[k] for k in checker.CSV_HEADER]
                cell = (row["scheme"], row["modulation"], float(row["r_db"]),
                        float(row["beta"]), float(row["snr_db"]))
                break
        else:
            self.fail("no row to mutate")
        out = io.StringIO()
        csv.writer(out, lineterminator="\n").writerows(records)
        return out.getvalue(), cell

    @staticmethod
    def _set_errors(row, errors):
        row["errors"] = str(errors)
        row["ber_sim"] = f"{errors / int(row['bits']):.12e}"
        row["ci_lo"], row["ci_hi"] = f"{0.0:.12e}", f"{1.0:.12e}"

    def _failures(self, text):
        attempted, failures = checker.check_csv(text, self.spec)
        self.assertEqual(attempted, len(checker.grid_cells(self.spec)))
        return failures

    def test_clean_csv_passes(self):
        self.assertEqual(checker.check_csv(self.text, self.spec, self.text)[1], {})

    def test_shifted_ber_misses_its_reference(self):
        for scheme in ("alamouti_2x1", "ostbc_4x2"):
            text, cell = self._mutated(
                lambda r: r["scheme"] == scheme and r["beta"] == "0" and r["modulation"] != "QAM16",
                lambda r: self._set_errors(r, 2 * int(r["errors"])),
            )
            failures = self._failures(text)
            self.assertEqual(list(failures), [cell])
            self.assertTrue(failures[cell][0].startswith("misses reference"), failures)

    def test_broken_stop_rule(self):
        text, cell = self._mutated(
            lambda r: r["beta"] != "0",
            lambda r: self._set_errors(r, self.spec["min_errors"] - 1),
        )
        self.assertEqual(self._failures(text)[cell], ["stop rule: neither min_errors nor max_bits reached"])

    def test_wrong_seed(self):
        text, cell = self._mutated(lambda r: True, lambda r: r.update(seed=str(int(r["seed"]) + 1)))
        self.assertEqual(self._failures(text), {cell: ["seed != derive_seed"]})

    def test_row_that_differs_from_the_first_csv(self):
        text, cell = self._mutated(lambda r: True, lambda r: r.update(seed=str(int(r["seed"]) + 1)))
        attempted, failures = checker.check_csv(self.text, self.spec, text)
        self.assertEqual(failures, {cell: ["differs from the first CSV of this run"]})

    def test_a_failed_sweep_fails_every_cell(self):
        ledger = checker.Ledger(self.spec)
        ledger.record(self.text)
        ledger.record(None)
        cells = len(checker.grid_cells(self.spec))
        self.assertEqual((ledger.attempted, ledger.failed), (2 * cells, cells))

    def test_missing_row(self):
        lines = self.text.splitlines(keepends=True)
        failures = self._failures("".join(lines[:-1]))
        self.assertEqual(list(failures.values()), [["row missing"]])


if __name__ == "__main__":
    unittest.main()
