import csv
import json

import pytest

from coop_ostbc import cli, montecarlo


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def run(argv):
    return cli.main(argv)


# --- analytic ------------------------------------------------------------------


def test_analytic_known_value(tmp_path):
    out = tmp_path / "analytic.csv"
    rc = run(
        [
            "analytic",
            "--modulation",
            "BPSK",
            "--r-db",
            "0",
            "--gamma-db",
            "10",
            "--output",
            str(out),
        ]
    )
    assert rc == 0
    rows = read_csv(out)
    assert len(rows) == 1
    assert float(rows[0]["ber_analytic"]) == pytest.approx(5.528246696725031e-3, rel=1e-9)
    assert rows[0]["ber_sim"] == ""
    assert rows[0]["bits"] == ""


def test_analytic_header_is_pinned(tmp_path):
    out = tmp_path / "analytic.csv"
    assert run(["analytic", "--gamma-db", "0,5", "--output", str(out)]) == 0
    with open(out) as fh:
        header = fh.readline().strip()
    assert header == (
        "scheme,modulation,r_db,beta,snr_db,ber_analytic,ber_sim,"
        "ci_lo,ci_hi,bits,errors,seed"
    )


def test_analytic_requires_snr_grid(capsys):
    assert run(["analytic", "--modulation", "BPSK"]) == 1
    assert "gamma" in capsys.readouterr().err.lower()


def test_analytic_normalizes_unordered_grid(tmp_path, capsys):
    out = tmp_path / "a.csv"
    rc = run(["analytic", "--gamma-db", "10,0,5", "--output", str(out)])
    assert rc == 0
    assert "normalizing" in capsys.readouterr().err
    snrs = [float(r["snr_db"]) for r in read_csv(out)]
    assert snrs == sorted(snrs)


def test_analytic_rejects_qam16(capsys):
    rc = run(["analytic", "--modulation", "QAM16", "--gamma-db", "10"])
    assert rc == 1
    assert "simulate" in capsys.readouterr().err


def test_analytic_rejects_estimation_errors(capsys):
    rc = run(["analytic", "--gamma-db", "10", "--beta", "0.1"])
    assert rc == 1
    assert "simulate" in capsys.readouterr().err


# --- simulate -------------------------------------------------------------------


SIM_ARGS = [
    "simulate",
    "--modulation",
    "QPSK",
    "--gamma-db",
    "4",
    "--r-db",
    "0",
    "--seed",
    "9",
    "--min-errors",
    "50",
    "--max-bits",
    "200000",
]


def test_simulate_single_cell(tmp_path):
    out = tmp_path / "sim.csv"
    assert run(SIM_ARGS + ["--output", str(out)]) == 0
    rows = read_csv(out)
    assert len(rows) == 1
    row = rows[0]
    assert row["scheme"] == "alamouti_2x1"
    assert int(row["errors"]) >= 50
    assert float(row["ci_lo"]) <= float(row["ber_sim"]) <= float(row["ci_hi"])
    assert float(row["ber_analytic"]) > 0.0


def test_simulate_is_byte_reproducible(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert run(SIM_ARGS + ["--output", str(a)]) == 0
    assert run(SIM_ARGS + ["--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_simulate_io_failure_returns_3_and_leaves_no_partial(tmp_path, capsys):
    missing_dir = tmp_path / "no" / "such" / "dir" / "out.csv"
    rc = run(SIM_ARGS + ["--output", str(missing_dir)])
    assert rc == 3
    assert not missing_dir.exists()


def test_simulate_spec_file_with_flag_override(tmp_path):
    spec = {
        "modulations": ["QPSK"],
        "gamma_db": [0.0],
        "r_db": [0.0],
        "beta": [0.0],
        "seed": 9,
        "min_errors": 50,
        "max_bits": 200000,
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    out = tmp_path / "out.csv"
    rc = run(
        ["simulate", "--spec", str(spec_path), "--gamma-db", "4", "--output", str(out)]
    )
    assert rc == 0
    rows = read_csv(out)
    assert [float(r["snr_db"]) for r in rows] == [4.0]


def test_simulate_workers_do_not_change_bytes(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert run(SIM_ARGS + ["--output", str(a), "--workers", "1"]) == 0
    assert run(SIM_ARGS + ["--output", str(b), "--workers", "3"]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_unknown_scheme_is_usage_error(capsys):
    rc = run(["simulate", "--scheme", "mimo_9x9", "--gamma-db", "0"])
    assert rc == 1


def test_analytic_and_simulate_share_the_row_format(tmp_path):
    grid = ["--modulation", "BPSK,QPSK", "--r-db", "0,10", "--gamma-db", "0,6", "--beta", "0"]
    a, s = tmp_path / "a.csv", tmp_path / "s.csv"
    assert run(["analytic"] + grid + ["--output", str(a)]) == 0
    assert run(["simulate"] + grid + ["--seed", "3", "--min-errors", "20",
                                      "--max-bits", "20000", "--output", str(s)]) == 0
    with a.open(newline="") as fa, s.open(newline="") as fs:
        analytic_rows, sim_rows = list(csv.reader(fa)), list(csv.reader(fs))
    assert len(analytic_rows) == len(sim_rows) == 1 + 2 * 2 * 2
    assert [r[:6] for r in analytic_rows] == [r[:6] for r in sim_rows]
    for row in analytic_rows[1:]:
        assert row[6:] == [""] * 6
    for row in sim_rows[1:]:
        assert all(row[6:])


def test_each_simulated_row_is_labelled_by_the_sweep_seed_and_its_own_fields(tmp_path):
    # The seed column labels a row: the sweep seed mixed with the row's
    # scheme, modulation, r_db, beta and SNR, as floats. It is not the curve
    # seed, which the cells of a curve share and which keys their draws.
    out = tmp_path / "s.csv"
    assert run(["simulate", "--scheme", "alamouti_2x1,ostbc_4x2", "--modulation", "BPSK,QPSK",
                "--r-db", "0,10", "--beta", "0,0.05", "--gamma-db", "0,6", "--seed", "3",
                "--min-errors", "1", "--max-bits", "2000", "--output", str(out)]) == 0
    rows = read_csv(out)
    assert len(rows) == 2**5
    for row in rows:
        assert int(row["seed"]) == montecarlo.derive_seed(
            3, row["scheme"], row["modulation"], float(row["r_db"]), float(row["beta"]),
            float(row["snr_db"]))
    assert len({row["seed"] for row in rows}) == len(rows)


# --- spec validation --------------------------------------------------------------


@pytest.fixture
def no_compute(monkeypatch):
    """Fail the test if any chunk is simulated."""

    def chunk(*args):
        raise AssertionError("a chunk was simulated")

    monkeypatch.setattr(montecarlo, "_simulate_chunk", chunk)


def test_analytic_does_not_read_the_simulation_keys(tmp_path, capsys, no_compute):
    # analytic simulates nothing, so the stopping rule and the worker count
    # of a shared spec file are neither read nor checked.
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"gamma_db": [0], "workers": 0, "min_errors": 0,
                                "max_bits": 0}))
    assert run(["analytic", "--spec", str(path), "--output", str(tmp_path / "a.csv")]) == 0
    assert run(["simulate", "--spec", str(path)]) == 1
    assert "workers must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "spec, message",
    [
        ({"modulation": "BPSK", "gamma_db": [4]}, "unknown key(s) modulation"),
        ({"gamma_db": "abc"}, "gamma_db must be a list of numbers"),
        ({"gamma_db": [4], "r_db": 10}, "r_db must be a list of numbers"),
        ({"gamma_db": [float("nan")]}, "gamma_db must be finite"),
        ({"gamma_db": [4], "r_db": [float("inf")]}, "r_db must be finite"),
        ({"gamma_db": [4], "beta": [float("nan")]}, "beta must be finite"),
        ({"gamma_db": [3100]}, "gamma_db must be finite"),
        ({"gamma_db": [4], "r_db": [-4000]}, "r_db must be finite"),
        ({"gamma_db": [4], "modulations": [5]}, "unknown modulation 5"),
        ({"gamma_db": [4], "schemes": ["alamouti_2x1", 5]}, "unknown scheme 5"),
        ({"gamma_db": [4], "schemes": None}, "schemes must be a name or a list of names"),
        ({"gamma_db": [4], "modulations": 5}, "modulations must be a name or a list of names"),
        ({"gamma_db": [4], "workers": 0}, "workers must be >= 1"),
        ({"gamma_db": [4], "seed": 1.7}, "seed must be an integer"),
        ({"gamma_db": [4], "workers": 2.5}, "workers must be an integer"),
        ({"gamma_db": [4], "output": 5}, "output must be a path string"),
        ({"gamma_db": [4], "output": True}, "output must be a path string"),
        ({"gamma_db": [True]}, "gamma_db must be a list of numbers"),
        ({"gamma_db": ["4"]}, "gamma_db must be a list of numbers"),
        ({"gamma_db": [4], "workers": True}, "workers must be an integer"),
        ({"gamma_db": [4], "seed": "7"}, "seed must be an integer"),
        ({"gamma_db": [4], "max_bits": "2000"}, "max_bits must be an integer"),
    ],
    ids=["unknown-key", "string-grid", "scalar-grid", "nan-gamma", "inf-r", "nan-beta",
         "overflowing-gamma", "underflowing-r", "number-modulation", "number-scheme",
         "null-schemes", "scalar-modulations",
         "zero-workers", "fractional-seed", "fractional-workers", "number-output",
         "bool-output", "bool-grid", "string-in-grid", "bool-workers", "string-seed",
         "string-max-bits"],
)
def test_bad_spec_file_is_usage_error_before_any_compute(tmp_path, capsys, no_compute,
                                                         spec, message):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert run(["simulate", "--spec", str(path)]) == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "analytic"])
@pytest.mark.parametrize("key", ["gamma_db", "r_db", "beta"])
def test_spec_integer_too_large_for_a_float_is_usage_error(tmp_path, capsys, no_compute,
                                                           command, key):
    # 10**400 is written as a JSON integer; as 1e400 it would parse as inf.
    spec = {"gamma_db": [4], key: [10**400]}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert run([command, "--spec", str(path)]) == 1
    assert f"{key} holds an integer too large for a float" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags",
    [
        ["--gamma-db", "nan"],
        ["--gamma-db", "4", "--r-db", "inf"],
        ["--gamma-db", "4", "--beta", "nan"],
        ["--gamma-db", "4", "--workers", "0"],
        ["--gamma-db", "4", "--min-errors", "0"],
        ["--gamma-db", "4", "--modulation", "BPSK,QAM16", "--max-bits", "2"],
        ["--gamma-db", "3100"],
        ["--gamma-db", "-3300"],
        ["--gamma-db", "4", "--r-db", "4000"],
        ["--gamma-db", "4", "--r-db", "-4000"],
        ["--gamma-db", "0:inf:1"],
        ["--gamma-db", "inf:0:1"],
        ["--gamma-db", "0:1:1e-320"],
        ["--gamma-db", "0:10:inf"],
    ],
    ids=["nan-gamma", "inf-r", "nan-beta", "zero-workers", "zero-min-errors",
         "max-bits-below-a-symbol", "overflowing-gamma", "underflowing-gamma",
         "overflowing-r", "underflowing-r", "infinite-stop", "infinite-start",
         "subnormal-step", "infinite-step"],
)
def test_bad_flag_value_is_usage_error_before_any_compute(no_compute, flags):
    assert run(["simulate"] + flags) == 1


def test_bad_range_token_is_named_in_the_error(capsys, no_compute):
    for token in ("0:inf:1", "inf:0:1", "0:1:1e-320", "0:10:inf"):
        assert run(["simulate", "--gamma-db", token]) == 1
        assert f"range {token!r} needs a finite step > 0" in capsys.readouterr().err
    # A token of more values than any sweep could hold is refused before it
    # is expanded, by both commands.
    for command in ("analytic", "simulate"):
        assert run([command, "--gamma-db", "0:1e12:1"]) == 1
        assert "range '0:1e12:1' has more than 1000000 values" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["analytic", "simulate"])
def test_a_grid_of_too_many_cells_is_refused_before_it_is_built(monkeypatch, capsys,
                                                                command):
    # Each token holds at most 10**6 values, but together they describe 10**9
    # cells; the count is refused before a single cell is made.
    def sweep_points(*args, **kwargs):
        raise AssertionError("the grid was built")

    monkeypatch.setattr(cli, "sweep_points", sweep_points)
    assert run([command, "--gamma-db", "0:999999:1", "--r-db", "0:999:1"]) == 1
    assert "the grid has 1000000000 cells, more than 1000000" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["analytic", "simulate"])
def test_a_grid_of_too_many_cells_is_refused_before_any_range_is_expanded(monkeypatch,
                                                                          capsys, command):
    # One token of 999,999 values and a list of two: the grid is refused from
    # the tokens' value counts, before a single value of the range is made.
    expanded = []

    def counting_expand(values):
        expanded.append(values)
        return real_expand(values)

    real_expand = cli._expand
    monkeypatch.setattr(cli, "_expand", counting_expand)
    assert run([command, "--gamma-db", "0:999999:1", "--r-db", "0,1"]) == 1
    assert "the grid has 2000000 cells, more than 1000000" in capsys.readouterr().err
    assert expanded == []
    # A grid within the bound has each of its three axes expanded once.
    monkeypatch.setattr(cli, "sweep_points", lambda *args, **kwargs: ())
    assert run([command, "--gamma-db", "0:9:1", "--r-db", "0"]) == 0
    assert len(expanded) == 3


@pytest.mark.parametrize(
    "flags",
    [
        ["--gamma-db", "-3300"],
        ["--gamma-db", "4", "--r-db", "4000"],
        ["--gamma-db", "4", "--r-db", "-3240"],
    ],
    ids=["underflowing-gamma", "overflowing-r", "underflowing-r"],
)
def test_analytic_rejects_db_out_of_float_range(capsys, flags):
    assert run(["analytic"] + flags) == 1
    assert "must be finite in dB and in linear units" in capsys.readouterr().err


# From the bottom of the accepted range (-3236 dB is the smallest subnormal,
# 5e-324) to the top of the float range.
EXTREME_DB = "-3236,-3200,-3000,-300,0,300,3000,3080"


def test_analytic_covers_the_whole_accepted_db_range(tmp_path):
    out = tmp_path / "extreme.csv"
    argv = ["analytic", "--modulation", "BPSK,QPSK", f"--gamma-db={EXTREME_DB}",
            f"--r-db={EXTREME_DB}", "--output", str(out)]
    assert run(argv) == 0
    rows = read_csv(out)
    assert len(rows) == 2 * 8 * 8
    assert all(0.0 <= float(row["ber_analytic"]) <= 0.5 for row in rows)


def test_simulate_fills_the_closed_form_at_extreme_imbalance(tmp_path):
    out = tmp_path / "sim.csv"
    argv = ["simulate", "--modulation", "BPSK", "--gamma-db", "0", "--r-db", "3080",
            "--max-bits", "1000", "--output", str(out)]
    assert run(argv) == 0
    (row,) = read_csv(out)
    assert 0.0 < float(row["ber_analytic"]) < 0.5


@pytest.mark.parametrize(
    "flags, cell",
    [(["--scheme", "ostbc_4x2"], "ostbc_4x2 QPSK r=0dB beta=0"),
     (["--modulation", "QAM16"], "alamouti_2x1 QAM16 r=0dB beta=0"),
     (["--r-db", "0,3", "--beta", "0,0.1"], "alamouti_2x1 QPSK r=0dB beta=0.1")],
    ids=["ostbc_4x2", "QAM16", "beta"],
)
def test_closed_form_commands_reject_ostbc_4x2(capsys, flags, cell):
    # The refusal names the first cell without a closed form and the domain
    # of the closed form, not only one of the reasons a cell may fall outside it.
    assert run(["analytic", *flags, "--gamma-db", "0,5"]) == 1
    assert capsys.readouterr().err == (
        f"error: no closed form for {cell}: it covers alamouti_2x1 with BPSK or QPSK at "
        f"beta = 0; use 'simulate' for it\n"
    )


# --- reports on stderr ------------------------------------------------------------


QPSK_GRID = ["--modulation", "QPSK", "--gamma-db", "0:24:2", "--r-db", "0,10"]


@pytest.mark.parametrize(
    "argv, report_line",
    [(["analytic", *QPSK_GRID], "r=10dB: high-SNR imbalance penalty against r=0dB 2.404 dB"),
     (["simulate", *QPSK_GRID, "--seed", "4", "--min-errors", "50"], "coverage: ")],
    ids=["analytic", "simulate"],
)
def test_stdout_is_the_output_csv_and_the_report_goes_to_stderr(tmp_path, capsys, argv,
                                                                report_line):
    out = tmp_path / "out.csv"
    assert run(argv + ["--output", str(out)]) == 0
    to_file = capsys.readouterr()
    assert run(argv) == 0
    to_stdout = capsys.readouterr()
    assert to_file.out == ""
    assert to_stdout.out.encode() == out.read_bytes()
    assert to_stdout.err == to_file.err
    assert report_line in to_stdout.err
    assert report_line not in to_stdout.out


def test_simulate_reports_coverage(tmp_path, capsys):
    out = tmp_path / "sim.csv"
    rc = run(["simulate", *QPSK_GRID, "--seed", "4", "--min-errors", "100",
              "--output", str(out)])
    assert rc == 0
    err = capsys.readouterr().err
    (coverage,) = [ln for ln in err.splitlines() if ln.startswith("coverage: ")]
    assert coverage.endswith(f"of the {2 * 13} cells with a closed form whose 95% CI holds it")
    assert "diversity order" not in err
    assert "imbalance penalty" not in err
    rows = read_csv(out)
    assert len(rows) == 2 * len(range(0, 25, 2))


def test_simulate_names_each_cell_whose_interval_misses_the_closed_form(capsys):
    # With this seed and short stopping rule one of the 26 intervals misses;
    # the report's lines are checked against the CSV's own columns. The 26
    # cells are one curve, so their misses come together: over sweep seeds
    # 5000-5399, 19.0% of seeds give exactly one miss (25.75% while each r
    # was a curve of its own) at a mean of 1.37 misses (1.23), 5.3% of the
    # cells. Seed 8 gave one miss on the stream of one curve per r and six
    # on this one; 30 is the first seed after it that gives one.
    grid = ["simulate", *QPSK_GRID, "--seed", "30", "--min-errors", "20", "--max-bits",
            "40000"]
    assert run(grid) == 0
    captured = capsys.readouterr()
    rows = list(csv.DictReader(captured.out.splitlines()))
    missed = [r for r in rows if not float(r["ci_lo"]) <= float(r["ber_analytic"])
              <= float(r["ci_hi"])]
    lines = captured.err.splitlines()
    named = [ln for ln in lines if " not in [" in ln]
    assert len(named) == len(missed) == 1
    for row, line in zip(missed, named):
        assert line.startswith(f"  alamouti_2x1 QPSK r={row['r_db']}dB beta=0 "
                               f"snr={row['snr_db']}dB  analytic=")
    assert lines[0] == (f"coverage: {(len(rows) - len(missed)) / len(rows):.3f}, the share "
                        f"of the {len(rows)} cells with a closed form whose 95% CI holds it")


def test_simulate_names_the_cells_that_stop_below_min_errors(capsys):
    grid = ["--modulation", "QPSK", "--gamma-db", "0,20", "--r-db", "0", "--seed", "4",
            "--min-errors", "100", "--max-bits", "20000"]
    assert run(["simulate", *grid]) == 0
    lines = capsys.readouterr().err.splitlines()
    assert "cells stopped at max_bits below min_errors: 1" in lines
    short = [ln for ln in lines if "< 100 errors in 20000 bits" in ln]
    assert len(short) == 1
    assert short[0].startswith("  alamouti_2x1 QPSK r=0dB beta=0 snr=20dB  ")


def test_distinct_grid_values_print_as_distinct_values(tmp_path, capsys):
    # Both cells stop short of min_errors, so the report names each of them.
    out = tmp_path / "a.csv"
    assert run(["simulate", "--modulation", "BPSK", "--gamma-db", "10,10.0000001",
                "--max-bits", "20000", "--min-errors", "1000", "--output", str(out)]) == 0
    assert [row["snr_db"] for row in read_csv(out)] == ["10", "10.0000001"]
    short = [ln for ln in capsys.readouterr().err.splitlines() if " < 1000 errors " in ln]
    assert [ln.split()[4] for ln in short] == ["snr=10dB", "snr=10.0000001dB"]


def test_simulate_reports_a_grid_without_closed_form(tmp_path, capsys):
    # The fig3 configuration: no cell has a closed form, and the 20 dB cells
    # stop at this max_bits short of min_errors.
    out = tmp_path / "fig3.csv"
    rc = run(["simulate", "--scheme", "ostbc_4x2", "--modulation", "QAM16", "--gamma-db",
              "0,20", "--r-db", "0", "--beta", "0,0.01", "--seed", "3", "--min-errors", "100",
              "--max-bits", "60000", "--output", str(out)])
    assert rc == 0
    lines = capsys.readouterr().err.splitlines()
    assert lines[0] == "coverage: not computable, no cell of this grid has a closed form"
    assert "nan" not in lines[0]
    short = {ln.split("  ")[1] for ln in lines if "< 100 errors in" in ln}
    rows = read_csv(out)
    expected = {f"ostbc_4x2 QAM16 r=0dB beta={r['beta']} snr={r['snr_db']}dB"
                for r in rows if int(r["errors"]) < 100}
    assert short == expected
    assert {"ostbc_4x2 QAM16 r=0dB beta=0 snr=20dB"} <= short
    assert f"cells stopped at max_bits below min_errors: {len(short)}" in lines


ORDER_LINE = "alamouti_2x1: diversity order 2 = n_tx 2 x n_rx 1, at every r"


def penalty_line(r_db: str, value: str) -> str:
    return f"r={r_db}dB: high-SNR imbalance penalty against r=0dB {value} dB"


def test_analytic_reports_the_diversity_order_and_the_penalty_of_each_r(capsys):
    assert run(["analytic", "--modulation", "QPSK", "--gamma-db", "0:24:2",
                "--r-db", "10,0,-10"]) == 0
    assert capsys.readouterr().err.splitlines() == [
        ORDER_LINE,
        penalty_line("-10", "2.404"),
        penalty_line("0", "0.000"),
        penalty_line("10", "2.404"),
    ]


@pytest.mark.parametrize("gamma_db", ["0,2", "0,3000"], ids=["no-crossing", "underflow"])
def test_analytic_report_does_not_depend_on_the_snr_grid(capsys, gamma_db):
    # Neither grid brackets BER 1e-2, and at 3000 dB the closed form
    # underflows to 0; the report holds the exact values all the same.
    rc = run(["analytic", "--modulation", "QPSK", "--gamma-db", gamma_db, "--r-db", "0,10"])
    assert rc == 0
    assert capsys.readouterr().err.splitlines() == [
        ORDER_LINE, penalty_line("0", "0.000"), penalty_line("10", "2.404")]


def test_analytic_prints_one_line_per_r_and_per_scheme(capsys):
    rc = run(["analytic", "--modulation", "qpsk,QPSK,BPSK", "--gamma-db", "0,2",
              "--r-db", "-200,0,-200.0"])
    assert rc == 0
    assert capsys.readouterr().err.splitlines() == [
        ORDER_LINE, penalty_line("-200", "96.990"), penalty_line("0", "0.000")]


def test_analytic_reports_the_penalty_at_both_ends_of_the_r_range(capsys):
    # At -3236 dB the linear r is subnormal, 4.9e-324, which is -3233.06 dB;
    # a penalty taken from it would read 1613.521 dB.
    rc = run(["analytic", "--modulation", "BPSK", "--gamma-db", "10", "--r-db", "-3236,3080"])
    assert rc == 0
    assert capsys.readouterr().err.splitlines() == [
        ORDER_LINE, penalty_line("-3236", "1614.990"), penalty_line("3080", "1536.990")]


def test_missing_input_is_io_error(tmp_path, capsys):
    for command in ("simulate", "analytic"):
        assert run([command, "--spec", str(tmp_path / "nope.json")]) == 3
        assert "i/o error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["validate", "plotdata"])
def test_removed_command_is_usage_error(capsys, command):
    assert run([command, "--gamma-db", "0"]) == 1
    assert "invalid choice" in capsys.readouterr().err


def test_help_lists_two_commands(capsys):
    with pytest.raises(SystemExit):
        run(["--help"])
    out = capsys.readouterr().out
    assert "{analytic,simulate}" in out


# --- misc ----------------------------------------------------------------------


def test_bad_flag_is_usage_error(capsys):
    assert run(["simulate", "--gamma-db", "abc"]) == 1


@pytest.mark.parametrize(
    "flag, value, rc",
    [("--r-db", "-10,0", 0), ("--r-db", "-10:0:5", 0), ("--gamma-db", "-1e1", 0),
     ("--beta", "-0.5,0", 1)],
    ids=["negative-list", "negative-range", "negative-exponent", "negative-beta"],
)
def test_grid_value_with_leading_minus_parses_in_both_forms(tmp_path, capsys, flag, value,
                                                            rc):
    base = ["analytic", "--gamma-db", "0", "--r-db", "0"]
    spaced, joined = tmp_path / "spaced.csv", tmp_path / "joined.csv"
    assert run(base + [flag, value, "--output", str(spaced)]) == rc
    err = capsys.readouterr().err
    assert run(base + [f"{flag}={value}", "--output", str(joined)]) == rc
    assert capsys.readouterr().err == err
    if rc == 0:
        assert spaced.read_bytes() == joined.read_bytes()
    else:  # refused by the beta check, not by the parser
        assert "beta must be finite and >= 0" in err


@pytest.mark.parametrize("flag", ["--r-db", "--gamma-db", "--beta"])
def test_minus_zero_and_zero_are_one_cell_with_one_seed(tmp_path, capsys, flag):
    # -0 and 0 name one cell, so they must give it one seed and one CSV
    # value, whichever spelling the grid lists and in whatever order.
    base = ["simulate", "--modulation", "BPSK", "--gamma-db", "4", "--r-db", "0",
            "--beta", "0", "--max-bits", "20000"]
    variants = [[f"{flag}=-0"], [f"{flag}=-0,0"], [f"{flag}=0,-0"], [flag, "0"]]
    csvs = []
    for i, variant in enumerate(variants):
        out = tmp_path / f"{i}.csv"
        assert run(base + variant + ["--output", str(out)]) == 0
        csvs.append(out.read_bytes())
    assert csvs == [csvs[-1]] * len(variants)
    assert b",-0," not in csvs[-1]


def test_range_syntax_expands_inclusively(tmp_path):
    out = tmp_path / "a.csv"
    assert run(["analytic", "--gamma-db", "0:20:5", "--output", str(out)]) == 0
    snrs = [float(r["snr_db"]) for r in read_csv(out)]
    assert snrs == [0.0, 5.0, 10.0, 15.0, 20.0]
    # A decimal step gives the values of the decimal list, so the cells have
    # the SNRs and seeds that the list gives them (0.3 dB, not
    # 0.30000000000000004 dB).
    listed = ",".join(["0"] + [f"0.{i}" for i in range(1, 10)] + ["1"])
    for command in (["analytic"], ["simulate", "--max-bits", "1000"]):
        csvs = []
        for gamma_db in ("0:1:0.1", listed):
            out = tmp_path / f"{command[0]}{len(csvs)}.csv"
            assert run(command + ["--modulation", "BPSK", "--r-db", "0", "--beta", "0",
                                  "--gamma-db", gamma_db, "--output", str(out)]) == 0
            csvs.append(out.read_bytes())
        assert csvs[0] == csvs[1]
        assert [r["snr_db"] for r in read_csv(out)] == listed.split(",")
