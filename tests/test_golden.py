"""Golden pin: a small fixed-seed sweep rebuilt through the CLI, byte for byte.

The grid covers both schemes, all three modulations, beta in {0, 0.05},
r in {0, 10} dB and two SNR values; its stopping rule leaves cells that
stop on ``min_errors`` after one or several chunks and cells that stop on
``max_bits``, some of them with one or two errors. Any change to the random
stream, the draw order or the arithmetic of the chain shows up here as
a changed row. A change that is meant to move rows regenerates the pin:

    PYTHONPATH=src python -m coop_ostbc simulate <GOLDEN_ARGS> \\
        --output tests/data/golden_sweep.csv

The same change regenerates ``tests/data/configs.sha256``, the sha256 of
the three ``configs/`` figure sweeps at one worker, which CI checks:

    out=$(mktemp -d)
    for fig in fig1_imbalance fig2_estimation_errors fig3_ostbc_4x2; do
        PYTHONPATH=src python -m coop_ostbc simulate --spec configs/$fig.json \\
            --workers 1 --output "$out/$fig.w1.csv"
    done
    (cd "$out" && sha256sum fig1_imbalance.w1.csv fig2_estimation_errors.w1.csv \\
        fig3_ostbc_4x2.w1.csv) > tests/data/configs.sha256
"""

from pathlib import Path

import pytest

from coop_ostbc import cli

GOLDEN = Path(__file__).parent / "data" / "golden_sweep.csv"
GOLDEN_ARGS = [
    "simulate",
    "--scheme", "alamouti_2x1,ostbc_4x2",
    "--modulation", "BPSK,QPSK,QAM16",
    "--beta", "0,0.05",
    "--r-db", "0,10",
    "--gamma-db", "4,12",
    "--seed", "2024",
    "--min-errors", "150",
    "--max-bits", "150000",
]


@pytest.mark.parametrize("workers", ["1", "2"])
def test_golden_sweep_is_byte_identical(tmp_path, workers):
    out = tmp_path / "sweep.csv"
    assert cli.main(GOLDEN_ARGS + ["--workers", workers, "--output", str(out)]) == 0
    assert out.read_bytes() == GOLDEN.read_bytes()
