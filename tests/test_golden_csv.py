"""``cmcal bench`` output pinned byte for byte.

The CSVs under ``tests/data/`` were written by this module run as a script
from the repository root:

    PYTHONPATH=src python tests/test_golden_csv.py

A change that is not meant to move any number must reproduce them exactly;
one that is regenerates them with the same command and says why.
"""

import json
import sys
import tempfile
from pathlib import Path

import pytest
from test_acceptance import _edge_flip_noise

from cmcal.cli import main

DATA = Path(__file__).resolve().parent / "data"
METHODS = ("bare", "linear", "jigsaw", "cmc", "cmc_err")

CASES = {
    "grid3x3_random": (
        {"kind": "grid", "rows": 3, "cols": 3},
        {"kind": "random", "low": 0.02, "high": 0.08},
    ),
    "heavy_hex12_edgeflip": (
        {"kind": "heavy_hex", "num_qubits": 12},
        _edge_flip_noise({"kind": "heavy_hex", "num_qubits": 12}, 12),
    ),
}


def _bench(name, workdir, out):
    arch, noise = CASES[name]
    config = {
        "architecture": arch,
        "noise": noise,
        "methods": [{"method": m} for m in METHODS],
        "shots": 16000,
        "trials": 3,
        "seed": 11,
    }
    path = Path(workdir) / f"{name}.json"
    path.write_text(json.dumps(config))
    assert main(["bench", "--config", str(path), "--out", str(out)]) == 0


@pytest.mark.parametrize("name", sorted(CASES))
def test_bench_csv_matches_the_golden_file(name, tmp_path):
    out = tmp_path / f"{name}.csv"
    _bench(name, tmp_path, out)
    assert out.read_bytes() == (DATA / f"{name}.csv").read_bytes()


if __name__ == "__main__":
    DATA.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as workdir:
        for name in sorted(CASES):
            _bench(name, workdir, DATA / f"{name}.csv")
            print(f"wrote {DATA / f'{name}.csv'}", file=sys.stderr)
