"""``cmcal bench`` and ``cmcal mitigate`` output pinned byte for byte.

The CSVs and the mitigated JSON under ``tests/data/`` were written by this
module run as a script from the repository root:

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
from cmcal.noise import NoiseModel, NoiseSpec, ideal_ghz

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


# calibration stores built by ``cmcal calibrate`` on heavy_hex 12 under the
# edge-flip noise: exact columns, and 200 sampled shots per circuit
STORES = {
    "heavy_hex12_edgeflip_mitigate_exact": (),
    "heavy_hex12_edgeflip_mitigate_shots200": ("--shots", "200", "--seed", "5"),
}


def _mitigate(name, workdir, out):
    """``cmcal mitigate`` of sampled GHZ counts with a freshly calibrated store.

    The store file records its creation time, so only the mitigated output
    is pinned."""
    workdir = Path(workdir)
    arch, noise = CASES["heavy_hex12_edgeflip"]
    spec = {k: v for k, v in noise.items() if k != "kind"}
    map_path, noise_path = workdir / "map.json", workdir / "noise.json"
    store_path, counts_path = workdir / f"{name}.store.json", workdir / "counts.json"
    assert main(["gen-arch", arch["kind"], "--num-qubits", "12", "--out", str(map_path)]) == 0
    noise_path.write_text(json.dumps(spec))
    assert main([
        "calibrate", "--map", str(map_path), "--noise", str(noise_path), *STORES[name],
        "--out", str(store_path),
    ]) == 0
    model = NoiseModel.from_spec(12, NoiseSpec.from_json(json.dumps(spec)))
    counts_path.write_text(json.dumps(model.sample(ideal_ghz(12), 16000, seed=11)))
    assert main([
        "mitigate", "--store", str(store_path), "--counts", str(counts_path), "--out", str(out),
    ]) == 0


@pytest.mark.parametrize("name", sorted(CASES))
def test_bench_csv_matches_the_golden_file(name, tmp_path):
    out = tmp_path / f"{name}.csv"
    _bench(name, tmp_path, out)
    assert out.read_bytes() == (DATA / f"{name}.csv").read_bytes()


@pytest.mark.parametrize("name", sorted(STORES))
def test_mitigate_output_matches_the_golden_file(name, tmp_path):
    out = tmp_path / f"{name}.json"
    _mitigate(name, tmp_path, out)
    assert out.read_bytes() == (DATA / f"{name}.json").read_bytes()


if __name__ == "__main__":
    DATA.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as workdir:
        for name in sorted(CASES):
            _bench(name, workdir, DATA / f"{name}.csv")
            print(f"wrote {DATA / f'{name}.csv'}", file=sys.stderr)
        for name in sorted(STORES):
            _mitigate(name, workdir, DATA / f"{name}.json")
            print(f"wrote {DATA / f'{name}.json'}", file=sys.stderr)
