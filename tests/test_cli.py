import json

import numpy as np
import pytest

from cmcal.bench import CalibrationStore, one_norm
from cmcal.calibration import Distribution
from cmcal.cli import main
from cmcal.noise import NoiseModel, NoiseSpec, correlated_channel, ideal_ghz
from cmcal.topology import CouplingMap, ErrMap, PatchPlan


def test_gen_arch_and_patch_plan(tmp_path):
    map_path = tmp_path / "map.json"
    assert main(["gen-arch", "grid", "--rows", "2", "--cols", "3", "--out", str(map_path)]) == 0
    cmap = CouplingMap.from_json(map_path.read_text())
    assert cmap.num_qubits == 6
    assert len(cmap.edges) == 2 * 6 - 2 - 3

    plan_path = tmp_path / "plan.json"
    assert main(["patch-plan", "--map", str(map_path), "--out", str(plan_path)]) == 0
    plan = PatchPlan.from_json(plan_path.read_text())
    assert set(plan.patches) == set(cmap.edges)


def test_gen_arch_writes_stdout(capsys):
    assert main(["gen-arch", "linear", "--num-qubits", "3"]) == 0
    cmap = CouplingMap.from_json(capsys.readouterr().out)
    assert cmap.edges == ((0, 1), (1, 2))


def _write_noise(tmp_path, correlated=True):
    spec = NoiseSpec(
        {q: (0.02, 0.08) for q in range(4)},
        (correlated_channel((1, 2), "pairwise_flip", 0.2),) if correlated else (),
    )
    path = tmp_path / "noise.json"
    path.write_text(spec.to_json())
    return path, spec


def _calibrated_store(tmp_path):
    map_path = tmp_path / "map.json"
    main(["gen-arch", "linear", "--num-qubits", "4", "--out", str(map_path)])
    noise_path, spec = _write_noise(tmp_path)
    store_path = tmp_path / "store.json"
    code = main([
        "calibrate",
        "--map", str(map_path),
        "--noise", str(noise_path),
        "--out", str(store_path),
        "--arch-id", "chain4",
    ])
    assert code == 0
    return store_path, spec


def test_calibrate_and_err_map(tmp_path, capsys):
    store_path, _ = _calibrated_store(tmp_path)
    doc = json.loads(store_path.read_text())
    assert doc["arch_id"] == "chain4"
    assert len(doc["matrices"]) == 3

    err_path = tmp_path / "err.json"
    assert main(["err-map", "--store", str(store_path), "--out", str(err_path)]) == 0
    selected = ErrMap.from_json(err_path.read_text())
    assert selected.edges[0] == (1, 2)  # the strongly correlated pair ranks first


def test_calibrate_and_err_map_past_the_index_bound(tmp_path):
    n = 70
    map_path = tmp_path / "map.json"
    main(["gen-arch", "linear", "--num-qubits", str(n), "--out", str(map_path)])
    noise_path = tmp_path / "noise.json"
    noise_path.write_text(NoiseSpec.random(n, seed=3).to_json())
    store_path = tmp_path / "store.json"
    assert main([
        "calibrate", "--map", str(map_path), "--noise", str(noise_path),
        "--shots", "200", "--out", str(store_path),
    ]) == 0
    err_path = tmp_path / "err.json"
    assert main(["err-map", "--store", str(store_path), "--out", str(err_path)]) == 0
    assert ErrMap.from_json(err_path.read_text()).edges


def test_mitigate_counts_file(tmp_path):
    store_path, spec = _calibrated_store(tmp_path)
    model = NoiseModel.from_spec(4, spec)
    ideal = ideal_ghz(4)
    counts = model.sample(ideal, 40000, seed=3)
    counts_path = tmp_path / "counts.json"
    counts_path.write_text(json.dumps(counts))
    out_path = tmp_path / "mitigated.json"
    assert main([
        "mitigate", "--store", str(store_path), "--counts", str(counts_path),
        "--out", str(out_path),
    ]) == 0
    payload = json.loads(out_path.read_text())
    mitigated = Distribution(payload, 4)
    raw = Distribution.from_counts(counts, 4)
    assert mitigated.total() == pytest.approx(1.0)
    assert one_norm(mitigated, ideal) < one_norm(raw, ideal)


def test_mitigate_empty_counts_file(tmp_path, capsys):
    store_path, _ = _calibrated_store(tmp_path)
    counts_path = tmp_path / "counts.json"
    counts_path.write_text("{}")
    assert main(["mitigate", "--store", str(store_path), "--counts", str(counts_path)]) == 1
    assert "no counts" in capsys.readouterr().err
    # malformed counts, and keys narrower than the store's register, are
    # reported, not truncated, read as numbers, narrowed or raised
    for counts in ({"0000": 5, "1111": -1}, {"0000": 1.5}, {"0000": "many"}, {"0a00": 5},
                   {"0000": "5"}, {"000": 5, "111": 5}, [1], {"counts": ["0000"]}):
        counts_path.write_text(json.dumps(counts))
        assert main(["mitigate", "--store", str(store_path), "--counts", str(counts_path)]) == 1
        assert str(counts_path) in capsys.readouterr().err
    # 30-bit keys get no factors past the store's qubits, so those bits stay
    # as they are and do not widen the application; with those bits all 0
    # the result is the 4-qubit mitigation, bit for bit
    narrow = CalibrationStore.load(store_path).mitigate(
        Distribution.from_counts({"0000": 5, "1111": 5}, 4)
    )
    out_path = tmp_path / "mitigated.json"
    for tail in ("1" * 26, "0" * 26):
        counts_path.write_text(json.dumps({"0" * 30: 5, "1111" + tail: 5}))
        assert main([
            "mitigate", "--store", str(store_path), "--counts", str(counts_path),
            "--out", str(out_path),
        ]) == 0
        wide = Distribution(json.loads(out_path.read_text()), 30)
        assert {key[4:] for key in wide.entries} <= {"0" * 26, tail}
    assert np.array_equal(wide.index, narrow.index << np.uint64(26))
    assert np.array_equal(wide.weights, narrow.weights)
    # singles on 23 more qubits make 27 factors: too wide to apply
    doc = json.loads(store_path.read_text())
    doc["singles"] = {str(q): [[0.9, 0.2], [0.1, 0.8]] for q in range(4, 27)}
    wide_store = tmp_path / "wide_store.json"
    wide_store.write_text(json.dumps(doc))
    counts_path.write_text(json.dumps({"0" * 27: 5, "1" * 27: 5}))
    assert main(["mitigate", "--store", str(wide_store), "--counts", str(counts_path)]) == 1
    assert "over 27 qubits" in capsys.readouterr().err
    # a store whose patches share two qubits cannot be joined, so it does not load
    doc = json.loads(store_path.read_text())
    eye = [[float(row == col) for col in range(8)] for row in range(8)]
    doc["matrices"].append({"support": [0, 1, 2], "entries": eye})
    store_path.write_text(json.dumps(doc))
    counts_path.write_text(json.dumps({"0000": 5, "1111": 5}))
    assert main(["mitigate", "--store", str(store_path), "--counts", str(counts_path)]) == 1
    assert "share more than one qubit" in capsys.readouterr().err


def _bench_config(tmp_path):
    config = {
        "architecture": {"kind": "linear", "num_qubits": 3},
        "noise": {"kind": "random", "low": 0.02, "high": 0.08},
        "methods": [{"method": "bare"}, {"method": "linear"}],
        "shots": 1000,
        "trials": 2,
        "seed": 9,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return path


def test_bench_csv_reproducible(tmp_path, capsys):
    config = _bench_config(tmp_path)
    out = tmp_path / "results.csv"
    assert main(["bench", "--config", str(config), "--out", str(out)]) == 0
    first = out.read_bytes()
    assert len(first.decode().strip().splitlines()) == 5
    summary = capsys.readouterr().out
    assert "bare: mean one-norm" in summary
    assert main(["bench", "--config", str(config), "--out", str(out)]) == 0
    assert out.read_bytes() == first


def test_bench_json_output(tmp_path):
    config = _bench_config(tmp_path)
    out = tmp_path / "results.json"
    assert main([
        "bench", "--config", str(config), "--out", str(out), "--format", "json",
    ]) == 0
    records = json.loads(out.read_text())
    assert len(records) == 4
    assert {r["method"] for r in records} == {"bare", "linear"}


def test_bench_trial_override(tmp_path):
    config = _bench_config(tmp_path)
    out = tmp_path / "results.csv"
    assert main([
        "bench", "--config", str(config), "--out", str(out), "--trials", "1",
    ]) == 0
    assert len(out.read_text().strip().splitlines()) == 3


@pytest.mark.parametrize(
    "argv,message",
    [
        (["x-chain", "--gate-flip", "1.5"], "gate_flip"),
        (["x-chain", "--depth", "0"], "depth_max"),
        (["gen-arch", "grid", "--rows", "0"], "rows"),
    ],
    ids=["x-chain-gate-flip", "x-chain-depth", "gen-arch-rows"],
)
def test_bad_arguments_exit_1_with_one_line(argv, message, capsys):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and message in captured.err


def test_x_chain_bands(tmp_path):
    out = tmp_path / "xchain.csv"
    assert main([
        "x-chain", "--depth", "50", "--shots", "4000",
        "--p01", "0.02", "--p10", "0.08", "--out", str(out),
    ]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "depth,error"
    assert len(lines) == 51
    rows = [line.split(",") for line in lines[1:]]
    odd = [float(e) for d, e in rows if int(d) % 2 == 1]
    even = [float(e) for d, e in rows if int(d) % 2 == 0]
    # odd depths ideally read 1 and suffer p10; even depths read 0 and suffer p01
    assert abs(sum(odd) / len(odd) - 0.08) < 0.01
    assert abs(sum(even) / len(even) - 0.02) < 0.01


def test_x_chain_csv_bytes_match_on_file_and_stdout(tmp_path, capfdbinary):
    # csv writes "\r\n" line ends; the file and stdout carry the same bytes
    want = (b"depth,error\r\n1,0.07799999999999996\r\n2,0.01200000000000001\r\n"
            b"3,0.08799999999999997\r\n")
    argv = ["x-chain", "--depth", "3", "--shots", "500"]
    out = tmp_path / "xchain.csv"
    assert main(argv + ["--out", str(out)]) == 0
    assert out.read_bytes() == want
    assert capfdbinary.readouterr().out == b""
    assert main(argv) == 0
    assert capfdbinary.readouterr().out == want


def test_x_chain_json(tmp_path):
    out = tmp_path / "xchain.json"
    assert main([
        "x-chain", "--depth", "3", "--shots", "500", "--format", "json",
        "--out", str(out),
    ]) == 0
    rows = json.loads(out.read_text())
    assert [r["depth"] for r in rows] == [1, 2, 3]


_MAP = {"num_qubits": 3, "edges": [[0, 1], [1, 2]]}
_STORE = {"version": 1, "arch_id": "x", "created": "now"}
_CONFIG = {"architecture": {"kind": "linear", "num_qubits": 3}, "noise": {"kind": "random"},
           "methods": [{"method": "bare"}], "shots": 100, "trials": 1}


@pytest.mark.parametrize(
    "argv,files,message",
    [
        (["patch-plan", "--map", "absent.json"], {}, "absent.json"),
        (["bench", "--config", "absent.json"], {}, "absent.json"),
        (["mitigate", "--store", "store.json", "--counts", "absent.json"],
         {"store.json": _STORE}, "corrupted calibration store: 'matrices'"),
        (["err-map", "--store", "store.json"],
         {"store.json": _STORE}, "corrupted calibration store: 'matrices'"),
        (["err-map", "--store", "store.json"],
         {"store.json": {**_STORE, "matrices": [{"support": [0], "entries": [[1, 0], [0, 1]]}]}},
         "no two-qubit patches"),
        (["patch-plan", "--map", "map.json"], {"map.json": {"num_qubits": 3}}, "'edges'"),
        (["calibrate", "--map", "map.json", "--noise", "noise.json", "--out", "store.json"],
         {"map.json": _MAP, "noise.json": {"correlated": [{"kind": "pairwise_flip", "p": 0.1}]}},
         "'support'"),
        (["bench", "--config", "config.json"],
         {"config.json": {k: v for k, v in _CONFIG.items() if k != "shots"}}, "'shots'"),
        (["bench", "--config", "config.json", "--format", "json"],
         {"config.json": _CONFIG}, "--out is required"),
        (["patch-plan", "--map", "map.json"], {"map.json": [1, 2]},
         "coupling map must be a JSON object"),
        (["calibrate", "--map", "map.json", "--noise", "noise.json", "--out", "store.json"],
         {"map.json": _MAP, "noise.json": [1]}, "noise spec must be a JSON object"),
        (["bench", "--config", "config.json"], {"config.json": [1]},
         "experiment config must be a JSON object"),
    ],
    ids=["missing-map", "missing-config", "mitigate-store-without-matrices",
         "err-map-store-without-matrices", "err-map-store-without-pairs", "map-without-edges",
         "noise-without-support", "config-without-shots", "json-without-out",
         "map-not-an-object", "noise-not-an-object", "config-not-an-object"],
)
def test_missing_files_and_fields_exit_1_with_one_line(argv, files, message, tmp_path, capsys):
    for name, doc in files.items():
        (tmp_path / name).write_text(json.dumps(doc))
    argv = [str(tmp_path / arg) if arg.endswith(".json") else arg for arg in argv]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and message in captured.err
