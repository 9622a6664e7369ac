import json

import numpy as np
import pytest

from cmcal.bench import (
    CSV_COLUMNS,
    CalibrationStore,
    ExperimentConfig,
    ResultRecord,
    StoreError,
    derived_seed,
    emit_results,
    one_norm,
    run_experiment,
    success_probability,
)
from cmcal.calibration import Distribution
from cmcal.noise import NoiseModel, NoiseSpec, correlated_channel, ideal_ghz
from cmcal.strategies import calibrate_patches
from cmcal.topology import generate_architecture, greedy_patch_plan


def _random_dist(rng, n):
    vals = rng.uniform(0.0, 1.0, size=1 << n)
    vals /= vals.sum()
    return Distribution(
        {format(i, f"0{n}b"): float(v) for i, v in enumerate(vals)}, n
    )


# --- metrics ------------------------------------------------------------------


def test_one_norm_examples():
    ghz = ideal_ghz(2)
    assert one_norm(ghz, ghz) == 0.0
    a = Distribution({"00": 1.0}, 2)
    b = Distribution({"11": 1.0}, 2)
    assert one_norm(a, b) == pytest.approx(2.0)
    skew = Distribution({"00": 0.4, "11": 0.6}, 2)
    assert one_norm(skew, ghz) == pytest.approx(0.2)
    with pytest.raises(ValueError):
        one_norm(a, Distribution({"000": 1.0}, 3))


def test_one_norm_symmetry_and_triangle():
    rng = np.random.default_rng(3)
    for _ in range(20):
        x, y, z = (_random_dist(rng, 3) for _ in range(3))
        assert one_norm(x, y) == pytest.approx(one_norm(y, x))
        assert one_norm(x, z) <= one_norm(x, y) + one_norm(y, z) + 1e-12


def test_success_probability_examples():
    ghz = ideal_ghz(5)
    assert success_probability(ghz, ghz) == pytest.approx(1.0)
    uniform = Distribution({format(i, "05b"): 1 / 32 for i in range(32)}, 5)
    assert success_probability(uniform, ghz) == pytest.approx(2 / 32)
    with pytest.raises(ValueError):
        success_probability(uniform, ideal_ghz(4))


# --- configuration --------------------------------------------------------------


def _config(**overrides):
    base = dict(
        architecture={"kind": "linear", "num_qubits": 4},
        noise={"kind": "random", "low": 0.02, "high": 0.08},
        methods=({"method": "bare"}, {"method": "linear"}),
        shots=2000,
        trials=2,
        seed=5,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_experiment_config_round_trip():
    config = _config()
    again = ExperimentConfig.from_json(config.to_json())
    assert again == config
    assert again.methods[0].method == "bare"


def test_experiment_config_validation(tmp_path):
    with pytest.raises(ValueError):
        _config(trials=0)
    with pytest.raises(ValueError):
        _config(shots=0)
    with pytest.raises(ValueError):
        _config(methods=())
    with pytest.raises(ValueError):
        _config(noise={"kind": "adversarial"})
    with pytest.raises(FileNotFoundError):
        _config(architecture={"file": str(tmp_path / "missing.json")})


def test_result_record_validation():
    with pytest.raises(ValueError):
        ResultRecord("bare", 2, 0, 1, 1.5, 0.1, 0, 100, 0.0)
    with pytest.raises(ValueError):
        ResultRecord("bare", 2, 0, 1, 0.5, 2.5, 0, 100, 0.0)
    rec = ResultRecord("bare", 2, 0, 1, None, None, 0, 0, 0.0, error="boom")
    assert rec.row()["one_norm"] == ""


def test_derived_seed_is_stable():
    assert derived_seed(5, 1, 2) == derived_seed(5, 1, 2)
    assert derived_seed(5, 1, 2) != derived_seed(5, 1, 3)


# --- the sweep -------------------------------------------------------------------


def test_run_experiment_records_and_reproducibility(tmp_path):
    out = tmp_path / "results.csv"
    config = _config(out=str(out))
    records = run_experiment(config)
    assert len(records) == 4
    assert [(r.method, r.trial) for r in records] == [
        ("bare", 0), ("linear", 0), ("bare", 1), ("linear", 1)
    ]
    for record in records:
        assert record.error is None
        assert 0.0 <= record.one_norm <= 2.0
        assert 0.0 <= record.success_probability <= 1.0
        assert record.shots_calibration + record.shots_circuit <= config.shots
        assert record.wall_ms == 0.0
    first = out.read_bytes()
    lines = first.decode().strip().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 5
    run_experiment(config)
    assert out.read_bytes() == first


def test_run_experiment_same_noise_within_trial():
    config = _config(methods=({"method": "bare"}, {"method": "bare"}), trials=1)
    a, b = run_experiment(config)
    # identical method under the same trial channel, different sampling streams
    assert a.seed != b.seed
    assert a.one_norm != b.one_norm


def test_run_experiment_records_failures_without_aborting():
    config = _config(
        architecture={"kind": "linear", "num_qubits": 15},
        methods=({"method": "full"}, {"method": "bare"}),
        trials=1,
    )
    full_rec, bare_rec = run_experiment(config)
    assert full_rec.error is not None and "14" in full_rec.error
    assert full_rec.one_norm is None
    assert bare_rec.error is None


def test_run_experiment_records_registers_past_the_index_bound():
    # register indices are packed into uint64, so 70 qubits cannot be mitigated
    config = _config(architecture={"kind": "linear", "num_qubits": 70}, trials=2,
                     methods=({"method": "bare"},))
    records = run_experiment(config)
    assert len(records) == 2
    assert all(r.error is not None and "64" in r.error for r in records)


def test_run_experiment_records_registers_past_the_dense_bound():
    # exact corruption of all 27 qubits needs 2^27 entries, over MAX_APPLY_ENTRIES:
    # a typed error before anything register-sized is allocated, not a MemoryError
    config = _config(architecture={"kind": "heavy_hex", "num_qubits": 27}, trials=1,
                     methods=({"method": "cmc"},))
    (record,) = run_experiment(config)
    assert record.error is not None and "over 27 qubits" in record.error
    assert record.one_norm is None


def test_run_experiment_fixed_noise():
    spec = {
        "kind": "fixed",
        "per_qubit": {"0": [0.02, 0.08], "1": [0.02, 0.08]},
    }
    config = _config(
        architecture={"kind": "linear", "num_qubits": 2},
        noise=spec,
        methods=({"method": "full"},),
        trials=2,
        shots=4000,
    )
    records = run_experiment(config)
    assert all(r.error is None for r in records)
    assert all(r.shots_calibration > 0 for r in records)


# --- emission --------------------------------------------------------------------


def _records():
    return [
        ResultRecord("bare", 2, t, 7 + t, 0.5, 0.3, 0, 100, 0.0) for t in range(3)
    ]


def test_emit_results_csv(tmp_path):
    path = tmp_path / "r.csv"
    emit_results(_records(), "csv", path)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 4
    assert lines[0] == ",".join(CSV_COLUMNS)


def test_emit_results_json_round_trip(tmp_path):
    path = tmp_path / "r.json"
    records = _records()
    emit_results(records, "json", path)
    loaded = json.loads(path.read_text())
    assert len(loaded) == 3
    assert loaded[0]["method"] == "bare"
    assert loaded[0]["one_norm"] == 0.3
    assert loaded[0]["error"] is None


def test_emit_results_rejects_empty_and_unknown(tmp_path):
    with pytest.raises(ValueError):
        emit_results([], "csv", tmp_path / "x.csv")
    with pytest.raises(ValueError):
        emit_results(_records(), "yaml", tmp_path / "x.yaml")


# --- calibration store -------------------------------------------------------------


def _store_and_model():
    n = 4
    cmap = generate_architecture("linear", num_qubits=n)
    spec = NoiseSpec.random(n, seed=11)
    model = NoiseModel(
        n,
        spec.channels(n) + (correlated_channel((1, 2), "pairwise_flip", 0.15),),
    )
    plan = greedy_patch_plan(cmap, 1)
    matrices, singles = calibrate_patches(model, plan)
    store = CalibrationStore(
        arch_id="chain4",
        created="2026-08-15T00:00:00+00:00",
        matrices=tuple(matrices),
        plan=plan,
        singles=singles,
    )
    return store, model


def test_store_round_trip_is_bit_identical(tmp_path):
    store, model = _store_and_model()
    path = tmp_path / "store.json"
    store.save(path)
    loaded = CalibrationStore.load(path)
    observed = model.corrupted(ideal_ghz(4))
    first = store.mitigate(observed)
    second = loaded.mitigate(observed)
    assert first.entries == second.entries
    assert loaded.arch_id == "chain4"
    assert loaded.plan.patches == store.plan.patches


def test_store_mitigates_measured_width_counts():
    # NoiseModel.sample(..., measured=...) keys go straight in; the result
    # equals the register-wide path's result narrowed to the measured qubits
    store, model = _store_and_model()
    measured = (1, 3)
    counts = model.sample(ideal_ghz(4), 2000, 3, measured=measured)
    narrow = store.mitigate(Distribution.from_counts(counts, 2), measured=measured)
    wide_counts = {f"0{key[0]}0{key[1]}": count for key, count in counts.items()}
    wide = store.mitigate(Distribution.from_counts(wide_counts, 4), measured=measured)
    assert narrow.n == 2
    assert narrow == wide.marginal(measured)


def test_store_reuse_on_a_different_circuit():
    store, model = _store_and_model()
    other = Distribution({"0110": 1.0}, 4)
    observed = model.corrupted(other)
    mitigated = store.mitigate(observed)
    assert one_norm(mitigated, other) < one_norm(observed, other)


def test_store_version_mismatch(tmp_path):
    store, _ = _store_and_model()
    path = tmp_path / "store.json"
    store.save(path)
    doc = json.loads(path.read_text())
    doc["version"] = 99
    path.write_text(json.dumps(doc))
    with pytest.raises(StoreError):
        CalibrationStore.load(path)
    del doc["version"]
    path.write_text(json.dumps(doc))
    with pytest.raises(StoreError):
        CalibrationStore.load(path)


def test_store_rejects_corruption(tmp_path):
    store, _ = _store_and_model()
    path = tmp_path / "store.json"
    store.save(path)
    path.write_text(path.read_text()[:40])
    with pytest.raises(StoreError):
        CalibrationStore.load(path)
    with pytest.raises(StoreError):
        CalibrationStore(
            arch_id="x",
            created="now",
            matrices=(),
        )
    # count records that an integer cast would truncate, or float() would
    # read, as passing ones
    for counts in ({"0": 2.5}, {"0": 2.5, "1": -0.5}, {"0": "2"}):
        store.save(path)
        doc = json.loads(path.read_text())
        doc["records"] = [{"support": [0], "prepared": "0", "counts": counts, "shots": 2}]
        path.write_text(json.dumps(doc))
        with pytest.raises(StoreError, match="counts must be non-negative integers"):
            CalibrationStore.load(path)


def test_store_with_nan_entry_fails_to_load(tmp_path):
    store, _ = _store_and_model()
    path = tmp_path / "store.json"
    store.save(path)
    doc = json.loads(path.read_text())
    doc["matrices"][0]["entries"][0][0] = float("nan")
    path.write_text(json.dumps(doc))
    with pytest.raises(StoreError):
        CalibrationStore.load(path)


def test_store_with_a_five_qubit_patch_fails_to_load(tmp_path):
    store, _ = _store_and_model()
    path = tmp_path / "store.json"
    store.save(path)
    doc = json.loads(path.read_text())
    doc["matrices"][0] = {"support": [0, 1, 2, 3, 4], "entries": np.eye(32).tolist()}
    path.write_text(json.dumps(doc))
    with pytest.raises(StoreError, match="qubit bound"):
        CalibrationStore.load(path)


def test_store_whose_patches_share_two_qubits_fails_to_load(tmp_path):
    # the patch-set rule of the join holds when the store loads, not only at
    # its first mitigate
    store, _ = _store_and_model()
    path = tmp_path / "store.json"
    store.save(path)
    doc = json.loads(path.read_text())
    doc["matrices"].append({"support": [0, 1, 2], "entries": np.eye(8).tolist()})
    path.write_text(json.dumps(doc))
    with pytest.raises(StoreError, match="share more than one qubit"):
        CalibrationStore.load(path)
