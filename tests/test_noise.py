import numpy as np
import pytest

from cmcal.calibration import CalibrationError, Distribution, embed_dense
from cmcal.noise import (
    IdealDistribution,
    MeasurementChannel,
    NoiseModel,
    NoiseSpec,
    compose,
    correlated_channel,
    ghz_cnot_schedule,
    ghz_distribution,
    ideal_ghz,
    simulate_counts,
    state_dependent_channel,
    x_chain_experiment,
)
from cmcal.topology import CouplingMap, generate_architecture


# --- channels -------------------------------------------------------------------


def test_state_dependent_channel_values():
    assert np.array_equal(state_dependent_channel(0, 0).matrix, np.eye(2))
    ch = state_dependent_channel(0.02, 0.08)
    assert np.allclose(ch.matrix, [[0.98, 0.08], [0.02, 0.92]])
    assert ch.support == (0,)
    flip = state_dependent_channel(1, 1)
    assert np.array_equal(flip.matrix, [[0, 1], [1, 0]])
    with pytest.raises(ValueError):
        state_dependent_channel(-0.1, 0.5)
    with pytest.raises(ValueError):
        state_dependent_channel(0.5, 1.5)


def test_correlated_channel_forms():
    full = correlated_channel((0, 1, 2, 3), "flip_all", 1.0)
    expect = np.zeros((16, 16))
    for v in range(16):
        expect[v ^ 15, v] = 1.0
    assert np.array_equal(full.matrix, expect)
    assert np.array_equal(correlated_channel((1, 4), "pairwise_flip", 0.0).matrix, np.eye(4))
    pair = correlated_channel((0, 1), "pairwise_flip", 0.1)
    xx = np.zeros((4, 4))
    for v in range(4):
        xx[v ^ 3, v] = 1.0
    assert np.allclose(pair.matrix, 0.9 * np.eye(4) + 0.1 * xx)


def test_correlated_channel_validation():
    with pytest.raises(ValueError):
        correlated_channel((0, 1, 2), "pairwise_flip", 0.1)
    with pytest.raises(ValueError):
        correlated_channel((0, 1), "triplet_flip", 0.1)
    with pytest.raises(ValueError):
        correlated_channel((0, 1), "sideways", 0.1)
    with pytest.raises(ValueError):
        correlated_channel((0, 1), "pairwise_flip", 1.2)


def test_joint_flip_exceeds_product_of_marginals():
    p = 0.1
    pair = correlated_channel((4, 7), "pairwise_flip", p)
    # prepared 00: joint flip lands on 11 with probability p, while each
    # marginal alone misreads with probability p — product p*p is smaller
    col = pair.matrix[:, 0]
    joint = col[3]
    marg_first = col[2] + col[3]
    marg_second = col[1] + col[3]
    assert joint == pytest.approx(p)
    assert marg_first * marg_second < joint


def test_channel_rejects_non_finite_entries():
    with pytest.raises(ValueError, match="finite"):
        MeasurementChannel((0,), [[np.nan, 0.0], [np.nan, 1.0]])
    with pytest.raises(ValueError, match="finite"):
        MeasurementChannel((0,), [[np.inf, 0.0], [-np.inf, 1.0]])


def test_channel_validation():
    with pytest.raises(ValueError):
        MeasurementChannel((1, 0), np.eye(4))
    with pytest.raises(ValueError):
        MeasurementChannel((0,), np.eye(4))
    with pytest.raises(ValueError):
        MeasurementChannel((0,), [[0.5, 0.5], [0.4, 0.5]])
    with pytest.raises(ValueError):
        MeasurementChannel((0,), [[1.1, -0.1], [-0.1, 1.1]])


def test_channels_are_column_stochastic():
    rng = np.random.default_rng(0)
    for _ in range(10):
        p01, p10 = rng.uniform(0, 1, 2)
        ch = state_dependent_channel(p01, p10)
        assert np.abs(ch.matrix.sum(axis=0) - 1).max() <= 1e-12
    for kind, sup in [("pairwise_flip", (0, 1)), ("triplet_flip", (0, 2, 5)), ("flip_all", (0, 1, 2, 3))]:
        ch = correlated_channel(sup, kind, 0.37)
        assert np.abs(ch.matrix.sum(axis=0) - 1).max() <= 1e-12


# --- compose --------------------------------------------------------------------


def test_compose_identities():
    ident = [state_dependent_channel(0, 0, qubit=q) for q in range(2)]
    out = compose(ident, 2)
    assert np.allclose(out.matrix, np.eye(4))


def test_compose_disjoint_supports_is_tensor_product():
    a = state_dependent_channel(0.1, 0.2, qubit=0)
    b = state_dependent_channel(0.3, 0.05, qubit=1)
    ab = compose([a, b], 2).matrix
    ba = compose([b, a], 2).matrix
    assert np.allclose(ab, np.kron(a.matrix, b.matrix))
    assert np.allclose(ab, ba)


def test_compose_overlapping_is_order_dependent():
    a = correlated_channel((0, 1), "pairwise_flip", 0.4)
    b = MeasurementChannel((1, 2), np.kron([[0.7, 0.0], [0.3, 1.0]], np.eye(2)))
    ab = compose([a, b], 3).matrix
    ba = compose([b, a], 3).matrix
    assert not np.allclose(ab, ba)


def test_compose_lazy_for_large_registers():
    chs = [state_dependent_channel(0.1, 0.1, qubit=q) for q in range(12)]
    out = compose(chs, 12)
    assert isinstance(out, tuple)
    assert len(out) == 12
    with pytest.raises(ValueError):
        compose(chs, 5)


# --- NoiseSpec ------------------------------------------------------------------


def test_noise_spec_random_draw():
    spec = NoiseSpec.random(6, seed=42)
    assert sorted(spec.per_qubit) == list(range(6))
    for p01, p10 in spec.per_qubit.values():
        assert 0.02 <= p01 <= 0.08
        assert 0.02 <= p10 <= 0.08
    assert spec == NoiseSpec.random(6, seed=42)
    assert spec != NoiseSpec.random(6, seed=43)


def test_noise_spec_json_roundtrip():
    spec = NoiseSpec(
        {0: (0.02, 0.08), 3: (0.05, 0.01)},
        (correlated_channel((1, 2), "pairwise_flip", 0.2),),
        gate_flip=0.001,
    )
    again = NoiseSpec.from_json(spec.to_json())
    assert again.per_qubit == spec.per_qubit
    assert again.gate_flip == spec.gate_flip
    assert np.allclose(again.correlated[0].matrix, spec.correlated[0].matrix)


def test_noise_spec_json_accepts_kind_shorthand():
    spec = NoiseSpec.from_json(
        '{"per_qubit": {"0": [0.1, 0.2]}, '
        '"correlated": [{"support": [0, 1], "kind": "pairwise_flip", "p": 0.3}]}'
    )
    oracle = correlated_channel((0, 1), "pairwise_flip", 0.3)
    assert np.allclose(spec.correlated[0].matrix, oracle.matrix)


def test_noise_spec_validation():
    with pytest.raises(ValueError):
        NoiseSpec({0: (1.5, 0.0)})
    with pytest.raises(ValueError):
        NoiseSpec({0: (0.1, 0.1)}, gate_flip=2.0)
    with pytest.raises(ValueError):
        NoiseSpec({5: (0.1, 0.1)}).channels(3)


# --- NoiseModel -----------------------------------------------------------------


def _dense_oracle(model, ideal):
    mat = compose(model.channels, model.num_qubits).matrix
    vec = np.zeros(1 << model.num_qubits)
    for bits, p in ideal.entries.items():
        vec[int(bits, 2)] = p
    out = mat @ vec
    return {format(i, f"0{model.num_qubits}b"): v for i, v in enumerate(out) if v > 1e-15}


def test_corrupted_matches_dense_oracle():
    rng = np.random.default_rng(7)
    n = 4
    spec = NoiseSpec.random(n, seed=5)
    channels = spec.channels(n) + (correlated_channel((1, 2), "pairwise_flip", 0.15),)
    model = NoiseModel(n, channels)
    ideal = ideal_ghz(n).distribution
    got = model.corrupted(ideal)
    want = _dense_oracle(model, ideal)
    assert set(got.entries) == set(want)
    for k, v in want.items():
        assert got.entries[k] == pytest.approx(v, abs=1e-12)


def test_corrupted_subset_suppresses_unmeasured_correlations():
    model = NoiseModel(2, (correlated_channel((0, 1), "pairwise_flip", 0.5),))
    ideal = Distribution({"00": 1.0}, 2)
    solo = model.corrupted(ideal, measured=(0,))
    assert solo.entries == {"0": 1.0}
    both = model.corrupted(ideal, measured=(0, 1))
    assert both.entries == {"00": pytest.approx(0.5), "11": pytest.approx(0.5)}


def test_marginal_after_noise_matches_full_marginal():
    n = 5
    spec = NoiseSpec.random(n, seed=9)
    channels = spec.channels(n) + (
        correlated_channel((1, 2), "pairwise_flip", 0.1),
        correlated_channel((2, 3), "pairwise_flip", 0.2),
    )
    model = NoiseModel(n, channels)
    ideal = ghz_distribution(generate_architecture("linear", num_qubits=n), 0.002)
    for keep in [(0,), (1, 2), (1, 4), (0, 2, 3)]:
        fast = model.marginal_after_noise(ideal, keep)
        slow = model.corrupted(ideal).marginal(keep)
        assert set(fast.entries) == set(slow.entries)
        for k in fast.entries:
            assert fast.entries[k] == pytest.approx(slow.entries[k], abs=1e-12)


def test_model_validation():
    with pytest.raises(ValueError):
        NoiseModel(1, (correlated_channel((0, 1), "pairwise_flip", 0.1),))
    model = NoiseModel(2, ())
    with pytest.raises(CalibrationError):
        model.corrupted(Distribution({"000": 1.0}, 3))
    with pytest.raises(ValueError):
        model.corrupted(Distribution({"00": 1.0}, 2), measured=(1, 0))


# --- benchmark distributions ------------------------------------------------------


def test_ideal_ghz_forms():
    assert ideal_ghz(1).distribution.entries == {"0": 0.5, "1": 0.5}
    assert ideal_ghz(5).distribution.entries == {"00000": 0.5, "11111": 0.5}
    assert ideal_ghz(7).distribution.total() == pytest.approx(1.0)
    with pytest.raises(ValueError):
        ideal_ghz(0)


def test_ghz_cnot_schedule_path_and_star():
    path = generate_architecture("linear", num_qubits=4)
    assert ghz_cnot_schedule(path) == ((0, 1), (1, 2), (2, 3))
    star = CouplingMap(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
    assert ghz_cnot_schedule(star) == ((0, 1), (0, 2), (0, 3), (0, 4))


def test_ghz_cnot_schedule_spans_20_qubit_layout():
    cmap = generate_architecture("local_grid")
    schedule = ghz_cnot_schedule(cmap)
    assert len(schedule) == 19
    reached = {0}
    for c, t in schedule:
        assert c in reached
        reached.add(t)
    assert reached == set(range(20))


def test_ghz_cnot_schedule_requires_connected():
    with pytest.raises(ValueError):
        ghz_cnot_schedule(CouplingMap(4, [(0, 1), (2, 3)]))


def test_ghz_distribution_gate_flip_oracle():
    cmap = generate_architecture("linear", num_qubits=2)
    g = 0.01
    dist = ghz_distribution(cmap, g)
    assert dist.provenance == "simulated"
    assert dist.distribution.entries == {
        "00": pytest.approx(0.5 * (1 - g)),
        "01": pytest.approx(0.5 * g),
        "10": pytest.approx(0.5 * g),
        "11": pytest.approx(0.5 * (1 - g)),
    }
    clean = ghz_distribution(cmap, 0.0)
    assert clean.provenance == "analytic"
    assert clean.distribution.entries == ideal_ghz(2).distribution.entries


def test_ghz_invariant_under_flip_all():
    for p in (0.3, 1.0):
        for n in (2, 4):
            model = NoiseModel(n, (correlated_channel(tuple(range(n)), "flip_all", p),))
            out = model.corrupted(ideal_ghz(n))
            assert out.entries["0" * n] == pytest.approx(0.5)
            assert out.entries["1" * n] == pytest.approx(0.5)


# --- sampling -------------------------------------------------------------------


def test_simulate_counts_identity_channel_ghz():
    ch = state_dependent_channel(0, 0, qubit=0)
    counts = simulate_counts(ideal_ghz(2), [ch], shots=4000, seed=1)
    assert set(counts) <= {"00", "11"}
    sigma = np.sqrt(4000 * 0.25)
    for key in ("00", "11"):
        assert abs(counts[key] - 2000) <= 3 * sigma


def test_simulate_counts_flip_all_keeps_ghz_support():
    ch = correlated_channel((0, 1, 2), "flip_all", 1.0)
    counts = simulate_counts(ideal_ghz(3), ch, shots=1000, seed=3)
    assert set(counts) == {"000", "111"}


def test_simulate_counts_state_dependent_decay():
    ch = state_dependent_channel(0.0, 0.1)
    counts = simulate_counts(Distribution({"1": 1.0}, 1), ch, shots=10000, seed=5)
    sigma = np.sqrt(10000 * 0.1 * 0.9)
    assert abs(counts.get("0", 0) - 1000) <= 3 * sigma


def test_sampling_is_seed_deterministic():
    model = NoiseModel.from_spec(3, NoiseSpec.random(3, seed=2))
    a = model.sample(ideal_ghz(3), 500, seed=11)
    b = model.sample(ideal_ghz(3), 500, seed=11)
    c = model.sample(ideal_ghz(3), 500, seed=12)
    assert a == b
    assert a != c
    assert sum(a.values()) == 500


def test_sampling_frequencies_converge():
    n = 3
    model = NoiseModel.from_spec(n, NoiseSpec.random(n, seed=8))
    dist = model.corrupted(ideal_ghz(n))
    shots = 10**6
    counts = model.sample(ideal_ghz(n), shots, seed=21)
    for key, p in dist.entries.items():
        assert abs(counts.get(key, 0) / shots - p) <= 5e-3


# --- x chain --------------------------------------------------------------------


def test_x_chain_noiseless():
    ch = state_dependent_channel(0, 0)
    rates = x_chain_experiment(10, ch, shots=1000, seed=0)
    assert [d for d, _ in rates] == list(range(1, 11))
    assert all(r == 0.0 for _, r in rates)


def test_x_chain_parity_bands():
    ch = state_dependent_channel(0.02, 0.08)
    rates = dict(x_chain_experiment(20, ch, shots=20000, seed=4))
    odd = [rates[d] for d in range(1, 21, 2)]
    even = [rates[d] for d in range(2, 21, 2)]
    assert all(abs(r - 0.08) < 0.01 for r in odd)
    assert all(abs(r - 0.02) < 0.01 for r in even)


def test_x_chain_gate_flip_pulls_bands_together():
    ch = state_dependent_channel(0.02, 0.08)
    rates = dict(x_chain_experiment(50, ch, shots=200000, seed=6, gate_flip=0.001))
    # each gate failure mixes the qubit toward 50/50, so both parity bands
    # drift from their channel-only levels toward 0.5
    assert abs(rates[50] - 0.5) < abs(rates[2] - 0.5) - 0.02
    assert abs(rates[49] - 0.5) < abs(rates[1] - 0.5) - 0.02
    assert rates[49] > rates[1]
    assert rates[50] > rates[2]


def test_x_chain_validation():
    ch = correlated_channel((0, 1), "pairwise_flip", 0.1)
    with pytest.raises(ValueError):
        x_chain_experiment(5, ch, shots=100, seed=0)
    with pytest.raises(ValueError):
        x_chain_experiment(0, state_dependent_channel(0, 0), shots=100, seed=0)


def test_ideal_distribution_validation():
    with pytest.raises(ValueError):
        IdealDistribution(Distribution({"00": 0.4}, 2))
    with pytest.raises(ValueError):
        IdealDistribution(Distribution({"00": 1.0}, 2), "guessed")
