import json

import numpy as np
import pytest

from cmcal.calibration import (
    MAX_APPLY_ENTRIES,
    MAX_PATCH_QUBITS,
    CalibrationError,
    CalibrationMatrix,
    Distribution,
    SparseCalibration,
    _summed,
    apply,
    embed_dense,
    extract_index,
    support_mask,
)
from cmcal.noise import (
    NoiseModel,
    NoiseSpec,
    compose,
    correlated_channel,
    ghz_cnot_schedule,
    ghz_distribution,
    ideal_ghz,
    sample_distribution,
    simulate_counts,
    state_dependent_channel,
    x_chain_experiment,
)
from cmcal.topology import CouplingMap, generate_architecture


# --- channels -------------------------------------------------------------------


def test_state_dependent_channel_values():
    assert np.array_equal(state_dependent_channel(0, 0).entries, np.eye(2))
    ch = state_dependent_channel(0.02, 0.08)
    assert np.allclose(ch.entries, [[0.98, 0.08], [0.02, 0.92]])
    assert ch.support == (0,)
    flip = state_dependent_channel(1, 1)
    assert np.array_equal(flip.entries, [[0, 1], [1, 0]])
    with pytest.raises(ValueError):
        state_dependent_channel(-0.1, 0.5)
    with pytest.raises(ValueError):
        state_dependent_channel(0.5, 1.5)


def test_correlated_channel_forms():
    full = correlated_channel((0, 1, 2, 3), "flip_all", 1.0)
    expect = np.zeros((16, 16))
    for v in range(16):
        expect[v ^ 15, v] = 1.0
    assert np.array_equal(full.entries, expect)
    assert np.array_equal(correlated_channel((1, 4), "pairwise_flip", 0.0).entries, np.eye(4))
    pair = correlated_channel((0, 1), "pairwise_flip", 0.1)
    xx = np.zeros((4, 4))
    for v in range(4):
        xx[v ^ 3, v] = 1.0
    assert np.allclose(pair.entries, 0.9 * np.eye(4) + 0.1 * xx)


def test_correlated_channel_validation():
    with pytest.raises(ValueError):
        correlated_channel((0, 1, 2), "pairwise_flip", 0.1)
    with pytest.raises(ValueError):
        correlated_channel((0, 1), "triplet_flip", 0.1)
    with pytest.raises(ValueError):
        correlated_channel((0, 1), "sideways", 0.1)
    with pytest.raises(ValueError):
        correlated_channel((0, 1), "pairwise_flip", 1.2)


def _spec_with_matrix(support, matrix):
    doc = {"correlated": [{"support": support, "matrix": matrix}]}
    return NoiseSpec.from_json(json.dumps(doc))


def test_channel_rejects_non_finite_entries():
    # channels are CalibrationMatrix objects, so a NoiseSpec document with a
    # non-finite matrix fails on load, and NaN rates fail the range check
    with pytest.raises(CalibrationError, match="non-finite"):
        _spec_with_matrix([0], [[np.nan, 0.0], [np.nan, 1.0]])
    with pytest.raises(CalibrationError, match="non-finite"):
        _spec_with_matrix([0], [[np.inf, 0.0], [-np.inf, 1.0]])
    with pytest.raises(ValueError):
        state_dependent_channel(np.nan, 0.1)
    with pytest.raises(ValueError):
        correlated_channel((0, 1), "pairwise_flip", np.nan)


def test_channel_validation():
    with pytest.raises(CalibrationError, match="ascending"):
        _spec_with_matrix([1, 0], np.eye(4).tolist())
    with pytest.raises(CalibrationError, match="does not match"):
        _spec_with_matrix([0], np.eye(4).tolist())
    with pytest.raises(CalibrationError, match="sum to 1"):
        _spec_with_matrix([0], [[0.5, 0.5], [0.4, 0.5]])
    with pytest.raises(CalibrationError, match="negative"):
        _spec_with_matrix([0], [[1.1, -0.1], [-0.1, 1.1]])
    ok = _spec_with_matrix([0, 1], np.eye(4).tolist())
    assert np.array_equal(ok.correlated[0].entries, np.eye(4))


def test_joint_flip_exceeds_product_of_marginals():
    p = 0.1
    pair = correlated_channel((4, 7), "pairwise_flip", p)
    # prepared 00: joint flip lands on 11 with probability p, while each
    # marginal alone misreads with probability p — product p*p is smaller
    col = pair.entries[:, 0]
    joint = col[3]
    marg_first = col[2] + col[3]
    marg_second = col[1] + col[3]
    assert joint == pytest.approx(p)
    assert marg_first * marg_second < joint


def test_channels_are_column_stochastic():
    rng = np.random.default_rng(0)
    for _ in range(10):
        p01, p10 = rng.uniform(0, 1, 2)
        ch = state_dependent_channel(p01, p10)
        assert np.abs(ch.entries.sum(axis=0) - 1).max() <= 1e-12
    for kind, sup in [("pairwise_flip", (0, 1)), ("triplet_flip", (0, 2, 5)), ("flip_all", (0, 1, 2, 3))]:
        ch = correlated_channel(sup, kind, 0.37)
        assert np.abs(ch.entries.sum(axis=0) - 1).max() <= 1e-12


# --- compose --------------------------------------------------------------------


def test_compose_identities():
    ident = [state_dependent_channel(0, 0, qubit=q) for q in range(2)]
    out = compose(ident, 2)
    assert np.allclose(out.entries, np.eye(4))


def test_compose_disjoint_supports_is_tensor_product():
    a = state_dependent_channel(0.1, 0.2, qubit=0)
    b = state_dependent_channel(0.3, 0.05, qubit=1)
    ab = compose([a, b], 2).entries
    ba = compose([b, a], 2).entries
    assert np.allclose(ab, np.kron(a.entries, b.entries))
    assert np.allclose(ab, ba)


def test_compose_overlapping_is_order_dependent():
    a = correlated_channel((0, 1), "pairwise_flip", 0.4)
    b = CalibrationMatrix((1, 2), np.kron([[0.7, 0.0], [0.3, 1.0]], np.eye(2)))
    ab = compose([a, b], 3).entries
    ba = compose([b, a], 3).entries
    assert not np.allclose(ab, ba)


def test_compose_register_checks():
    chs = [state_dependent_channel(0.1, 0.1, qubit=q) for q in range(12)]
    with pytest.raises(ValueError):
        compose(chs, 5)
    # refused before a 2^15 x 2^15 identity is allocated
    with pytest.raises(CalibrationError, match="dense"):
        compose([], 15)


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
    assert np.allclose(again.correlated[0].entries, spec.correlated[0].entries)


def test_noise_spec_json_accepts_kind_shorthand():
    spec = NoiseSpec.from_json(
        '{"per_qubit": {"0": [0.1, 0.2]}, '
        '"correlated": [{"support": [0, 1], "kind": "pairwise_flip", "p": 0.3}]}'
    )
    oracle = correlated_channel((0, 1), "pairwise_flip", 0.3)
    assert np.allclose(spec.correlated[0].entries, oracle.entries)


def test_noise_spec_validation():
    with pytest.raises(ValueError):
        NoiseSpec({0: (1.5, 0.0)})
    with pytest.raises(ValueError):
        NoiseSpec({0: (0.1, 0.1)}, gate_flip=2.0)
    with pytest.raises(ValueError):
        NoiseSpec({5: (0.1, 0.1)}).channels(3)


# --- NoiseModel -----------------------------------------------------------------


def _dense_oracle(model, ideal):
    mat = compose(model.channels, model.num_qubits).entries
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
    ideal = ideal_ghz(n)
    got = model.corrupted(ideal)
    want = _dense_oracle(model, ideal)
    assert set(got.entries) == set(want)
    for k, v in want.items():
        assert got.entries[k] == pytest.approx(v, abs=1e-12)


def test_wide_flip_all_channel_corrupts_like_the_dense_oracle():
    # a channel may be wider than a calibration patch
    n = MAX_PATCH_QUBITS + 1
    flip_all = correlated_channel(tuple(range(n)), "flip_all", 0.2)
    assert isinstance(flip_all, CalibrationMatrix) and flip_all.num_qubits == n
    model = NoiseModel(n, NoiseSpec.random(n, seed=12).channels(n) + (flip_all,))
    cmap = generate_architecture("linear", num_qubits=n)
    for ideal in (ghz_distribution(cmap, 0.01), Distribution.point_mass("10110")):
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
    keeps = [(0,), (1, 2), (1, 4), (0, 2, 3)]
    marginals = model.marginal_after_noise(ideal, keeps)
    assert len(marginals) == len(keeps)
    for keep, fast in zip(keeps, marginals):
        slow = model.corrupted(ideal).marginal(keep)
        assert set(fast.entries) == set(slow.entries)
        for k in fast.entries:
            assert fast.entries[k] == pytest.approx(slow.entries[k], abs=1e-12)


def _sparse_factor(idx, weights, support, arr, n):
    """One factor as a sparse merge: every nonzero term of every sorted input
    entry, then the terms landing on one index summed in input order."""
    local = extract_index(idx, support, n).astype(np.int64)
    cleared = idx & np.uint64(~support_mask(support, n) & ((1 << n) - 1))
    out_idx = []
    out_w = []
    for row in range(1 << len(support)):
        coeff = arr[row, local]
        nz = coeff != 0.0
        if not nz.any():
            continue
        ones = tuple(q for pos, q in enumerate(reversed(support)) if row >> pos & 1)
        out_idx.append(cleared[nz] | np.uint64(support_mask(ones, n)))
        out_w.append(coeff[nz] * weights[nz])
    if not out_idx:
        return np.empty(0, dtype=np.uint64), np.empty(0)
    return _summed(np.concatenate(out_idx), np.concatenate(out_w))


def _sparse_apply(cal, dist, cull_threshold):
    """Reference for ``calibration.apply``: the factors applied as sparse
    merges over sorted index arrays, culling dropped entries after each."""
    n = dist.n
    idx, weights = dist.index, dist.weights
    for support, arr in cal.factors:
        idx, weights = _sparse_factor(idx, weights, support, arr, n)
        if cull_threshold > 0.0:
            floor = cull_threshold * np.abs(weights).sum()
            keep = np.abs(weights) >= floor
            idx, weights = idx[keep], weights[keep]
    positive = weights > 0.0
    idx, weights = idx[positive], weights[positive]
    return Distribution._adopt(idx, weights / weights.sum(), n)


def test_apply_equals_the_sparse_merge_bit_for_bit_on_a_blocked_input():
    # Set bits outside the supports of the non-identity factors put the input
    # in several blocks; 3- and 4-qubit factors on non-adjacent qubits,
    # inverse ones signed.
    rng = np.random.default_rng(8)
    n = 12
    supports = ((0, 3, 7), (2, 5, 8, 11), (3, 9), (5,), (0, 2, 9, 11))
    factors = []
    for i, support in enumerate(supports):
        dim = 1 << len(support)
        mat = rng.uniform(0.0, 0.1, (dim, dim)) + np.eye(dim)
        mat /= mat.sum(axis=0)
        mat[rng.random((dim, dim)) < 0.2] = 0.0
        factors.append((support, np.linalg.inv(mat) if i % 2 else mat))
    # identity factors only cull: one on a qubit nothing else touches, run
    # first, so that it culls the input; one on touched qubits
    factors.insert(0, ((10,), np.eye(2)))
    factors.insert(3, ((3, 9), np.eye(4)))
    cal = SparseCalibration(tuple(factors))
    index = rng.choice(1 << n, size=300, replace=False)
    dist = Distribution.from_arrays(index, rng.uniform(0.0, 1.0, index.size), n)
    untouched = support_mask((1, 4, 6, 10), n)
    assert len({int(i) & untouched for i in dist.index}) > 1
    for cull in (1e-12, 1e-3, 0.0):
        got = apply(cal, dist) if cull == 1e-12 else apply(cal, dist, cull_threshold=cull)
        want = _sparse_apply(cal, dist, cull)
        assert np.array_equal(got.index, want.index)
        assert np.array_equal(got.weights, want.weights)


@pytest.mark.parametrize(
    "measured,bare",
    [(None, ()), ((0, 2, 3, 6), ()), ((0, 1, 2, 5, 7), (5, 7))],
    ids=["None", "measured1", "uncovered"],
)
def test_dense_corruption_equals_the_sparse_apply_bit_for_bit(measured, bare):
    # The sparse merge is the reference: same channels in firing order, same
    # clamping and renormalization, same rounding.  The qubits in ``bare``
    # have no readout channel and no joint flip fires on them, so GHZ puts
    # the corruption tensor in one block per pattern of their bits.
    cmap = generate_architecture("heavy_hex", num_qubits=8)
    n = cmap.num_qubits
    flips = tuple(correlated_channel(e, "pairwise_flip", 0.05) for e in cmap.edges)
    readout = tuple(ch for ch in NoiseSpec.random(n, seed=3).channels(n) if ch.support[0] not in bare)
    model = NoiseModel(n, readout + flips)
    region = tuple(range(n)) if measured is None else measured
    fired = [ch for ch in reversed(model.channels) if set(ch.support) <= set(region)]
    assert not {q for ch in fired for q in ch.support} & set(bare)
    forward = SparseCalibration(
        [(tuple(region.index(q) for q in ch.support), ch.entries) for ch in fired]
    )
    for ideal in (ideal_ghz(n), Distribution.point_mass("10110010")):
        sub = ideal if measured is None else ideal.marginal(measured)
        want = _sparse_apply(forward, sub, cull_threshold=0.0)
        got = model.corrupted(ideal, measured)
        assert got.entries == want.entries
        assert list(got.entries) == list(want.entries)


def test_marginal_after_noise_batches_add_in_the_sparse_order():
    # The batched tensor marginals add entries in the order Distribution.marginal
    # does, so they equal it bit for bit, also for supports sharing a closure.
    cmap = generate_architecture("grid", rows=3, cols=3)
    n = cmap.num_qubits
    flips = tuple(correlated_channel(e, "pairwise_flip", 0.05) for e in cmap.edges)
    model = NoiseModel(n, NoiseSpec.random(n, seed=4).channels(n) + flips)
    ideal = ghz_distribution(cmap, 0.01)
    keeps = [(0, 1), (4,), (2, 5, 8), (0, 8)]
    full = model.corrupted(ideal)
    for keep, fast in zip(keeps, model.marginal_after_noise(ideal, keeps)):
        assert fast.entries == full.marginal(keep).entries


def test_qubits_outside_the_register_raise_value_error():
    model = NoiseModel.from_spec(3, NoiseSpec.random(3, seed=1))
    ideal = ideal_ghz(3)
    with pytest.raises(ValueError, match="outside"):
        model.corrupted(ideal, measured=(0, 5))
    with pytest.raises(ValueError, match="outside"):
        model.sample(ideal, 100, seed=0, measured=(1, 3))
    with pytest.raises(ValueError, match="outside"):
        model.marginal_after_noise(ideal, [(0,), (2, 4)])
    with pytest.raises(ValueError, match="outside"):
        model.corrupted(ideal, measured=(-1, 0))


@pytest.mark.parametrize(
    "kind,params,edge_flip,measured",
    [
        ("linear", {"num_qubits": 5}, 0.0, None),
        ("grid", {"rows": 2, "cols": 4}, 0.0, (1, 2, 5, 7)),
        ("heavy_hex", {"num_qubits": 8}, 0.05, None),
        ("grid", {"rows": 2, "cols": 3}, 0.1, (0, 2, 3)),
    ],
)
def test_sample_equals_sampling_the_corrupted_distribution(kind, params, edge_flip, measured):
    # The {bitstring: count} result of sample() is the counts Distribution
    # drawn from corrupted(), formatted: same stream, same order.
    cmap = generate_architecture(kind, **params)
    n = cmap.num_qubits
    flips = tuple(correlated_channel(e, "pairwise_flip", edge_flip) for e in cmap.edges)
    model = NoiseModel(n, NoiseSpec.random(n, seed=n).channels(n) + flips)
    for ideal in (ideal_ghz(n), ghz_distribution(cmap, 0.02)):
        for seed in (3, 4):
            drawn = sample_distribution(model.corrupted(ideal, measured), 4000, seed)
            want = {key: int(count) for key, count in drawn.entries.items()}
            got = model.sample(ideal, 4000, seed, measured)
            assert got == want
            assert list(got) == list(want)


def test_wide_register_corrupts_exactly_on_the_sparse_path():
    # wider than a dense region; the channels touch 3 qubits, so apply's
    # tensor holds the two GHZ blocks of 2^3 entries
    n = MAX_APPLY_ENTRIES.bit_length() + 2
    channels = (
        state_dependent_channel(0.1, 0.2, qubit=2),
        correlated_channel((0, n - 1), "pairwise_flip", 0.25),
    )
    model = NoiseModel(n, channels)
    ones = "1" * n
    ideal = Distribution({"0" * n: 0.5, ones: 0.5}, n)

    def flip(bits, qubits):
        return "".join("10"[int(c)] if q in qubits else c for q, c in enumerate(bits))

    # the joint flip acts first (last listed), then the readout error on qubit 2
    want = {}
    for start in ("0" * n, ones):
        for joint, pj in ((False, 0.75), (True, 0.25)):
            bits = flip(start, {0, n - 1}) if joint else start
            misread = 0.1 if bits[2] == "0" else 0.2
            for err, pe in ((False, 1.0 - misread), (True, misread)):
                out = flip(bits, {2}) if err else bits
                want[out] = want.get(out, 0.0) + 0.5 * pj * pe
    got = model.corrupted(ideal)
    assert set(got.entries) == set(want)
    for k, v in want.items():
        assert got.entries[k] == pytest.approx(v, abs=1e-15)
    (marginal,) = model.marginal_after_noise(ideal, [(2,)])
    assert marginal.entries == pytest.approx({"0": 0.5 * 0.9 + 0.5 * 0.2, "1": 0.5 * 0.1 + 0.5 * 0.8})
    counts = model.sample(ideal, 1000, seed=1)
    assert sum(counts.values()) == 1000 and set(counts) <= set(want)


def test_wide_register_marginals_are_exact_on_the_sparse_path():
    # both closures are wider than a dense region, and both keeps are wider
    # than a bincount marginal, so the marginals are summed over sorted indices
    n = MAX_APPLY_ENTRIES.bit_length() + 2
    channels = (
        state_dependent_channel(0.1, 0.2, qubit=2),
        correlated_channel((0, n - 1), "pairwise_flip", 0.25),
    )
    model = NoiseModel(n, channels)
    # GHZ, then the joint flip on qubits 0 and n-1, then the misread of qubit 2
    register = {}
    for bit, joint, pj in (("0", "0", 0.75), ("0", "1", 0.25), ("1", "1", 0.75), ("1", "0", 0.25)):
        misread = 0.1 if bit == "0" else 0.2
        for out, pe in ((bit, 1.0 - misread), ("10"[int(bit)], misread)):
            key = joint + bit + out + bit * (n - 4) + joint
            register[key] = register.get(key, 0.0) + 0.5 * pj * pe
    keeps = [tuple(range(1, n)), tuple(range(n - 2))]
    marginals = model.marginal_after_noise(ideal_ghz(n), keeps)
    for keep, got in zip(keeps, marginals):
        want = {}
        for key, p in register.items():
            sub = "".join(key[q] for q in keep)
            want[sub] = want.get(sub, 0.0) + p
        assert got.n == len(keep) and set(got.entries) == set(want)
        for k, v in want.items():
            assert got.entries[k] == pytest.approx(v, abs=1e-15)


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
    assert ideal_ghz(1).entries == {"0": 0.5, "1": 0.5}
    assert ideal_ghz(5).entries == {"00000": 0.5, "11111": 0.5}
    assert ideal_ghz(7).total() == pytest.approx(1.0)
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
    assert dist.entries == {
        "00": pytest.approx(0.5 * (1 - g)),
        "01": pytest.approx(0.5 * g),
        "10": pytest.approx(0.5 * g),
        "11": pytest.approx(0.5 * (1 - g)),
    }
    clean = ghz_distribution(cmap, 0.0)
    assert clean.entries == ideal_ghz(2).entries


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
    for gate_flip in (2.0, -0.5):
        with pytest.raises(ValueError, match="gate_flip"):
            x_chain_experiment(3, state_dependent_channel(0, 0), 1000, 0, gate_flip=gate_flip)
