import logging

import numpy as np
import pytest

from cmcal.calibration import (
    MAX_PATCH_QUBITS,
    CalibrationError,
    CalibrationMatrix,
    CountsRecord,
    Distribution,
    SingularFactorError,
    SparseCalibration,
    apply,
    assemble_for_measured,
    embed_dense,
    estimate_matrix,
    fractional_power,
    group_preparation_circuits,
    invert,
    normalize_columns,
    normalized_partial_trace,
    order_adjust,
    preparation_circuits,
)


# --- oracles -----------------------------------------------------------------


def oracle_partial_trace(arr, keep_pos, p):
    """Index-loop marginal channel, independent of the library's einsum path.

    Discarded observed bits are summed out and discarded prepared bits are
    pooled with equal weight; normalization happens in the caller.
    """
    k = len(keep_pos)
    out = np.zeros((1 << k, 1 << k))
    for row in range(1 << p):
        for col in range(1 << p):
            rb = format(row, f"0{p}b")
            cb = format(col, f"0{p}b")
            r = int("".join(rb[i] for i in keep_pos), 2)
            c = int("".join(cb[i] for i in keep_pos), 2)
            out[r, c] += arr[row, col]
    return out


def oracle_normalized_trace(arr, keep_pos, p):
    traced = oracle_partial_trace(arr, keep_pos, p)
    return traced / traced.sum(axis=0)


def random_single(rng, lo=0.02, hi=0.12):
    p01, p10 = rng.uniform(lo, hi, size=2)
    return np.array([[1 - p01, p10], [p01, 1 - p10]])


def random_stochastic(rng, dim, diag=6.0):
    arr = rng.uniform(0.1, 1.0, size=(dim, dim)) + diag * np.eye(dim)
    return arr / arr.sum(axis=0)


# --- matrix and record types -------------------------------------------------


def test_calibration_matrix_validates_columns():
    # one validator for noise channels and calibrations alike
    good = CalibrationMatrix((0,), [[0.9, 0.1], [0.1, 0.9]])
    assert good.num_qubits == 1 and good.dim == 2
    near = CalibrationMatrix((0,), [[0.9 + 1e-10, 0.1], [0.1, 0.9]])
    assert near.entries[0, 0] == 0.9 + 1e-10
    wide = CalibrationMatrix(tuple(range(MAX_PATCH_QUBITS + 1)), np.eye(1 << (MAX_PATCH_QUBITS + 1)))
    assert wide.num_qubits == MAX_PATCH_QUBITS + 1
    bad = [
        ((0,), [[1.1, 0.1], [-0.1, 0.9]], "negative"),
        ((0,), [[1.0 + 1e-12, 0.0], [-1e-12, 1.0]], "negative"),
        ((0,), [[0.9 + 1e-6, 0.1], [0.1, 0.9]], "sum to 1"),
        ((0, 1), np.eye(2), "does not match"),
        ((0,), np.ones((2, 3)) / 2, "square"),
        ((1, 0), np.eye(4), "ascending"),
        ((), np.eye(1), "empty"),
    ]
    for support, entries, message in bad:
        with pytest.raises(CalibrationError, match=message):
            CalibrationMatrix(support, entries)


def test_calibration_matrix_rejects_non_finite_entries():
    # every comparison with NaN is false, so a range check alone lets it through
    with pytest.raises(CalibrationError, match="non-finite"):
        CalibrationMatrix((0,), [[np.nan, 0.0], [np.nan, 1.0]])
    with pytest.raises(CalibrationError, match="non-finite"):
        CalibrationMatrix((0,), [[np.inf, 0.0], [-np.inf, 1.0]])


def test_calibration_matrix_entries_frozen():
    mat = CalibrationMatrix((0,), np.eye(2))
    with pytest.raises(ValueError):
        mat.entries[0, 0] = 0.5


def test_patch_size_bound():
    # the bound holds where patches enter the calibration path, not on the type
    wide = CalibrationMatrix(tuple(range(MAX_PATCH_QUBITS + 1)), np.eye(1 << (MAX_PATCH_QUBITS + 1)))
    with pytest.raises(CalibrationError, match="qubit bound"):
        assemble_for_measured([wide], range(MAX_PATCH_QUBITS + 1))
    with pytest.raises(CalibrationError, match="qubit bound"):
        assemble_for_measured([((0, 1), np.eye(4)), wide], (0, 1))


def test_counts_record_roundtrip_and_validation():
    rec = CountsRecord((2, 5), "01", {"01": 90, "11": 10}, 100, device="dev", timestamp="t")
    assert CountsRecord.from_json(rec.to_json()) == rec
    with pytest.raises(CalibrationError):
        CountsRecord((2, 5), "01", {"01": 90}, 100)
    with pytest.raises(CalibrationError):
        CountsRecord((2, 5), "0", {"01": 100}, 100)
    with pytest.raises(CalibrationError):
        CountsRecord((2, 5), "01", {"011": 100}, 100)
    # counts that would truncate to a passing record
    for counts in ({"01": 99.5, "11": 0.5}, {"01": 100.5, "11": -0.5}):
        with pytest.raises(CalibrationError, match="counts must be"):
            CountsRecord.from_json({**rec.to_json(), "counts": counts})
    whole = CountsRecord.from_json({**rec.to_json(), "counts": {"01": 90.0, "11": 10.0}})
    assert whole == rec and all(type(v) is int for v in whole.counts.values())


def test_preparation_circuits_order():
    assert preparation_circuits((3, 7)) == ["00", "01", "10", "11"]
    assert preparation_circuits((4,)) == ["0", "1"]


def test_group_preparation_circuits_merges_disjoint_patches():
    circuits = group_preparation_circuits([(0, 1), (4, 6)])
    assert len(circuits) == 4
    assert circuits[0] == {0: 0, 1: 0, 4: 0, 6: 0}
    assert circuits[1] == {0: 0, 1: 1, 4: 0, 6: 1}
    assert circuits[2] == {0: 1, 1: 0, 4: 1, 6: 0}
    with pytest.raises(CalibrationError):
        group_preparation_circuits([(0, 1), (1, 2)])


def test_estimate_matrix_exact_columns():
    support = (0, 1)
    records = []
    columns = {
        "00": {"00": 80, "01": 10, "10": 10},
        "01": {"01": 90, "00": 10},
        "10": {"10": 95, "11": 5},
        "11": {"11": 100},
    }
    for prepared, counts in columns.items():
        records.append(CountsRecord(support, prepared, counts, 100))
    mat = estimate_matrix(records)
    assert mat.entries[0, 0] == pytest.approx(0.80)
    assert mat.entries[1, 1] == pytest.approx(0.90)
    assert np.allclose(mat.entries.sum(axis=0), 1.0)
    with pytest.raises(CalibrationError):
        estimate_matrix(records[:3])
    with pytest.raises(CalibrationError):
        estimate_matrix(records + [records[0]])


# --- marginals ---------------------------------------------------------------


def test_normalized_partial_trace_of_product_recovers_factor():
    rng = np.random.default_rng(7)
    for _ in range(20):
        a = random_single(rng)
        b = random_single(rng)
        mat = CalibrationMatrix((1, 4), np.kron(a, b))
        assert np.allclose(normalized_partial_trace(mat, {1}).entries, a, atol=1e-12)
        assert np.allclose(normalized_partial_trace(mat, {4}).entries, b, atol=1e-12)


def test_normalized_partial_trace_matches_oracle_on_correlated():
    rng = np.random.default_rng(11)
    arr = random_stochastic(rng, 8)
    mat = CalibrationMatrix((0, 2, 5), arr)
    got = normalized_partial_trace(mat, {0, 5})
    assert got.support == (0, 5)
    assert np.allclose(got.entries, oracle_normalized_trace(arr, [0, 2], 3), atol=1e-12)
    single = normalized_partial_trace(mat, {2})
    assert np.allclose(single.entries, oracle_normalized_trace(arr, [1], 3), atol=1e-12)


def test_normalized_partial_trace_rejects_bad_keep():
    mat = CalibrationMatrix((0, 1), np.eye(4))
    with pytest.raises(CalibrationError):
        normalized_partial_trace(mat, {3})
    with pytest.raises(CalibrationError):
        normalized_partial_trace(mat, set())


# --- fractional powers -------------------------------------------------------


def test_fractional_power_square_root_roundtrip():
    c1 = np.array([[0.9, 0.2], [0.1, 0.8]])
    root = fractional_power(c1, 0.5)
    assert np.allclose(root @ root, c1, atol=1e-8)
    assert np.allclose(root.sum(axis=0), 1.0, atol=1e-10)


def test_fractional_power_roundtrip_many():
    rng = np.random.default_rng(3)
    for _ in range(25):
        if rng.uniform() < 0.5:
            c = random_single(rng)
        else:
            c = np.kron(random_single(rng), random_single(rng))
        for v in (2, 3, 5):
            m = fractional_power(c, 1.0 / v)
            assert np.allclose(np.linalg.matrix_power(m, v), c, atol=1e-8)
            assert np.allclose(m.sum(axis=0), 1.0, atol=1e-9)


def test_fractional_power_rejects_complex_spectrum():
    shift = np.roll(np.eye(4), 1, axis=0)  # eigenvalues on the unit circle
    mixed = 0.7 * shift + 0.3 * np.eye(4)
    with pytest.raises(CalibrationError):
        fractional_power(mixed, 0.5)


def test_fractional_power_exponent_one_is_identity_op():
    c = np.array([[0.9, 0.2], [0.1, 0.8]])
    assert np.allclose(fractional_power(c, 1.0), c)
    with pytest.raises(CalibrationError):
        fractional_power(c, 0.0)
    with pytest.raises(CalibrationError):
        fractional_power(c, 1.5)


def test_fractional_power_rejects_negative_spectrum():
    flipper = np.array([[0.1, 0.9], [0.9, 0.1]])  # eigenvalue -0.8
    with pytest.raises(CalibrationError):
        fractional_power(flipper, 0.5)


def test_fractional_power_regularizes_mildly_bad_spectrum():
    # eigenvalues 1 and ~-1e-7: regularization ladder should rescue it
    almost = np.array([[0.5, 0.5 - 1e-7], [0.5, 0.5 + 1e-7]])
    m = fractional_power(normalize_columns(almost), 0.5)
    assert np.isfinite(m).all()


# --- order adjustment --------------------------------------------------------


def test_order_adjust_v1_is_identity():
    rng = np.random.default_rng(5)
    mat = CalibrationMatrix((0, 1), random_stochastic(rng, 4))
    assert np.allclose(order_adjust(mat, 1, 1, 0), mat.entries)


def test_order_adjust_halves_shared_marginal_on_products():
    rng = np.random.default_rng(9)
    ci = random_single(rng)
    cj = random_single(rng)
    mat = CalibrationMatrix((2, 3), np.kron(ci, cj))
    adj = order_adjust(mat, 3, 2, 0)
    assert np.allclose(adj, np.kron(ci, fractional_power(cj, 0.5)), atol=1e-10)
    adj = order_adjust(mat, 2, 2, 1)
    # v_a = 1 of 2: left factor is C_i^0 = I, right is C_i^(1/2)
    assert np.allclose(
        adj, np.kron(ci @ np.linalg.inv(fractional_power(ci, 0.5)), cj), atol=1e-10
    )


def test_order_adjust_trace_contract_on_products():
    rng = np.random.default_rng(13)
    for _ in range(40):
        ci = random_single(rng)
        cj = random_single(rng)
        mat = CalibrationMatrix((0, 1), np.kron(ci, cj))
        v = int(rng.integers(2, 5))
        v_a = int(rng.integers(0, v))
        shared = int(rng.integers(0, 2))
        adj = order_adjust(mat, shared, v, v_a)
        shared_pos = shared
        other_pos = 1 - shared
        want_shared = fractional_power(cj if shared_pos == 1 else ci, 1.0 / v)
        got_shared = oracle_normalized_trace(adj, [shared_pos], 2)
        assert np.allclose(got_shared, want_shared, atol=1e-9)
        # trace over the shared qubit is untouched (after renormalization)
        got_other = oracle_normalized_trace(adj, [other_pos], 2)
        want_other = oracle_normalized_trace(mat.entries, [other_pos], 2)
        assert np.allclose(got_other, want_other, atol=1e-9)


def test_order_adjust_validates_arguments():
    mat = CalibrationMatrix((0, 1), np.eye(4))
    with pytest.raises(CalibrationError):
        order_adjust(mat, 5, 2, 0)
    with pytest.raises(CalibrationError):
        order_adjust(mat, 0, 2, 2)


# --- joining -----------------------------------------------------------------


def test_assemble_rejects_duplicate_and_double_overlap_patches():
    pair = CalibrationMatrix((0, 1), np.eye(4))
    with pytest.raises(CalibrationError, match="duplicate"):
        assemble_for_measured([pair, pair], range(2))
    triples = [CalibrationMatrix((0, 1, 2), np.eye(8)), CalibrationMatrix((1, 2, 3), np.eye(8))]
    with pytest.raises(CalibrationError, match="more than one qubit"):
        assemble_for_measured(triples, range(4))
    # sharing one qubit is the normal overlap and is accepted
    chain = [CalibrationMatrix((0, 1), np.eye(4)), CalibrationMatrix((1, 2), np.eye(4))]
    assert len(assemble_for_measured(chain, range(3)).factors) == 2


def test_join_chain_reproduces_independent_noise():
    rng = np.random.default_rng(21)
    singles = [random_single(rng) for _ in range(3)]
    patches = [
        CalibrationMatrix((0, 1), np.kron(singles[0], singles[1])),
        CalibrationMatrix((1, 2), np.kron(singles[1], singles[2])),
    ]
    cal = assemble_for_measured(patches, range(3))
    want = np.kron(np.kron(singles[0], singles[1]), singles[2])
    assert np.allclose(cal.dense(3), want, atol=1e-9)


def test_join_square_plaquette_reproduces_independent_noise():
    rng = np.random.default_rng(23)
    singles = [random_single(rng) for _ in range(4)]
    supports = [(0, 1), (0, 3), (1, 2), (2, 3)]
    patches = [
        CalibrationMatrix(s, np.kron(singles[s[0]], singles[s[1]])) for s in supports
    ]
    cal = assemble_for_measured(patches, range(4))
    want = np.kron(np.kron(singles[0], singles[1]), np.kron(singles[2], singles[3]))
    assert np.max(np.abs(cal.dense(4) - want)) < 1e-8


def test_join_exact_on_disjoint_edge_matching():
    # ground truth factorizes over the matching {(0,1), (2,3)} of a path;
    # the straddling middle patch only sees the product of the marginals.
    rng = np.random.default_rng(27)
    m01 = random_stochastic(rng, 4)
    m23 = random_stochastic(rng, 4)
    m1 = oracle_normalized_trace(m01, [1], 2)
    m2 = oracle_normalized_trace(m23, [0], 2)
    patches = [
        CalibrationMatrix((0, 1), m01),
        CalibrationMatrix((1, 2), np.kron(m1, m2)),
        CalibrationMatrix((2, 3), m23),
    ]
    cal = assemble_for_measured(patches, range(4))
    truth = np.kron(m01, m23)
    assert np.linalg.norm(cal.dense(4) - truth) < 1e-9


def test_joined_factors_stay_column_stochastic_in_product():
    rng = np.random.default_rng(31)
    patches = [
        CalibrationMatrix((0, 1), random_stochastic(rng, 4)),
        CalibrationMatrix((1, 2), random_stochastic(rng, 4)),
        CalibrationMatrix((2, 3), random_stochastic(rng, 4)),
    ]
    dense = assemble_for_measured(patches, range(4)).dense(4)
    assert np.allclose(dense.sum(axis=0), 1.0, atol=1e-8)


# --- partial measurement -----------------------------------------------------


def test_assemble_single_measured_qubit_merges_straddles():
    rng = np.random.default_rng(33)
    c0, c1, c2 = (random_single(rng) for _ in range(3))
    patches = [
        CalibrationMatrix((0, 1), np.kron(c0, c1)),
        CalibrationMatrix((0, 2), np.kron(c0, c2)),
    ]
    cal = assemble_for_measured(patches, {0})
    assert len(cal.factors) == 1
    support, arr = cal.factors[0]
    assert support == (0,)
    assert np.allclose(arr, c0, atol=1e-8)


def test_assemble_mixed_kept_and_straddling():
    rng = np.random.default_rng(37)
    singles = [random_single(rng) for _ in range(3)]
    patches = [
        CalibrationMatrix((0, 1), np.kron(singles[0], singles[1])),
        CalibrationMatrix((1, 2), np.kron(singles[1], singles[2])),
    ]
    cal = assemble_for_measured(patches, {0, 1})
    dense = cal.dense(2)
    assert np.allclose(dense, np.kron(singles[0], singles[1]), atol=1e-8)


def test_assemble_uncovered_qubit_uses_singles_or_identity(caplog):
    rng = np.random.default_rng(39)
    c5 = CalibrationMatrix((5,), random_single(rng))
    patches = [CalibrationMatrix((0, 1), random_stochastic(rng, 4))]
    cal = assemble_for_measured(patches, {0, 1, 5}, singles={5: c5})
    assert cal.factors[-1][0] == (5,)
    assert np.allclose(cal.factors[-1][1], c5.entries)
    import logging

    with caplog.at_level(logging.WARNING):
        cal = assemble_for_measured(patches, {0, 1, 5})
    assert np.allclose(cal.factors[-1][1], np.eye(2))
    assert any("not covered" in r.message for r in caplog.records)


# --- inversion and application ----------------------------------------------


def dists_close(a: Distribution, b: Distribution, atol=1e-9):
    keys = set(a.entries) | set(b.entries)
    return all(abs(a.entries.get(k, 0.0) - b.entries.get(k, 0.0)) <= atol for k in keys)


def test_invert_reverses_order_and_inverts():
    rng = np.random.default_rng(41)
    f0, f1 = random_stochastic(rng, 4), random_single(rng)
    cal = SparseCalibration((((0, 1), f0), ((2,), f1)), "forward")
    inv = invert(cal)
    assert inv.direction == "inverse"
    assert inv.factors[0][0] == (2,)
    assert np.allclose(inv.factors[0][1], np.linalg.inv(f1))
    assert np.allclose(inv.factors[1][1], np.linalg.inv(f0))


def test_invert_ridge_rescues_rank_deficient_factor(caplog):
    degenerate = np.array([[0.5, 0.5], [0.5, 0.5]])
    cal = SparseCalibration((((3,), degenerate),), "forward")
    with caplog.at_level(logging.WARNING, logger="cmcal.calibration"):
        inv = invert(cal)
    assert any("ridge" in rec.message for rec in caplog.records)
    ridge = degenerate + 1e-8 * np.eye(2)
    assert np.allclose(inv.factors[0][1], np.linalg.inv(ridge))


def test_invert_singular_factor_raises_with_support():
    # ridge shift of 1e-8 lands this factor back on a singular matrix
    hopeless = np.array([[0.0, 0.0], [0.0, -1e-8]])
    cal = SparseCalibration((((3,), hopeless),), "forward")
    with pytest.raises(SingularFactorError) as err:
        invert(cal)
    assert err.value.support == (3,)


def test_apply_matches_dense_product():
    rng = np.random.default_rng(43)
    n = 5
    cal = SparseCalibration(
        (
            ((0, 2), random_stochastic(rng, 4)),
            ((1,), random_single(rng)),
            ((3, 4), random_stochastic(rng, 4)),
        ),
        "forward",
    )
    entries = {}
    for idx in rng.choice(1 << n, size=6, replace=False):
        entries[format(idx, f"0{n}b")] = float(rng.uniform(0.05, 1.0))
    total = sum(entries.values())
    dist = Distribution({k: v / total for k, v in entries.items()}, n)
    got = apply(cal, dist, cull_threshold=0.0)
    vec = np.zeros(1 << n)
    for key, val in dist.entries.items():
        vec[int(key, 2)] = val
    want = cal.dense(n) @ vec
    want = np.clip(want, 0.0, None)
    want /= want.sum()
    for idx, val in enumerate(want):
        assert abs(got.entries.get(format(idx, f"0{n}b"), 0.0) - val) < 1e-10


def test_apply_inverse_roundtrip():
    rng = np.random.default_rng(45)
    patches = [
        CalibrationMatrix((0, 1), random_stochastic(rng, 4)),
        CalibrationMatrix((1, 2), random_stochastic(rng, 4)),
    ]
    forward = assemble_for_measured(patches, range(3))
    dist = Distribution({"000": 0.5, "111": 0.3, "010": 0.2}, 3)
    corrupted = apply(forward, dist, cull_threshold=0.0)
    recovered = apply(invert(forward), corrupted, cull_threshold=0.0)
    assert dists_close(recovered, dist, atol=1e-8)


def test_apply_cull_threshold_stability():
    rng = np.random.default_rng(47)
    patches = [CalibrationMatrix((i, i + 1), random_stochastic(rng, 4)) for i in range(3)]
    cal = invert(assemble_for_measured(patches, range(4)))
    dist = Distribution({"0000": 0.45, "1111": 0.45, "0101": 0.1}, 4)
    a = apply(cal, dist, cull_threshold=0.0)
    b = apply(cal, dist, cull_threshold=1e-12)
    keys = set(a.entries) | set(b.entries)
    assert sum(abs(a.entries.get(k, 0.0) - b.entries.get(k, 0.0)) for k in keys) < 1e-6


def test_apply_culls_aggressively_when_asked():
    cal = SparseCalibration((((0,), np.array([[0.99, 0.0], [0.01, 1.0]])),), "forward")
    dist = Distribution({"0": 1.0}, 1)
    got = apply(cal, dist, cull_threshold=0.05)
    assert set(got.entries) == {"0"}
    assert got.entries["0"] == pytest.approx(1.0)


def test_distribution_finalized_clamps_and_renormalizes():
    dist = Distribution({"00": 0.5, "01": -0.2, "10": 1.5}, 2)
    fin = dist.finalized()
    assert set(fin.entries) == {"00", "10"}
    assert fin.entries["00"] == pytest.approx(0.25)
    assert fin.entries["10"] == pytest.approx(0.75)
    with pytest.raises(CalibrationError):
        Distribution({"00": -1.0}, 2).finalized()
    with pytest.raises(CalibrationError):
        Distribution({"000": 1.0}, 2)


def test_distribution_holds_sorted_index_arrays():
    dist = Distribution({"11": 0.25, "00": 0.5, "10": 0.25}, 2)
    assert dist.index.dtype == np.uint64 and dist.index.tolist() == [0, 2, 3]
    assert dist.weights.tolist() == [0.5, 0.25, 0.25]
    assert list(dist.entries) == ["00", "10", "11"]
    with pytest.raises(TypeError):
        dist.entries["00"] = 1.0
    with pytest.raises(ValueError):
        dist.weights[0] = 1.0
    assert Distribution.from_arrays([3, 0, 2], [0.25, 0.5, 0.25], 2) == dist
    index, weights = np.array([0, 2, 3], dtype=np.uint64), np.array([0.5, 0.25, 0.25])
    assert Distribution.from_arrays(index, weights, 2) == dist
    index[0], weights[0] = 1, 0.0  # the caller's arrays stay theirs
    assert dist.index.tolist() == [0, 2, 3] and dist.weights.tolist() == [0.5, 0.25, 0.25]
    with pytest.raises(CalibrationError, match="repeated"):
        Distribution.from_arrays([1, 1], [0.5, 0.5], 2)
    with pytest.raises(CalibrationError, match="exceeds"):
        Distribution.from_arrays([4], [1.0], 2)
    with pytest.raises(CalibrationError, match="64-qubit index bound"):
        Distribution.from_arrays([0], [1.0], 65)
    assert Distribution({"1" * 64: 1.0}, 64).index.tolist() == [2**64 - 1]


def test_distribution_from_counts_rejects_malformed_counts():
    got = Distribution.from_counts({"11": 1, "00": 3, "01": 0}, 2)
    assert got.entries == {"00": 0.75, "11": 0.25}
    for counts in ({"00": 5, "11": -1}, {"00": 1.5}, {"00": float("nan")}, {"00": "x"}):
        with pytest.raises(CalibrationError):
            Distribution.from_counts(counts, 2)
    with pytest.raises(CalibrationError, match="empty counts"):
        Distribution.from_counts({"00": 0}, 2)


@pytest.mark.parametrize("key", ["0a", "2 ", " 1", "1\n", "０1", "01 "])
def test_distribution_rejects_keys_with_a_bad_character(key):
    with pytest.raises(CalibrationError, match="is not a 2-bit string"):
        Distribution({"01": 0.5, key: 0.5}, 2)
    assert Distribution({"01": 0.5, "10": 0.5}, 2).entries == {"01": 0.5, "10": 0.5}
    with pytest.raises(CalibrationError, match="does not fit support"):
        CountsRecord((0, 1), "01", {"01": 5, key: 5}, 10)


def test_embed_dense_places_factor_on_support():
    rng = np.random.default_rng(49)
    a = random_single(rng)
    got = embed_dense(a, (1,), 3)
    want = np.kron(np.kron(np.eye(2), a), np.eye(2))
    assert np.allclose(got, want)
    b = random_stochastic(rng, 4)
    got = embed_dense(b, (0, 2), 3)
    tensor = np.kron(b, np.eye(2)).reshape([2] * 6)
    want = tensor.transpose([0, 2, 1, 3, 5, 4]).reshape(8, 8)
    assert np.allclose(got, want)
