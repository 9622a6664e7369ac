"""Property tests against dense oracles: the factored calibration algebra,
the index-array distribution, and the calibration store."""

import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmcal.bench import CalibrationStore, one_norm
from cmcal.calibration import (
    CalibrationError,
    Distribution,
    SparseCalibration,
    _deposit_index,
    _run_factors,
    apply,
    assemble_for_measured,
    extract_index,
    invert,
    support_mask,
)
from cmcal.noise import NoiseModel, NoiseSpec, correlated_channel, state_dependent_channel
from cmcal.strategies import calibrate_patches
from cmcal.topology import generate_architecture, greedy_patch_plan

_rate = st.floats(0.0, 0.2)


@st.composite
def chain_noise(draw):
    n = draw(st.integers(2, 6))
    rates = draw(st.lists(st.tuples(_rate, _rate), min_size=n, max_size=n))
    flips = draw(st.lists(st.floats(0.0, 0.2), min_size=n - 1, max_size=n - 1))
    return n, rates, flips


@settings(derandomize=True, max_examples=40, deadline=None)
@given(chain_noise())
def test_exact_join_is_column_stochastic_and_inverts(case):
    n, rates, flips = case
    cmap = generate_architecture("linear", num_qubits=n)
    channels = tuple(
        state_dependent_channel(p01, p10, qubit=q) for q, (p01, p10) in enumerate(rates)
    ) + tuple(correlated_channel((q, q + 1), "pairwise_flip", p) for q, p in enumerate(flips))
    patches, _ = calibrate_patches(NoiseModel(n, channels), greedy_patch_plan(cmap, 1))
    forward = assemble_for_measured(patches, range(n))
    dense = forward.dense(n)
    assert np.abs(dense.sum(axis=0) - 1.0).max() <= 1e-9
    assert np.allclose(invert(forward).dense(n) @ dense, np.eye(1 << n), atol=1e-8)


@st.composite
def distributions(draw, n=None, signed=True):
    if n is None:
        n = draw(st.integers(1, 10))
    index = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=40, unique=True))
    low = -1.0 if signed else 0.01
    weights = draw(st.lists(st.floats(low, 1.0), min_size=len(index), max_size=len(index)))
    return Distribution.from_arrays(index, weights, n)


@st.composite
def supports_and_indices(draw):
    n = draw(st.integers(1, 64))
    support = tuple(sorted(draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n))))
    index = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=20))
    return n, support, np.array(index, dtype=np.uint64)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(supports_and_indices())
def test_bit_runs_move_the_bits_a_per_qubit_loop_moves(case):
    n, support, index = case
    p = len(support)
    want = np.zeros_like(index)
    for pos, q in enumerate(support):
        want |= ((index >> np.uint64(n - 1 - q)) & np.uint64(1)) << np.uint64(p - 1 - pos)
    local = extract_index(index, support, n)
    assert np.array_equal(local, want)
    back = _deposit_index(local, support, n)
    assert np.array_equal(back, index & np.uint64(support_mask(support, n)))


def _dense(dist):
    vec = np.zeros(1 << dist.n)
    vec[dist.index] = dist.weights
    return vec


@settings(derandomize=True, max_examples=60, deadline=None)
@given(distributions(), st.data())
def test_distribution_round_trips_and_matches_the_dense_oracle(dist, data):
    n = dist.n
    assert dist.index.tolist() == [int(key, 2) for key in dist.entries]
    again = Distribution(dist.entries, n)
    assert again.index.dtype == np.uint64 and np.array_equal(again.index, dist.index)
    assert np.array_equal(again.weights, dist.weights)
    assert np.all(np.diff(dist.index.astype(np.int64)) > 0)

    support = tuple(sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1))))
    axes = tuple(q for q in range(n) if q not in support)
    want = _dense(dist).reshape((2,) * n).sum(axis=axes).ravel()
    assert np.allclose(_dense(dist.marginal(support)), want, rtol=0.0, atol=1e-12)

    other = data.draw(distributions(n))
    want = np.abs(_dense(dist) - _dense(other)).sum()
    assert abs(one_norm(dist, other) - want) <= 1e-12


@st.composite
def factor_lists(draw, n):
    """Up to six factors on 1-4 qubits of an n-qubit register: the identity
    plus signed perturbations, some entries exactly zero."""
    factors = []
    for _ in range(draw(st.integers(0, 6))):
        support = tuple(sorted(draw(st.sets(st.integers(0, n - 1), min_size=1,
                                            max_size=min(4, n)))))
        dim = 1 << len(support)
        noise = draw(st.lists(st.sampled_from([0.0, 0.0, -0.2, -0.05, 0.05, 0.1, 0.3]),
                              min_size=dim * dim, max_size=dim * dim))
        factors.append((support, np.eye(dim) + np.reshape(noise, (dim, dim))))
    return SparseCalibration(tuple(factors))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(distributions(signed=False), st.data())
def test_apply_matches_the_dense_product_after_clamping(dist, data):
    # On a register up to 10 qubits wide, any set bits outside the factors
    # included, apply without culling is the dense product, clamped and
    # renormalized.
    n = dist.n
    cal = data.draw(factor_lists(n))
    want = np.clip(cal.dense(n) @ _dense(dist), 0.0, None)
    if want.sum() <= 1e-9:
        with pytest.raises(CalibrationError):
            apply(cal, dist, cull_threshold=0.0)
        return
    got = apply(cal, dist, cull_threshold=0.0)
    assert got.n == n and np.all(np.diff(got.index.astype(np.int64)) > 0)
    assert np.all(got.weights > 0.0) and abs(got.total() - 1.0) <= 1e-12
    assert np.allclose(_dense(got), want / want.sum(), rtol=0.0, atol=1e-9)


@st.composite
def channel_lists(draw, n):
    """One to six forward channels on 1-3 qubits of an n-qubit register:
    columns summing to 1, some off-diagonal entries exactly zero."""
    factors = []
    for _ in range(draw(st.integers(1, 6))):
        support = tuple(sorted(draw(st.sets(st.integers(0, n - 1), min_size=1,
                                            max_size=min(3, n)))))
        dim = 1 << len(support)
        noise = draw(st.lists(st.sampled_from([0.0, 0.0, 0.01, 0.05, 0.1, 0.2]),
                              min_size=dim * dim, max_size=dim * dim))
        mat = np.eye(dim) + np.reshape(noise, (dim, dim))
        factors.append((support, mat / mat.sum(axis=0)))
    return SparseCalibration(tuple(factors))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(distributions(), st.data())
def test_factor_loop_conserves_signed_mass_without_culling(dist, data):
    # Columns summing to 1 keep the signed total, and so do the inverse
    # factors (1^T A = 1^T gives 1^T A^-1 = 1^T), before any clamp.
    n = dist.n
    forward = data.draw(channel_lists(n))
    for cal in (forward, invert(forward)):
        tensor = _dense(dist).reshape((2,) * n)
        out = _run_factors(tensor, list(cal.factors), cull_threshold=0.0)
        assert abs(out.sum() - dist.weights.sum()) <= 1e-12


@settings(derandomize=True, max_examples=25, deadline=None)
@given(
    st.sampled_from([("linear", {"num_qubits": 5}), ("grid", {"rows": 2, "cols": 3}),
                     ("heavy_hex", {"num_qubits": 8})]),
    st.integers(0, 2),
    st.integers(0, 2**16),
    st.sampled_from([None, 50]),
    st.data(),
)
def test_store_round_trip_mitigates_bit_identically(arch, separation, seed, shots, data):
    kind, params = arch
    cmap = generate_architecture(kind, **params)
    n = cmap.num_qubits
    model = NoiseModel.from_spec(n, NoiseSpec.random(n, seed))
    plan = greedy_patch_plan(cmap, separation)
    matrices, singles = calibrate_patches(model, plan, shots, seed=seed)
    store = CalibrationStore("prop", "now", tuple(matrices), plan, singles)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "store.json")
        store.save(path)
        loaded = CalibrationStore.load(path)
    dist = data.draw(distributions(n, signed=False))
    first, second = store.mitigate(dist), loaded.mitigate(dist)
    assert np.array_equal(first.index, second.index)
    assert np.array_equal(first.weights, second.weights)

    # measured-width input: bit i is the i-th measured qubit; the register-wide
    # input with those bits in place mitigates to the same arrays, narrowed
    measured = tuple(sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1))))
    narrow = data.draw(distributions(len(measured), signed=False))
    k = len(measured)
    spread = [
        sum(1 << (n - 1 - q) for i, q in enumerate(measured) if index >> (k - 1 - i) & 1)
        for index in narrow.index.tolist()
    ]
    wide = Distribution.from_arrays(spread, narrow.weights, n)
    got = loaded.mitigate(narrow, measured)
    want = store.mitigate(wide, measured).marginal(measured)
    assert got.n == k
    assert np.array_equal(got.index, want.index)
    assert np.array_equal(got.weights, want.weights)
