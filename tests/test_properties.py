"""Property tests against dense oracles: the factored calibration algebra,
the index-array distribution, and the calibration store."""

import os
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from cmcal.bench import CalibrationStore, one_norm
from cmcal.calibration import Distribution, assemble_for_measured, invert
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
