"""Property tests of the factored calibration algebra against the dense oracle."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from cmcal.calibration import assemble_for_measured, invert
from cmcal.noise import NoiseModel, correlated_channel, state_dependent_channel
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
