"""Tests of the benchmark's sampler and oracles against cmcal's exact paths.

    python3 -m pytest perfbench -q

The sampler and oracles never import cmcal; these tests are the only place
they meet it, on registers of at most 8 qubits.
"""

import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import reference  # noqa: E402
from cmcal import (  # noqa: E402
    CalibrationMatrix,
    Distribution,
    NoiseModel,
    assemble_for_measured,
    correlated_channel,
    generate_architecture,
    greedy_patch_plan,
    ideal_ghz,
    invert,
    state_dependent_channel,
)


def _model(n, rates, edges, p_edge):
    """cmcal's model of the same noise: per-qubit channels listed first and
    edge flips after, so the edge flips act first."""
    channels = [state_dependent_channel(a, b, qubit=q) for q, (a, b) in enumerate(rates)]
    channels += [correlated_channel(e, "pairwise_flip", p_edge) for e in edges]
    return NoiseModel(n, channels)


def _chi2_bound(df, z=4.0):
    """Wilson-Hilferty upper quantile of chi-square with ``df`` degrees of
    freedom, ``z`` standard deviations out (z=4 is a tail of about 3e-5)."""
    a = 2.0 / (9.0 * df)
    return df * (1.0 - a + z * np.sqrt(a)) ** 3


def _chi2(counts, exact, shots):
    """Chi-square statistic over bins expected to hold at least 5 shots, with
    the rest pooled into one bin."""
    stat, df, pooled_obs, pooled_exp = 0.0, -1, 0.0, 0.0
    for key, p in exact.items():
        expected = p * shots
        observed = counts.get(key, 0)
        if expected >= 5.0:
            stat += (observed - expected) ** 2 / expected
            df += 1
        else:
            pooled_obs += observed
            pooled_exp += expected
    assert set(counts) <= set(exact)
    if pooled_exp >= 5.0:
        stat += (pooled_obs - pooled_exp) ** 2 / pooled_exp
        df += 1
    return stat, df


CASES = [
    ("grid", {"rows": 2, "cols": 3}, 0.05, None),
    ("heavy_hex", {"num_qubits": 8}, 0.05, None),
    ("heavy_hex", {"num_qubits": 8}, 0.05, (0, 1, 2, 5, 7)),
    ("grid", {"rows": 2, "cols": 2}, 0.0, (1, 3)),
]


@pytest.mark.parametrize("kind,params,p_edge,measured", CASES)
def test_ghz_sampler_matches_exact_corruption(kind, params, p_edge, measured):
    cmap = generate_architecture(kind, **params)
    n = cmap.num_qubits
    rng = np.random.default_rng(11)
    rates = rng.uniform(0.02, 0.08, size=(n, 2))
    exact = _model(n, rates, cmap.edges, p_edge).corrupted(ideal_ghz(n), measured)
    shots = 200_000
    counts = reference.sample_ghz_counts(n, rates, cmap.edges, p_edge, shots, rng, measured)
    assert sum(counts.values()) == shots
    stat, df = _chi2(counts, exact.entries, shots)
    assert df >= 3
    assert stat < _chi2_bound(df), (stat, df)


def test_basis_sampler_matches_exact_corruption():
    cmap = generate_architecture("grid", rows=2, cols=3)
    n = cmap.num_qubits
    rng = np.random.default_rng(12)
    rates = rng.uniform(0.02, 0.08, size=(n, 2))
    assignment = {0: 1, 1: 0, 4: 1, 5: 1}
    bits = "".join(str(assignment.get(q, 0)) for q in range(n))
    exact = _model(n, rates, cmap.edges, 0.05).corrupted(Distribution.point_mass(bits))
    shots = 200_000
    read = reference.sample_bits(
        reference.basis_shots(assignment, n, shots), rates, cmap.edges, 0.05, rng)
    stat, df = _chi2(reference.counts_of(read), exact.entries, shots)
    assert stat < _chi2_bound(df), (stat, df)


@pytest.mark.parametrize("qubits", [(0,), (3,), (0, 1), (1, 4), (2, 5), (0, 4, 5)])
def test_exact_marginal_matches_corrupted_marginal(qubits):
    cmap = generate_architecture("grid", rows=2, cols=3)
    n = cmap.num_qubits
    rates = np.random.default_rng(13).uniform(0.02, 0.08, size=(n, 2))
    model = _model(n, rates, cmap.edges, 0.05)
    want = model.corrupted(ideal_ghz(n)).marginal(tuple(sorted(qubits)))
    got = reference.exact_ghz_marginal(rates, cmap.edges, 0.05, qubits)
    dense = np.zeros(1 << len(qubits))
    for key, value in want.entries.items():
        dense[int(key, 2)] = value
    assert np.abs(got - dense).max() < 1e-12


@pytest.mark.parametrize("kind,params", [("grid", {"rows": 2, "cols": 3}),
                                         ("heavy_hex", {"num_qubits": 8})])
def test_kron_oracle_matches_dense_inverse_of_exact_store(kind, params):
    cmap = generate_architecture(kind, **params)
    n = cmap.num_qubits
    rates = np.random.default_rng(14).uniform(0.02, 0.08, size=(n, 2))
    patches = [
        CalibrationMatrix(p, np.kron(*(reference.readout_matrix(*rates[q]) for q in p)))
        for p in greedy_patch_plan(cmap, 1).patches
    ]
    dense = invert(assemble_for_measured(patches, range(n))).dense(n)
    oracle = reference.kron_inverse(rates, range(n))
    assert np.abs(dense - oracle).max() < 1e-9


def test_kron_mitigate_inverts_the_exact_readout():
    n = 5
    rates = np.random.default_rng(15).uniform(0.02, 0.08, size=(n, 2))
    ideal = np.zeros(1 << n)
    ideal[0] = ideal[-1] = 0.5
    forward = np.linalg.inv(reference.kron_inverse(rates, range(n)))
    observed = {format(i, f"0{n}b"): p for i, p in enumerate(forward @ ideal)}
    assert np.abs(reference.kron_mitigate(rates, tuple(range(n)), observed) - ideal).sum() < 1e-12


def test_ghz_one_norm():
    assert reference.ghz_one_norm({"000": 0.5, "111": 0.5}, 3) == 0.0
    assert reference.ghz_one_norm({"000": 1.0}, 3) == pytest.approx(1.0)
    assert reference.ghz_one_norm({"010": 1.0}, 3) == pytest.approx(2.0)
