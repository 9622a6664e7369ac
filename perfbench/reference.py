"""The benchmark's own noise sampler and oracles, written apart from cmcal.

Nothing here imports the program.  The noise is the one the benchmark feeds
the program: one state-dependent readout channel per qubit, ``(p01, p10)``,
plus an optional joint flip of probability ``p_edge`` on every coupling-map
edge.  The order is that of a cmcal ``NoiseSpec`` whose correlated channels
are the edge flips: edge flips act on the prepared bits first, readout flips
act last.  Under subset measurement a channel fires only when its whole
support is measured, so an edge flip needs both of its qubits measured.

Bitstrings put qubit ``q`` at character ``q`` (qubit 0 leftmost), as cmcal
does.
"""

from __future__ import annotations

import itertools
from functools import reduce

import numpy as np


def _readout(bits, p01, p10, rng):
    """Flip each true 0 with p01 and each true 1 with p10, per shot and qubit."""
    u = rng.random(bits.shape)
    return bits ^ np.where(bits, u < p10, u < p01)


def sample_bits(prepared, rates, edges, p_edge, rng, measured=None):
    """Per-shot noisy readout of prepared register states.

    ``prepared`` is a ``(shots, n)`` boolean array of true bits, ``rates`` an
    ``(n, 2)`` array of ``(p01, p10)``.  Returns the ``(shots, k)`` boolean
    array of read bits on the ``measured`` qubits (all, by default).
    """
    prepared = np.asarray(prepared, dtype=bool)
    n = prepared.shape[1]
    measured = tuple(range(n)) if measured is None else tuple(measured)
    pos = {q: i for i, q in enumerate(measured)}
    bits = prepared[:, list(measured)].copy()
    shots = bits.shape[0]
    if p_edge > 0.0:
        for a, b in edges:
            if a in pos and b in pos:
                fire = rng.random(shots) < p_edge
                bits[:, pos[a]] ^= fire
                bits[:, pos[b]] ^= fire
    rates = np.asarray(rates, dtype=float)[list(measured)]
    return _readout(bits, rates[:, 0], rates[:, 1], rng)


def ghz_shots(n, shots, rng):
    """True bits of ``shots`` ideal GHZ shots: all zeros or all ones."""
    g = rng.integers(0, 2, size=shots).astype(bool)
    return np.repeat(g[:, None], n, axis=1)


def basis_shots(assignment, n, shots):
    """True bits of a basis-state preparation ``{qubit: bit}``, others 0."""
    row = np.zeros(n, dtype=bool)
    for q, bit in assignment.items():
        row[q] = bool(bit)
    return np.repeat(row[None, :], shots, axis=0)


def counts_of(bits):
    """``{bitstring: count}`` of a boolean ``(shots, k)`` array, k <= 64."""
    bits = np.asarray(bits, dtype=bool)
    k = bits.shape[1]
    place = np.uint64(1) << np.arange(k - 1, -1, -1, dtype=np.uint64)
    index = (bits.astype(np.uint64) * place).sum(axis=1, dtype=np.uint64)
    values, counts = np.unique(index, return_counts=True)
    return {format(int(v), f"0{k}b"): int(c) for v, c in zip(values, counts)}


def sample_ghz_counts(n, rates, edges, p_edge, shots, rng, measured=None):
    """Counts of GHZ shots read through the noise, on the measured qubits.

    No channel with an unmeasured qubit fires (see ``sample_bits``).
    """
    return counts_of(sample_bits(ghz_shots(n, shots, rng), rates, edges, p_edge, rng, measured))


def _odd(k, p):
    """Probability that an odd number of ``k`` independent p-flips fire."""
    return 0.5 * (1.0 - (1.0 - 2.0 * p) ** k)


def exact_ghz_marginal(rates, edges, p_edge, qubits):
    """Exact distribution of the fully measured noisy GHZ register on ``qubits``.

    Returns a vector over the local basis of ``qubits`` (first listed qubit is
    the most significant bit).  Every edge flip fires; edges are grouped by
    which of ``qubits`` they touch, and each group's parity is independent.
    """
    qubits = tuple(qubits)
    k = len(qubits)
    rates = np.asarray(rates, dtype=float)
    touch = {}
    for a, b in edges:
        key = tuple(i for i, q in enumerate(qubits) if q in (a, b))
        if key:
            touch[key] = touch.get(key, 0) + 1
    groups = sorted(touch.items())
    out = np.zeros(1 << k)
    for g in (0, 1):
        for parities in itertools.product((0, 1), repeat=len(groups)):
            weight = 0.5
            true = [g] * k
            for (members, count), odd in zip(groups, parities):
                p_odd = _odd(count, p_edge)
                weight *= p_odd if odd else 1.0 - p_odd
                if odd:
                    for i in members:
                        true[i] ^= 1
            if weight == 0.0:
                continue
            for read in range(1 << k):
                prob = weight
                for i, q in enumerate(qubits):
                    bit = (read >> (k - 1 - i)) & 1
                    p01, p10 = rates[q]
                    flip = p10 if true[i] else p01
                    prob *= flip if bit != true[i] else 1.0 - flip
                out[read] += prob
    return out


def readout_matrix(p01, p10):
    """Column-stochastic 2x2 readout channel ``[observed, true]``."""
    return np.array([[1.0 - p01, p10], [p01, 1.0 - p10]])


def kron_inverse(rates, qubits):
    """Dense inverse of the per-qubit readout noise on ``qubits``: the
    Kronecker product of each qubit's 2x2 inverse, first qubit outermost."""
    rates = np.asarray(rates, dtype=float)
    return reduce(np.kron, (np.linalg.inv(readout_matrix(*rates[q])) for q in qubits))


def kron_mitigate(rates, qubits, observed):
    """Oracle mitigation of ``{bitstring: probability}`` on ``qubits``.

    Applies the per-qubit inverses one tensor axis at a time, then clamps
    negative weights and renormalizes, as mitigation does.  Returns a dense
    vector over the local basis.
    """
    k = len(qubits)
    rates = np.asarray(rates, dtype=float)
    vec = np.zeros(1 << k)
    for key, value in observed.items():
        vec[int(key, 2)] += value
    tensor = vec.reshape([2] * k)
    for axis, q in enumerate(qubits):
        inv = np.linalg.inv(readout_matrix(*rates[q]))
        tensor = np.moveaxis(np.tensordot(inv, tensor, axes=([1], [axis])), 0, axis)
    out = np.clip(tensor.reshape(-1), 0.0, None)
    return out / out.sum()


def ghz_one_norm(entries, k):
    """Sum |p(s) - q(s)| between ``{bitstring: p}`` and the k-qubit GHZ state."""
    zeros, ones = "0" * k, "1" * k
    rest = sum(abs(v) for key, v in entries.items() if key not in (zeros, ones))
    return rest + abs(entries.get(zeros, 0.0) - 0.5) + abs(entries.get(ones, 0.0) - 0.5)
