"""Ground-truth measurement-error channels and benchmark distributions.

A channel is a :class:`~cmcal.calibration.CalibrationMatrix`, the same
column-stochastic type the calibration side estimates; its support may span
the whole register.  A :class:`NoiseModel` holds an ordered set of channels
over a register and corrupts ideal :class:`~cmcal.calibration.Distribution`
objects exactly, into a Distribution over the measured region, before seeded
sampling.  The channels run through ``calibration._apply_factors``, the
factor path under mitigation's ``apply``, which raises ``CalibrationError``
when they touch too many qubits.  Corruption and sampling work on basis
indices; bitstrings are formed only for the ``{bitstring: count}`` results of
:meth:`NoiseModel.sample` and :func:`simulate_counts`.  The benchmark circuits (``ideal_ghz``,
``ghz_distribution``) are plain distributions too.

Subset measurement: when only a subset of the register is measured, a channel
fires only if its support lies entirely inside the measured set — correlated
readout errors are tied to the joint measurement of their qubits, so leaving
one qubit of a correlated cluster unmeasured suppresses that cluster's error.

Gate noise is reduced to a single knob: an independent bit-flip probability
per two-qubit gate, applied along the entangling schedule (and per X gate in
the one-qubit chain experiment).  There is no statevector simulation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .calibration import (
    CalibrationError,
    CalibrationMatrix,
    Distribution,
    _apply_factors,
    _summed,
    embed_dense,
    extract_index,
    support_mask,
)
from .topology import _bfs
# unused here, but perfbench/spans.py SITES wraps this name in this module
from .calibration import apply as apply_channels  # noqa: F401

__all__ = [
    "NoiseSpec",
    "NoiseModel",
    "state_dependent_channel",
    "correlated_channel",
    "compose",
    "ideal_ghz",
    "ghz_cnot_schedule",
    "ghz_distribution",
    "sample_distribution",
    "simulate_counts",
    "x_chain_experiment",
]


def _as_rng(seed):
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def state_dependent_channel(p01, p10, qubit=0):
    """One-qubit readout channel: 0 misread as 1 with p01, 1 as 0 with p10."""
    for name, p in (("p01", p01), ("p10", p10)):
        if not (0.0 <= p <= 1.0):
            raise ValueError(f"{name} must be in [0, 1], got {p}")
    matrix = [[1.0 - p01, p10], [p01, 1.0 - p10]]
    return CalibrationMatrix((qubit,), matrix)


_KIND_ARITY = {"pairwise_flip": 2, "triplet_flip": 3, "flip_all": None}


def correlated_channel(support, kind, p):
    """Joint-flip channel: with probability ``p`` every support bit flips."""
    if kind not in _KIND_ARITY:
        raise ValueError(f"unknown kind {kind!r}")
    support = tuple(int(q) for q in support)
    arity = _KIND_ARITY[kind]
    if arity is not None and len(support) != arity:
        raise ValueError(f"{kind} needs {arity} qubits, got {len(support)}")
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"p must be in [0, 1], got {p}")
    dim = 1 << len(support)
    matrix = (1.0 - p) * np.eye(dim)
    for v in range(dim):
        matrix[v ^ (dim - 1), v] += p
    return CalibrationMatrix(support, matrix)


def compose(channels, num_qubits):
    """Product of embedded channels in list order, as one channel on the
    full register: the dense oracle for small registers (``embed_dense``
    refuses wide ones).

    The *last* listed channel acts on a distribution first, matching the
    matrix product ``E(c1) @ E(c2) @ ... @ E(ck)``.
    """
    channels = tuple(channels)
    for ch in channels:
        if ch.support[-1] >= num_qubits:
            raise ValueError(f"support {ch.support} exceeds register {num_qubits}")
    # the identity goes through embed_dense too, so a wide register is
    # refused before anything register-sized is allocated
    acc = embed_dense(np.eye(2), (0,), num_qubits)
    for ch in channels:
        acc = acc @ embed_dense(ch.entries, ch.support, num_qubits)
    return CalibrationMatrix(tuple(range(num_qubits)), acc)


@dataclass(frozen=True)
class NoiseSpec:
    """Declarative register noise description.

    ``per_qubit[q] = (p01, p10)`` builds one state-dependent channel per
    listed qubit; ``correlated`` channels are applied on top (listed order,
    last acts first).  ``gate_flip`` is the per-entangling-gate bit-flip
    probability used when building circuit distributions.
    """

    per_qubit: dict
    correlated: tuple = ()
    gate_flip: float = 0.0

    def __post_init__(self):
        clean = {}
        for q, rates in self.per_qubit.items():
            p01, p10 = float(rates[0]), float(rates[1])
            if not (0.0 <= p01 <= 1.0 and 0.0 <= p10 <= 1.0):
                raise ValueError(f"rates for qubit {q} out of [0, 1]")
            clean[int(q)] = (p01, p10)
        if not (0.0 <= self.gate_flip <= 1.0):
            raise ValueError("gate_flip must be in [0, 1]")
        object.__setattr__(self, "per_qubit", clean)
        object.__setattr__(self, "correlated", tuple(self.correlated))

    @classmethod
    def random(cls, num_qubits, seed, low=0.02, high=0.08):
        """Draw independent p01, p10 ~ U[low, high] for every qubit."""
        rng = _as_rng(seed)
        per_qubit = {}
        for q in range(num_qubits):
            p01, p10 = rng.uniform(low, high, size=2)
            per_qubit[q] = (float(p01), float(p10))
        return cls(per_qubit)

    def channels(self, num_qubits):
        """Materialize all channels for a register of ``num_qubits``."""
        out = []
        for q in sorted(self.per_qubit):
            if q >= num_qubits:
                raise ValueError(f"qubit {q} exceeds register {num_qubits}")
            p01, p10 = self.per_qubit[q]
            out.append(state_dependent_channel(p01, p10, qubit=q))
        for ch in self.correlated:
            if ch.support[-1] >= num_qubits:
                raise ValueError(f"support {ch.support} exceeds register {num_qubits}")
            out.append(ch)
        return tuple(out)

    def to_json(self):
        return json.dumps(
            {
                "per_qubit": {str(q): list(r) for q, r in sorted(self.per_qubit.items())},
                "correlated": [
                    {"support": list(ch.support), "matrix": ch.entries.tolist()}
                    for ch in self.correlated
                ],
                "gate_flip": self.gate_flip,
            }
        )

    @classmethod
    def from_json(cls, text):
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise ValueError("noise spec must be a JSON object")
        correlated = []
        for item in doc.get("correlated", []):
            try:
                support = tuple(item["support"])
                if "matrix" in item:
                    correlated.append(CalibrationMatrix(support, item["matrix"]))
                else:
                    correlated.append(correlated_channel(support, item["kind"], item["p"]))
            except KeyError as exc:
                raise ValueError(f"correlated noise entry is missing field {exc}") from None
        return cls(
            {int(q): tuple(r) for q, r in doc.get("per_qubit", {}).items()},
            tuple(correlated),
            float(doc.get("gate_flip", 0.0)),
        )


class NoiseModel:
    """Fixed channel set over a register; corrupts and samples distributions."""

    def __init__(self, num_qubits, channels):
        if num_qubits <= 0:
            raise ValueError("num_qubits must be positive")
        channels = tuple(channels)
        for ch in channels:
            if ch.support[-1] >= num_qubits:
                raise ValueError(f"support {ch.support} exceeds register {num_qubits}")
        self.num_qubits = num_qubits
        self.channels = channels
        # last listed acts first, matching the dense composite product
        self._firing = tuple((frozenset(ch.support), ch) for ch in reversed(channels))

    @classmethod
    def from_spec(cls, num_qubits, spec):
        return cls(num_qubits, spec.channels(num_qubits))

    def _qubits(self, qubits):
        """``qubits`` as a strictly ascending tuple inside the register."""
        qubits = tuple(int(q) for q in qubits)
        if not qubits or list(qubits) != sorted(set(qubits)):
            raise ValueError(f"qubits {qubits} must be non-empty and strictly ascending")
        if qubits[0] < 0 or qubits[-1] >= self.num_qubits:
            raise ValueError(f"qubits {qubits} outside the {self.num_qubits}-qubit register")
        return qubits

    def _corrupt_region(self, ideal, region):
        """Exact corruption of ``ideal``'s marginal on the ascending ``region``
        by the channels whose supports lie inside it, as a :class:`Distribution`
        over the region.

        ``ideal`` is a register :class:`Distribution`, or a basis state given
        as ``{qubit: bit}`` with unlisted qubits 0: a basis state restricted
        to the region is a basis state, so it needs no register-wide index.
        If no channel fires, the region marginal comes back unchanged;
        otherwise the channels run on it in firing order through
        ``calibration._apply_factors``, which raises ``CalibrationError`` when
        they touch too many qubits.
        """
        p = len(region)
        if isinstance(ideal, Distribution):
            if ideal.n != self.num_qubits:
                raise CalibrationError(
                    f"distribution register {ideal.n} does not match model {self.num_qubits}"
                )
            local = extract_index(ideal.index, region, ideal.n)
            weights = ideal.weights
        else:
            flipped = tuple(i for i, q in enumerate(region) if ideal.get(q))
            local = np.array([support_mask(flipped, p)], dtype=np.uint64)
            weights = np.ones(1)
        pos = {q: i for i, q in enumerate(region)}
        factors = [
            (tuple(pos[q] for q in ch.support), ch.entries)
            for qubits, ch in self._firing
            if qubits <= pos.keys()
        ]
        if not factors:
            return Distribution._adopt(*_summed(local, weights), p)
        return _apply_factors(local, weights, p, factors)

    def corrupted(self, ideal, measured=None):
        """Exact observed distribution for a (subset) measurement."""
        region = tuple(range(self.num_qubits)) if measured is None else self._qubits(measured)
        return self._corrupt_region(ideal, region)

    def marginal_after_noise(self, ideal, keeps):
        """Marginals over each support in ``keeps`` of the fully measured
        corrupted distribution, one :class:`Distribution` per support.
        ``ideal`` is a register Distribution or a ``{qubit: bit}`` basis
        state, as in :meth:`_corrupt_region`.

        Each support is closed under overlapping channel supports, so its
        marginal is exact without touching the rest of the register.  Each
        distinct closure is corrupted once, and each support's marginal is
        taken from that one result with :meth:`Distribution.marginal`.
        """
        keeps = [self._qubits(keep) for keep in keeps]
        by_region = {}
        for slot, keep in enumerate(keeps):
            by_region.setdefault(self._closure(keep), []).append(slot)
        out = [None] * len(keeps)
        for region, slots in by_region.items():
            corrupted = self._corrupt_region(ideal, region)
            for slot in slots:
                out[slot] = corrupted.marginal(tuple(region.index(q) for q in keeps[slot]))
        return out

    def _closure(self, keep):
        closure = set(keep)
        grew = True
        while grew:
            grew = False
            for sup, _ in self._firing:
                if sup & closure and not sup <= closure:
                    closure |= sup
                    grew = True
        return tuple(sorted(closure))

    def sample(self, ideal, shots, seed, measured=None):
        """Seeded multinomial ``{bitstring: count}`` from the corrupted
        distribution; keys cover the measured qubits in ascending order."""
        counts = sample_distribution(self.corrupted(ideal, measured), shots, seed)
        return {key: int(count) for key, count in counts.entries.items()}


def sample_distribution(dist, shots, seed):
    """Seeded multinomial counts from a normalized :class:`Distribution`.

    Draws over its positive entries in index order and returns the drawn
    outcomes as a Distribution whose weights are their counts.
    """
    if shots <= 0:
        raise ValueError("shots must be positive")
    rng = _as_rng(seed)
    positive = dist.weights > 0.0
    probs = dist.weights[positive]
    probs /= probs.sum()
    draws = rng.multinomial(shots, probs)
    drawn = np.flatnonzero(draws)
    return Distribution._adopt(dist.index[positive][drawn], draws[drawn], dist.n)


# --- benchmark distributions ----------------------------------------------------


def ideal_ghz(n):
    """Equal mixture of all-zeros and all-ones."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return Distribution._adopt([0, (1 << n) - 1], [0.5, 0.5], n)


def ghz_cnot_schedule(cmap, root=0):
    """Entangling schedule: BFS tree edges (control, target) in visit order."""
    if not (0 <= root < cmap.num_qubits):
        raise IndexError(f"root {root} out of range")
    order = tuple((u, v) for u, v, _ in _bfs(cmap, root))
    if len(order) != cmap.num_qubits - 1:
        raise ValueError("coupling map is not connected from the root")
    return order


def ghz_distribution(cmap, gate_flip=0.0, root=0):
    """GHZ preparation distribution with optional per-gate target flips."""
    if not (0.0 <= gate_flip <= 1.0):
        raise ValueError("gate_flip must be in [0, 1]")
    n = cmap.num_qubits
    if gate_flip == 0.0:
        ghz_cnot_schedule(cmap, root)  # validates connectivity
        return ideal_ghz(n)
    if n > 20:
        raise ValueError("gate-flip propagation is limited to 20 qubits")
    index = np.array([0, 1 << (n - 1 - root)], dtype=np.uint64)
    probs = np.array([0.5, 0.5])
    for control, target in ghz_cnot_schedule(cmap, root):
        flip = np.uint64(1 << (n - 1 - target))
        flipped = np.where(index & np.uint64(1 << (n - 1 - control)), index ^ flip, index)
        # each state gets at most one term from each half, so the sums do
        # not depend on the order the halves are added in
        index, probs = _summed(
            np.concatenate([flipped, flipped ^ flip]),
            np.concatenate([probs * (1.0 - gate_flip), probs * gate_flip]),
        )
    return Distribution._adopt(index[probs > 0.0], probs[probs > 0.0], n)


def simulate_counts(ideal, channel, shots, seed, measured=None):
    """Corrupt an ideal distribution with a channel (or list) and sample."""
    if isinstance(channel, NoiseModel):
        model = channel
    else:
        channels = (channel,) if isinstance(channel, CalibrationMatrix) else tuple(channel)
        model = NoiseModel(ideal.n, channels)
    return model.sample(ideal, shots, seed, measured)


def x_chain_experiment(depth_max, channel, shots, seed, gate_flip=0.0):
    """Misread rate of one qubit after 1..depth_max X gates.

    The qubit ideally reads ``depth mod 2``; each X gate independently fails
    with probability ``gate_flip``, giving P(bit = depth mod 2) =
    (1 + (1 - 2*gate_flip)^depth) / 2, and the channel corrupts the readout.
    Returns ``((depth, error_rate), ...)``.
    """
    if depth_max < 1:
        raise ValueError("depth_max must be >= 1")
    if not (0.0 <= gate_flip <= 1.0):
        raise ValueError("gate_flip must be in [0, 1]")
    if channel.num_qubits != 1:
        raise ValueError("x_chain_experiment uses a one-qubit channel")
    rates = []
    for depth in range(1, depth_max + 1):
        ideal_bit = depth % 2
        p_correct = (1.0 + (1.0 - 2.0 * gate_flip) ** depth) / 2.0
        vec = np.zeros(2)
        vec[ideal_bit] = p_correct
        vec[1 - ideal_bit] = 1.0 - p_correct
        observed = channel.entries @ vec
        counts = sample_distribution(
            Distribution._adopt([0, 1], observed, 1),
            shots,
            np.random.default_rng([seed, depth]),
        )
        error = 1.0 - float(counts.weights[counts.index == ideal_bit].sum()) / shots
        rates.append((depth, error))
    return tuple(rates)
