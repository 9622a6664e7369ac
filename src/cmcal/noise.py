"""Ground-truth measurement-error channels and benchmark distributions.

Channels are column-stochastic matrices on small qubit supports.  A
:class:`NoiseModel` holds an ordered set of channels over a register and
corrupts ideal distributions exactly (sparse matvec) before seeded sampling.

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
    Distribution,
    SparseCalibration,
    apply as apply_channels,
    embed_dense,
)

__all__ = [
    "CHANNEL_COL_TOL",
    "MeasurementChannel",
    "NoiseSpec",
    "NoiseModel",
    "IdealDistribution",
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

CHANNEL_COL_TOL = 1e-12
_DENSE_COMPOSE_QUBITS = 10


def _as_rng(seed):
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


@dataclass(frozen=True)
class MeasurementChannel:
    """Column-stochastic error process on a small qubit support.

    ``matrix[observed, true]`` over the support's local basis (lowest qubit =
    most significant local bit).
    """

    support: tuple
    matrix: np.ndarray

    def __post_init__(self):
        support = tuple(int(q) for q in self.support)
        if list(support) != sorted(set(support)) or (support and support[0] < 0):
            raise ValueError(f"support {support} must be strictly ascending")
        if not support:
            raise ValueError("empty support")
        mat = np.array(self.matrix, dtype=float)
        dim = 1 << len(support)
        if mat.shape != (dim, dim):
            raise ValueError(f"matrix shape {mat.shape} does not match support {support}")
        if not np.isfinite(mat).all():
            raise ValueError("channel entries must be finite")
        if mat.min() < 0.0:
            raise ValueError("channel entries must be nonnegative")
        if np.abs(mat.sum(axis=0) - 1.0).max() > CHANNEL_COL_TOL:
            raise ValueError("channel columns must sum to 1")
        mat.setflags(write=False)
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "matrix", mat)

    @property
    def num_qubits(self):
        return len(self.support)


def state_dependent_channel(p01, p10, qubit=0):
    """One-qubit readout channel: 0 misread as 1 with p01, 1 as 0 with p10."""
    for name, p in (("p01", p01), ("p10", p10)):
        if not (0.0 <= p <= 1.0):
            raise ValueError(f"{name} must be in [0, 1], got {p}")
    matrix = [[1.0 - p01, p10], [p01, 1.0 - p10]]
    return MeasurementChannel((qubit,), matrix)


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
    return MeasurementChannel(support, matrix)


def compose(channels, num_qubits, dense=None):
    """Product of embedded channels in list order.

    Dense result (a channel on the full register) for small registers, the
    validated factor tuple otherwise.  In both forms the *last* listed
    channel acts on a distribution first, matching the matrix product
    ``E(c1) @ E(c2) @ ... @ E(ck)``.
    """
    channels = tuple(channels)
    for ch in channels:
        if ch.support[-1] >= num_qubits:
            raise ValueError(f"support {ch.support} exceeds register {num_qubits}")
    if dense is None:
        dense = num_qubits <= _DENSE_COMPOSE_QUBITS
    if not dense:
        return channels
    acc = np.eye(1 << num_qubits)
    for ch in channels:
        acc = acc @ embed_dense(ch.matrix, ch.support, num_qubits)
    return MeasurementChannel(tuple(range(num_qubits)), acc)


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
                    {"support": list(ch.support), "matrix": ch.matrix.tolist()}
                    for ch in self.correlated
                ],
                "gate_flip": self.gate_flip,
            }
        )

    @classmethod
    def from_json(cls, text):
        doc = json.loads(text)
        correlated = []
        for item in doc.get("correlated", []):
            support = tuple(item["support"])
            if "matrix" in item:
                correlated.append(MeasurementChannel(support, item["matrix"]))
            else:
                correlated.append(correlated_channel(support, item["kind"], item["p"]))
        return cls(
            {int(q): tuple(r) for q, r in doc.get("per_qubit", {}).items()},
            tuple(correlated),
            float(doc.get("gate_flip", 0.0)),
        )


@dataclass(frozen=True)
class IdealDistribution:
    """Noiseless reference distribution plus how it was obtained."""

    distribution: Distribution
    provenance: str = "analytic"

    def __post_init__(self):
        if self.provenance not in ("analytic", "simulated"):
            raise ValueError(f"unknown provenance {self.provenance!r}")
        if abs(self.distribution.total() - 1.0) > 1e-9:
            raise ValueError("ideal distribution must be normalized")


def _dist_of(ideal):
    return ideal.distribution if isinstance(ideal, IdealDistribution) else ideal


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

    @classmethod
    def from_spec(cls, num_qubits, spec):
        return cls(num_qubits, spec.channels(num_qubits))

    def _corrupt_region(self, dist, region):
        """Exact corruption of ``dist``'s marginal on the ascending ``region``
        by the channels whose supports lie inside it."""
        sub = dist.marginal(region) if len(region) < dist.n else dist
        pos = {q: i for i, q in enumerate(region)}
        # last listed acts first, matching the dense composite product
        factors = tuple(
            (tuple(pos[q] for q in ch.support), np.asarray(ch.matrix))
            for ch in reversed(self.channels)
            if pos.keys() >= set(ch.support)
        )
        if not factors:
            return sub
        return apply_channels(SparseCalibration(factors, "forward"), sub, cull_threshold=0.0)

    def corrupted(self, ideal, measured=None):
        """Exact observed distribution for a (subset) measurement."""
        dist = _dist_of(ideal)
        if dist.n != self.num_qubits:
            raise CalibrationError(
                f"distribution register {dist.n} does not match model {self.num_qubits}"
            )
        if measured is None:
            measured = tuple(range(self.num_qubits))
        else:
            measured = tuple(int(q) for q in measured)
            if list(measured) != sorted(set(measured)):
                raise ValueError("measured qubits must be strictly ascending")
        return self._corrupt_region(dist, measured)

    def marginal_after_noise(self, ideal, keep):
        """Marginal over ``keep`` of the fully measured corrupted distribution.

        Computed on the closure of ``keep`` under overlapping channel
        supports, so the result is exact without touching the full register.
        """
        keep = tuple(int(q) for q in keep)
        closure = set(keep)
        grew = True
        while grew:
            grew = False
            for ch in self.channels:
                sup = set(ch.support)
                if sup & closure and not sup <= closure:
                    closure |= sup
                    grew = True
        region = tuple(sorted(closure))
        sub = self._corrupt_region(_dist_of(ideal), region)
        return sub.marginal(tuple(region.index(q) for q in keep))

    def sample(self, ideal, shots, seed, measured=None):
        """Seeded multinomial counts from the corrupted distribution."""
        if shots <= 0:
            raise ValueError("shots must be positive")
        return sample_distribution(self.corrupted(ideal, measured), shots, seed)


def sample_distribution(dist, shots, seed):
    """Seeded multinomial counts from a normalized distribution."""
    rng = _as_rng(seed)
    keys = sorted(dist.entries)
    probs = np.array([dist.entries[k] for k in keys], dtype=float)
    probs = np.clip(probs, 0.0, None)
    probs /= probs.sum()
    draws = rng.multinomial(shots, probs)
    return {k: int(c) for k, c in zip(keys, draws) if c}


# --- benchmark distributions ----------------------------------------------------


def ideal_ghz(n):
    """Equal mixture of all-zeros and all-ones."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return IdealDistribution(Distribution({"0" * n: 0.5, "1" * n: 0.5}, n), "analytic")


def ghz_cnot_schedule(cmap, root=0):
    """Entangling schedule: BFS tree edges (control, target) in visit order."""
    if not (0 <= root < cmap.num_qubits):
        raise IndexError(f"root {root} out of range")
    seen = {root}
    order = []
    frontier = [root]
    while frontier:
        nxt = []
        for u in frontier:
            for v in cmap.neighbors(u):
                if v not in seen:
                    seen.add(v)
                    order.append((u, v))
                    nxt.append(v)
        frontier = nxt
    if len(seen) != cmap.num_qubits:
        raise ValueError("coupling map is not connected from the root")
    return tuple(order)


def ghz_distribution(cmap, gate_flip=0.0, root=0):
    """GHZ preparation distribution with optional per-gate target flips."""
    if not (0.0 <= gate_flip <= 1.0):
        raise ValueError("gate_flip must be in [0, 1]")
    n = cmap.num_qubits
    if gate_flip == 0.0 and n >= 1:
        if n == 1:
            return IdealDistribution(Distribution({"0": 0.5, "1": 0.5}, 1), "analytic")
        schedule = ghz_cnot_schedule(cmap, root)  # validates connectivity
        assert len(schedule) == n - 1
        return ideal_ghz(n)
    if n > 20:
        raise ValueError("gate-flip propagation is limited to 20 qubits")
    schedule = ghz_cnot_schedule(cmap, root)
    root_bit = 1 << (n - 1 - root)
    states = {0: 0.5, root_bit: 0.5}
    for control, target in schedule:
        cmask = 1 << (n - 1 - control)
        tmask = 1 << (n - 1 - target)
        nxt = {}
        for state, prob in states.items():
            flipped = state ^ tmask if state & cmask else state
            nxt[flipped] = nxt.get(flipped, 0.0) + prob * (1.0 - gate_flip)
            other = flipped ^ tmask
            nxt[other] = nxt.get(other, 0.0) + prob * gate_flip
        states = nxt
    entries = {format(s, f"0{n}b"): p for s, p in states.items() if p > 0.0}
    return IdealDistribution(Distribution(entries, n), "simulated")


def simulate_counts(ideal, channel, shots, seed, measured=None):
    """Corrupt an ideal distribution with a channel (or list) and sample."""
    dist = _dist_of(ideal)
    if isinstance(channel, NoiseModel):
        model = channel
    else:
        channels = (channel,) if isinstance(channel, MeasurementChannel) else tuple(channel)
        model = NoiseModel(dist.n, channels)
    return model.sample(dist, shots, seed, measured)


def x_chain_experiment(depth_max, channel, shots, seed, gate_flip=0.0):
    """Misread rate of one qubit after 1..depth_max X gates.

    The qubit ideally reads ``depth mod 2``; each X gate independently fails
    with probability ``gate_flip``, giving P(bit = depth mod 2) =
    (1 + (1 - 2*gate_flip)^depth) / 2, and the channel corrupts the readout.
    Returns ``((depth, error_rate), ...)``.
    """
    if depth_max < 1:
        raise ValueError("depth_max must be >= 1")
    if channel.num_qubits != 1:
        raise ValueError("x_chain_experiment uses a one-qubit channel")
    rates = []
    for depth in range(1, depth_max + 1):
        ideal_bit = depth % 2
        p_correct = (1.0 + (1.0 - 2.0 * gate_flip) ** depth) / 2.0
        vec = np.zeros(2)
        vec[ideal_bit] = p_correct
        vec[1 - ideal_bit] = 1.0 - p_correct
        observed = channel.matrix @ vec
        counts = sample_distribution(
            Distribution({"0": observed[0], "1": observed[1]}, 1),
            shots,
            np.random.default_rng([seed, depth]),
        )
        error = 1.0 - counts.get(str(ideal_bit), 0) / shots
        rates.append((depth, error))
    return tuple(rates)
