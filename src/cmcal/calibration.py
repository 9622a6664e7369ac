"""Patched readout-calibration matrices and their sparse join algebra.

A calibration matrix over a small qubit support is column-stochastic:
``entries[observed, prepared]`` is the probability of reading ``observed``
after preparing ``prepared``.  Register-scale calibrations are never
materialized; they are kept as an ordered list of small factors
(:class:`SparseCalibration`).  :func:`apply` runs them through
:func:`_apply_factors`, the one exact factor path, which exact noise
corruption shares: it scatters basis-index arrays into a dense float64 tensor
with one axis per qubit the factors touch, plus a leading block axis for each
distinct pattern of the untouched bits, runs the factors on it one at a time,
and gathers the positive entries back to sorted indices.  A tensor past
``MAX_APPLY_ENTRIES`` entries raises :class:`CalibrationError`.

One basis convention everywhere: qubit ``q`` of an ``n``-qubit register is
bit ``n - 1 - q`` of its basis index, so qubit 0 is the most significant bit
and the leftmost character of the register's bitstring.  Local matrices over
a support ``(q0 < q1 < ...)`` index their rows and columns the same way, so
the lowest support qubit is the most significant bit of the local index.

Overlapping patches that share qubits are merged with order-adjusted
factors: each shared qubit's single-qubit marginal is split into fractional
powers across the patches containing it, so that the factor product carries
the shared qubit's noise exactly once.  For noise that factorizes over a
disjoint edge matching the joined product reproduces the ground-truth
channel exactly; in general it is the patched approximation.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from itertools import combinations
from types import MappingProxyType

import numpy as np

logger = logging.getLogger(__name__)

COLUMN_TOL = 1e-9
MAX_PATCH_QUBITS = 4
DET_TOL = 1e-12
RIDGE_EPS = 1e-8
DEFAULT_CULL = 1e-12

_MAX_DENSE_QUBITS = 14
# Largest tensor _apply_factors() builds for mitigation or exact corruption,
# in float64 entries (blocks x 2^qubits).  The tensor is 512 MB at the bound;
# with the factor loop's second tensor and row buffers, mitigating 16k counts
# over 26 qubits peaked at 1.6 GB RSS (70 s), and exact corruption of a
# 26-qubit register at 2.1 GB, 1 GB of it the 2^26-entry result (on a
# 2-CPU Xeon host, numpy float64).
MAX_APPLY_ENTRIES = 1 << 26
MAX_REGISTER_QUBITS = 64  # register indices are packed into uint64
_MAX_BINCOUNT_QUBITS = 16  # widest marginal summed over all 2^p local patterns


class CalibrationError(ValueError):
    """Raised for structurally invalid or numerically degenerate calibrations."""


class SingularFactorError(CalibrationError):
    """A factor could not be inverted even after ridge regularization."""

    def __init__(self, support: tuple[int, ...], message: str = ""):
        self.support = support
        super().__init__(message or f"singular calibration factor on support {support}")


def _as_support(support) -> tuple[int, ...]:
    sup = tuple(int(q) for q in support)
    if not sup:
        raise CalibrationError("empty support")
    if any(q < 0 for q in sup):
        raise CalibrationError(f"negative qubit index in support {sup}")
    if any(a >= b for a, b in zip(sup, sup[1:])):
        raise CalibrationError(f"support must be strictly ascending: {sup}")
    return sup


def _as_square(entries) -> np.ndarray:
    arr = np.asarray(entries, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise CalibrationError(f"matrix must be square, got shape {arr.shape}")
    return arr


def normalize_columns(arr: np.ndarray) -> np.ndarray:
    sums = arr.sum(axis=0)
    if np.any(sums <= DET_TOL):
        raise CalibrationError("column sum vanished during renormalization")
    return arr / sums


def support_mask(support: tuple[int, ...], n: int) -> int:
    """Register index with the bits of the (distinct) ``support`` qubits set."""
    return sum(1 << (n - 1 - q) for q in support)


def _bit_runs(support: tuple[int, ...], n: int) -> dict[int, int]:
    """``{shift: mask}`` for the runs of adjacent ``support`` qubits: the local
    bits ``mask`` of a run sit ``shift`` places below its register bits."""
    p = len(support)
    runs: dict[int, int] = {}
    for pos, q in enumerate(support):
        shift = (n - 1 - q) - (p - 1 - pos)
        runs[shift] = runs.get(shift, 0) | 1 << (p - 1 - pos)
    return runs


def extract_index(idx: np.ndarray, support: tuple[int, ...], n: int) -> np.ndarray:
    """Vectorized projection of register indices onto local support indices.
    Runs of adjacent support qubits move as one; the whole register comes
    back as ``idx`` itself."""
    if len(support) == n:
        return idx
    out = np.zeros_like(idx)
    for shift, mask in _bit_runs(support, n).items():
        out |= (idx >> np.uint64(shift)) & np.uint64(mask)
    return out


def _deposit_index(local: np.ndarray, support: tuple[int, ...], n: int) -> np.ndarray:
    """Inverse of :func:`extract_index`: local support indices as register
    indices with the other bits 0.  Runs of adjacent support qubits move as one."""
    local = local.astype(np.uint64)
    if len(support) == n:
        return local
    out = np.zeros_like(local)
    part = np.empty_like(local)
    for shift, mask in _bit_runs(support, n).items():
        np.bitwise_and(local, np.uint64(mask), out=part)
        out |= np.left_shift(part, np.uint64(shift), out=part)
    return out


def _parse_bits(keys, width: int, fits: str) -> np.ndarray:
    """``uint64`` basis indices of ``width``-character bitstrings, qubit 0 first.

    All keys are checked in a few array passes; a key that is not such a
    string raises ``CalibrationError(f"key {key!r} {fits}")`` for the first one.
    """
    keys = list(keys)
    if set(map(len, keys)) <= {width}:
        # a non-ASCII character becomes "?", which fails the 0/1 test below
        raw = np.frombuffer("".join(keys).encode("ascii", "replace"), dtype=np.uint8)
        bits = raw.reshape(-1, width) - np.uint8(48)
        if not (bits > 1).any():
            place = np.uint64(1) << np.arange(width)[::-1].astype(np.uint64)
            return bits.astype(np.uint64) @ place
    bad = next(k for k in keys if len(k) != width or k.strip("01"))
    raise CalibrationError(f"key {bad!r} {fits}")


def _as_floats(values, what: str) -> np.ndarray:
    """A sized iterable of numbers as a float64 array.  numpy would read
    strings, bytes and booleans as numbers too, and None as NaN; they raise
    ``CalibrationError`` starting with ``what``, as does any other non-number."""
    for kind in set(map(type, values)):
        if issubclass(kind, (str, bytes, bool, np.bool_, type(None))):
            raise CalibrationError(f"{what}, not {kind.__name__}")
    try:
        return np.fromiter(values, dtype=float, count=len(values))
    except (TypeError, ValueError) as exc:
        raise CalibrationError(f"{what}: {exc}") from None


def _finite(weights: np.ndarray) -> np.ndarray:
    if not np.isfinite(weights).all():
        raise CalibrationError("weights must be finite")
    return weights


def _as_counts(values) -> np.ndarray:
    """``values`` (a float64 array, or a sized iterable of numbers) as a
    float64 array, checked to be non-negative integers."""
    message = "counts must be non-negative integers"
    counts = values if isinstance(values, np.ndarray) else _as_floats(values, message)
    if not (np.isfinite(counts) & (counts >= 0.0) & (counts == np.floor(counts))).all():
        raise CalibrationError(message)
    return counts


def _ordered_sum(values: np.ndarray) -> float:
    """Left-to-right sum in array order: unlike ``np.sum``'s pairwise blocks,
    its rounding depends only on the order of the values, which index order fixes."""
    return float(np.cumsum(values)[-1]) if values.size else 0.0


def _summed(index: np.ndarray, weights: np.ndarray):
    """Distinct sorted indices and the weights summed onto each, every sum
    taken in input order."""
    uniq, inverse = np.unique(index, return_inverse=True)
    return uniq, np.bincount(inverse, weights=weights, minlength=uniq.size)


@dataclass(frozen=True)
class CalibrationMatrix:
    """Column-stochastic matrix over an ascending qubit support.

    The one matrix type for both sides: a noise channel of the simulated
    device and a calibration estimated from counts.  ``entries[observed,
    prepared]`` over the support's local basis (lowest qubit = most
    significant local bit).  Entries are finite and nonnegative, and columns
    sum to 1 within ``COLUMN_TOL``.  Channels may span the whole register;
    patches entering the calibration path are bounded by
    ``MAX_PATCH_QUBITS`` there.
    """

    support: tuple[int, ...]
    entries: np.ndarray

    def __post_init__(self):
        sup = _as_support(self.support)
        arr = _as_square(self.entries)
        if arr.shape[0] != 1 << len(sup):
            raise CalibrationError(
                f"matrix dim {arr.shape[0]} does not match support {sup}"
            )
        if not np.isfinite(arr).all():
            raise CalibrationError("non-finite entry in calibration matrix")
        if arr.min() < 0.0:
            raise CalibrationError(f"negative entry {arr.min():.3e} in calibration matrix")
        bad = np.abs(arr.sum(axis=0) - 1.0).max()
        if bad > COLUMN_TOL:
            raise CalibrationError(f"columns must sum to 1 (max deviation {bad:.3e})")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "support", sup)
        object.__setattr__(self, "entries", arr)

    @property
    def num_qubits(self) -> int:
        return len(self.support)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class CountsRecord:
    """Observed counts for one preparation over one support; ``index`` holds
    the keys of ``counts`` as local basis indices."""

    support: tuple[int, ...]
    prepared: str
    counts: dict[str, int]
    shots: int
    device: str = "simulated"
    timestamp: str = ""
    index: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        sup = _as_support(self.support)
        object.__setattr__(self, "support", sup)
        p = len(sup)
        if len(self.prepared) != p or any(c not in "01" for c in self.prepared):
            raise CalibrationError(f"prepared pattern {self.prepared!r} does not fit support {sup}")
        if self.shots <= 0:
            raise CalibrationError("shots must be positive")
        index = _parse_bits(self.counts, p, f"does not fit support {sup}")
        total = int(_as_counts(self.counts.values()).sum())
        if total != self.shots:
            raise CalibrationError(f"counts sum {total} != shots {self.shots}")
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "counts", {k: int(v) for k, v in self.counts.items()})

    def to_json(self) -> dict:
        return {
            "support": list(self.support),
            "prepared": self.prepared,
            "counts": dict(self.counts),
            "shots": self.shots,
            "device": self.device,
            "timestamp": self.timestamp,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "CountsRecord":
        return cls(
            support=tuple(obj["support"]),
            prepared=obj["prepared"],
            counts=dict(obj["counts"]),
            shots=int(obj["shots"]),
            device=obj.get("device", "simulated"),
            timestamp=obj.get("timestamp", ""),
        )


def _as_register(n) -> int:
    if n <= 0:
        raise CalibrationError("register size must be positive")
    if n > MAX_REGISTER_QUBITS:
        raise CalibrationError(
            f"register of {n} qubits exceeds the {MAX_REGISTER_QUBITS}-qubit index bound"
        )
    return int(n)


class Distribution:
    """Sparse distribution over the basis states of an ``n``-qubit register.

    One representation: ``index``, the sorted distinct basis indices as a
    read-only ``uint64`` array (qubit 0 is the most significant bit), and
    ``weights``, their ``float64`` weights in the same order.  Every internal
    path works on these arrays.  Bitstrings appear only at the edges: the
    ``Distribution({bitstring: weight}, n)`` constructor, :meth:`from_counts`,
    :meth:`point_mass`, and the read-only :attr:`entries` view, formatted on
    first use.  :meth:`from_arrays` builds one from indices directly.  The
    constructor and :meth:`from_arrays` refuse non-finite weights.

    Intermediate stages of mitigation may hold quasi-probabilities (negative
    or non-normalized weights); :meth:`finalized` clamps and renormalizes.
    """

    __slots__ = ("index", "weights", "n", "_entries")

    def __init__(self, entries, n: int):
        n = _as_register(n)
        weights = _finite(_as_floats(entries.values(), "weights must be numbers"))
        self._set(_parse_bits(entries, n, f"is not a {n}-bit string"), weights, n)

    def _set(self, index: np.ndarray, weights: np.ndarray, n: int):
        if index.shape != weights.shape or index.ndim != 1:
            raise CalibrationError("index and weight arrays must be 1-D and of equal length")
        if index.size > 1 and not (index[1:] > index[:-1]).all():
            order = np.argsort(index, kind="stable")
            index, weights = index[order], weights[order]
            if (index[1:] == index[:-1]).any():
                raise CalibrationError("repeated basis index")
        if index.size and n < MAX_REGISTER_QUBITS and index[-1] >> np.uint64(n):
            raise CalibrationError(f"basis index {index[-1]} exceeds {n} qubits")
        index.flags.writeable = False
        weights.flags.writeable = False
        self.index, self.weights, self.n = index, weights, n
        self._entries = None

    @classmethod
    def from_arrays(cls, index, weights, n: int) -> "Distribution":
        """From copies of distinct basis indices, in any order, and their
        weights.  numpy would truncate float indices, wrap negative ones and
        read booleans and strings as numbers; they raise instead."""
        for i in index:
            if isinstance(i, bool) or not isinstance(i, (int, np.integer)) or not 0 <= i < 1 << 64:
                raise CalibrationError(f"basis index {i!r} is not a non-negative 64-bit integer")
        weights = _finite(_as_floats(weights, "weights must be numbers"))
        return cls._adopt(np.fromiter(index, dtype=np.uint64, count=len(index)), weights, n)

    @classmethod
    def _adopt(cls, index, weights, n: int) -> "Distribution":
        """:meth:`from_arrays` without the copies, for arrays no one else
        writes to: they become the distribution's read-only arrays."""
        n = _as_register(n)
        dist = cls.__new__(cls)
        dist._set(np.asarray(index, dtype=np.uint64), np.asarray(weights, dtype=float), n)
        return dist

    @classmethod
    def from_counts(cls, counts: dict[str, int], n: int) -> "Distribution":
        """Frequencies of ``{bitstring: count}``, counts non-negative integers."""
        raw = cls(counts, n)
        c = _as_counts(raw.weights)
        shots = c.sum()
        if shots <= 0:
            raise CalibrationError("empty counts")
        keep = c > 0.0
        return cls._adopt(raw.index[keep], c[keep] / shots, raw.n)

    @classmethod
    def point_mass(cls, bits: str) -> "Distribution":
        return cls({bits: 1.0}, len(bits))

    @property
    def entries(self):
        """Read-only ``{bitstring: weight}`` view in index order."""
        if self._entries is None:
            keys = [format(i, f"0{self.n}b") for i in self.index.tolist()]
            self._entries = MappingProxyType(dict(zip(keys, self.weights.tolist())))
        return self._entries

    def __eq__(self, other):
        return isinstance(other, Distribution) and self.n == other.n and (
            np.array_equal(self.index, other.index) and np.array_equal(self.weights, other.weights)
        )

    def __repr__(self):
        return f"Distribution({dict(self.entries)!r}, {self.n})"

    def total(self) -> float:
        return _ordered_sum(self.weights)

    def finalized(self) -> "Distribution":
        positive = self.weights > 0.0
        clamped = self.weights[positive]
        total = _ordered_sum(clamped)
        if total <= 0.0:
            raise CalibrationError("no positive mass left after clamping")
        return Distribution._adopt(self.index[positive], clamped / total, self.n)

    def marginal(self, support: tuple[int, ...]) -> "Distribution":
        sup = _as_support(support)
        if sup[-1] >= self.n:
            raise CalibrationError(f"support {sup} exceeds register {self.n}")
        if len(sup) == self.n:  # the whole register: each entry is its own pattern
            return self
        local = extract_index(self.index, sup, self.n)
        if len(sup) > _MAX_BINCOUNT_QUBITS:
            return Distribution._adopt(*_summed(local, self.weights), len(sup))
        # a bincount over every local pattern adds in input order as _summed
        # does, without sorting; the patterns that occur are kept, as there
        local = local.astype(np.intp)
        sums = np.bincount(local, weights=self.weights, minlength=1 << len(sup))
        index = np.flatnonzero(np.bincount(local, minlength=sums.size))
        return Distribution._adopt(index, sums[index], len(sup))


@dataclass(frozen=True)
class SparseCalibration:
    """Ordered list of small factors standing in for a register-scale matrix:
    a noise model, or its inverse.  Factors are applied in stored order."""

    factors: tuple[tuple[tuple[int, ...], np.ndarray], ...]

    def __post_init__(self):
        frozen = []
        for support, arr in self.factors:
            sup = _as_support(support)
            mat = _as_square(arr)
            if mat.shape[0] != 1 << len(sup):
                raise CalibrationError(f"factor dim mismatch on support {sup}")
            mat = mat.copy()
            mat.flags.writeable = False
            frozen.append((sup, mat))
        object.__setattr__(self, "factors", tuple(frozen))

    def dense(self, n: int) -> np.ndarray:
        """Explicit 2^n x 2^n product, for oracles and small registers only."""
        if n > _MAX_DENSE_QUBITS:
            raise CalibrationError(f"refusing dense build for n={n}")
        acc = np.eye(1 << n)
        for support, arr in self.factors:
            acc = embed_dense(arr, support, n) @ acc
        return acc


def embed_dense(matrix: np.ndarray, support: tuple[int, ...], n: int) -> np.ndarray:
    """Embed a support-local operator into the full 2^n x 2^n register space."""
    sup = _as_support(support)
    arr = _as_square(matrix)
    p = len(sup)
    if max(sup) >= n:
        raise CalibrationError(f"support {sup} exceeds register of {n} qubits")
    if n > _MAX_DENSE_QUBITS:
        raise CalibrationError(f"refusing dense embed for n={n}")
    rest = [q for q in range(n) if q not in sup]
    full = np.kron(arr, np.eye(1 << (n - p)))
    tensor = full.reshape([2] * (2 * n))
    order = list(sup) + rest  # axis i currently carries qubit order[i]
    perm = [order.index(q) for q in range(n)]
    tensor = tensor.transpose(perm + [n + i for i in perm])
    return np.ascontiguousarray(tensor.reshape(1 << n, 1 << n))


# ---------------------------------------------------------------------------
# estimation


def preparation_circuits(support) -> list[str]:
    """Basis-state preparation patterns for one patch, in basis-index order.

    Pattern character ``1`` means an X gate on that support qubit before
    measurement; all other register qubits stay in 0.
    """
    p = len(_as_support(support))
    return [format(i, f"0{p}b") for i in range(1 << p)]


def group_preparation_circuits(group) -> list[dict[int, int]]:
    """Merged preparations for mutually independent patches of equal size.

    Circuit ``b`` prepares basis pattern ``b`` on every patch of the group at
    once, so a group costs ``2**p`` circuits regardless of how many patches
    it contains.  Returns one ``{qubit: bit}`` assignment per circuit.
    """
    supports = [_as_support(s) for s in group]
    if not supports:
        raise CalibrationError("empty patch group")
    sizes = {len(s) for s in supports}
    if len(sizes) != 1:
        raise CalibrationError("grouped patches must have equal size")
    seen: set[int] = set()
    for sup in supports:
        if seen & set(sup):
            raise CalibrationError("grouped patches must be disjoint")
        seen |= set(sup)
    p = sizes.pop()
    circuits = []
    for i in range(1 << p):
        assignment: dict[int, int] = {}
        for sup in supports:
            for pos, q in enumerate(sup):
                assignment[q] = (i >> (p - 1 - pos)) & 1
        circuits.append(assignment)
    return circuits


def estimate_matrix(records) -> CalibrationMatrix:
    """Empirical column-stochastic matrix from one record per basis state."""
    records = list(records)
    if not records:
        raise CalibrationError("no records")
    support = records[0].support
    p = len(support)
    by_prepared: dict[str, CountsRecord] = {}
    for rec in records:
        if rec.support != support:
            raise CalibrationError(f"mixed supports {rec.support} vs {support}")
        if rec.prepared in by_prepared:
            raise CalibrationError(f"duplicate preparation {rec.prepared!r}")
        by_prepared[rec.prepared] = rec
    expected = preparation_circuits(support)
    missing = [b for b in expected if b not in by_prepared]
    if missing:
        raise CalibrationError(f"missing preparations {missing} for support {support}")
    dim = 1 << p
    arr = np.zeros((dim, dim))
    for col, pattern in enumerate(expected):
        rec = by_prepared[pattern]
        counts = np.fromiter(rec.counts.values(), dtype=float, count=len(rec.counts))
        arr[rec.index, col] = counts / rec.shots
    return CalibrationMatrix(support, arr)


# ---------------------------------------------------------------------------
# marginals and fractional powers


def normalized_partial_trace(mat: CalibrationMatrix, keep) -> CalibrationMatrix:
    """Marginal channel on ``keep``: sum discarded outcomes, average discarded
    preparations, and renormalize each column to sum 1.

    Averaging over the discarded preparations matters: it is what the kept
    qubits' columns look like when estimated from circuits that sweep the
    discarded qubits, so marginals taken from two overlapping patches agree
    whenever the underlying channel does not couple them.  For a product
    ``C_i (x) C_j`` the result over ``{i}`` is exactly ``C_i``.
    """
    keep_set = set(int(q) for q in keep)
    sup = mat.support
    if not keep_set:
        raise CalibrationError("must keep at least one qubit")
    if not keep_set <= set(sup):
        raise CalibrationError(f"keep {sorted(keep_set)} not within support {sup}")
    if keep_set == set(sup):
        return mat
    p = len(sup)
    keep_pos = [i for i, q in enumerate(sup) if q in keep_set]
    drop_pos = [i for i, q in enumerate(sup) if q not in keep_set]
    tensor = mat.entries.reshape([2] * (2 * p))
    letters = "abcdefghijklmnop"
    row = list(letters[:p])
    col = list(letters[p : 2 * p])
    # dropped observed and prepared axes are separate sums; the uniform
    # preparation average is absorbed by the column renormalization
    subscript = "".join(row + col) + "->" + "".join(
        [row[i] for i in keep_pos] + [col[i] for i in keep_pos]
    )
    traced = np.einsum(subscript, tensor).reshape(1 << len(keep_pos), 1 << len(keep_pos))
    return CalibrationMatrix(
        tuple(sup[i] for i in keep_pos), normalize_columns(traced)
    )


def fractional_power(mat: np.ndarray, exponent: float) -> np.ndarray:
    """Principal matrix power via eigendecomposition, exponent in (0, 1].

    Matrices whose spectrum is not real and positive are nudged toward the
    identity, ``C <- (1 - eps) C + eps I`` with eps doubling from 1e-6, before
    giving up.  Column sums are preserved exactly by any power because the
    all-ones row vector is a left eigenvector with eigenvalue 1.
    """
    arr = _as_square(mat)
    if not 0.0 < exponent <= 1.0:
        raise CalibrationError(f"exponent must lie in (0, 1], got {exponent}")
    if exponent == 1.0:
        return arr.copy()
    eye = np.eye(arr.shape[0])
    eps = 0.0
    while True:
        cand = arr if eps == 0.0 else (1.0 - eps) * arr + eps * eye
        w, v = np.linalg.eig(cand)
        ok = (
            np.abs(w.imag).max() <= 1e-9
            and w.real.min() > 1e-10
            and abs(np.linalg.det(v)) > DET_TOL
        )
        if ok:
            powered = (v * (w.real**exponent)) @ np.linalg.inv(v)
            if np.abs(powered.imag).max() > 1e-9:
                ok = False
            else:
                return powered.real
        if not ok:
            eps = 1e-6 if eps == 0.0 else 2.0 * eps
            if eps > 1e-2:
                raise CalibrationError(
                    "no principal real power: spectrum not positive after regularization"
                )


def order_adjust(mat: CalibrationMatrix, shared_qubit: int, v: int, v_a: int) -> np.ndarray:
    """Split a shared qubit's marginal noise across the patches containing it.

    With ``C_q`` the normalized partial trace onto the shared qubit, returns

        (I (x) C_q^((v-1-v_a)/v))^-1  C  (I (x) C_q^(v_a/v))^-1

    with the powers placed at the shared qubit's tensor position.  Applying a
    qubit's patches in ascending ``v_a`` order makes the leftover powers
    telescope, so the qubit's marginal noise enters the joined product once:
    the adjusted factor's trace onto the shared qubit is ``C_q^(1/v)`` and its
    trace onto the other qubits is unchanged (both after renormalization,
    exactly so for patches that factorize).
    """
    if shared_qubit not in mat.support:
        raise CalibrationError(f"qubit {shared_qubit} not in support {mat.support}")
    if v < 1 or not 0 <= v_a < v:
        raise CalibrationError(f"invalid order parameters v={v}, v_a={v_a}")
    return _adjusted_factor(mat, {shared_qubit: (v, v_a)})


def _adjusted_factor(mat: CalibrationMatrix, orders: dict[int, tuple[int, int]]) -> np.ndarray:
    """Order-adjust a patch for every shared qubit at once."""
    p = mat.num_qubits
    left = np.eye(mat.dim)
    right = np.eye(mat.dim)
    nontrivial = False
    for position, q in enumerate(mat.support):
        v, v_a = orders.get(q, (1, 0))
        if v == 1:
            continue
        marg = normalized_partial_trace(mat, {q}).entries
        exp_left = (v - 1 - v_a) / v
        exp_right = v_a / v
        if exp_left > 0.0:
            left = left @ embed_dense(fractional_power(marg, exp_left), (position,), p)
            nontrivial = True
        if exp_right > 0.0:
            right = right @ embed_dense(fractional_power(marg, exp_right), (position,), p)
            nontrivial = True
    if not nontrivial:
        return mat.entries.copy()
    return np.linalg.solve(left, mat.entries) @ np.linalg.inv(right)


# ---------------------------------------------------------------------------
# joining

def assemble_for_measured(
    patches,
    measured,
    singles: dict[int, CalibrationMatrix] | None = None,
) -> SparseCalibration:
    """Order-adjusted forward model of overlapping patches, for the measured qubits.

    Patches fully inside the measured set are order-adjusted and kept in
    patch-list order, which is what makes the shared-qubit powers telescope
    (see :func:`order_adjust`); patches that straddle the boundary
    contribute the ``1/v`` fractional power of their marginal on the
    measured qubit, merged into one factor per qubit; patches fully outside
    are dropped.  Multiplicities count the surviving patches only.  A
    measured qubit no surviving patch touches falls back to its entry in
    ``singles`` or, failing that, to an identity factor (logged, since it
    leaves that qubit unmitigated).  Patch supports must be distinct, span
    at most ``MAX_PATCH_QUBITS`` qubits, and share at most one qubit
    pairwise.
    """
    patches = [m if isinstance(m, CalibrationMatrix) else CalibrationMatrix(*m) for m in patches]
    supports = [m.support for m in patches]
    if len(set(supports)) != len(supports):
        raise CalibrationError("duplicate patch supports")
    owner: dict[tuple[int, int], tuple[int, ...]] = {}
    for sup in supports:
        if len(sup) > MAX_PATCH_QUBITS:
            raise CalibrationError(
                f"patch {sup} exceeds the {MAX_PATCH_QUBITS}-qubit bound"
            )
        for pair in combinations(sup, 2):
            if pair in owner:
                raise CalibrationError(
                    f"patches {owner[pair]} and {sup} share more than one qubit"
                )
            owner[pair] = sup
    measured_set = frozenset(int(q) for q in measured)
    if not measured_set:
        raise CalibrationError("measured set is empty")

    multiplicity: dict[int, int] = {}
    for sup in supports:
        for q in sup:
            if q in measured_set:
                multiplicity[q] = multiplicity.get(q, 0) + 1

    slot: dict[int, int] = {}
    factors: list[tuple[tuple[int, ...], np.ndarray]] = []
    folded: dict[int, int] = {}  # qubit -> position of its straddling factor
    for mat in patches:
        inside = [q for q in mat.support if q in measured_set]
        if not inside:
            continue
        if len(inside) == len(mat.support):
            orders = {}
            for q in mat.support:
                v_a = slot.get(q, 0)
                orders[q] = (multiplicity[q], v_a)
                slot[q] = v_a + 1
            factors.append((mat.support, _adjusted_factor(mat, orders)))
            continue
        # straddling: fold the measured side's marginal share into one factor
        for q in inside:
            v = multiplicity[q]
            slot[q] = slot.get(q, 0) + 1
            marg = normalized_partial_trace(mat, {q}).entries
            part = fractional_power(marg, 1.0 / v) if v > 1 else marg
            if q in folded:
                factors[folded[q]] = ((q,), factors[folded[q]][1] @ part)
            else:
                folded[q] = len(factors)
                factors.append(((q,), part))
    for q, pos in folded.items():
        factors[pos] = ((q,), normalize_columns(factors[pos][1]))

    for q in sorted(measured_set - set(multiplicity)):
        if singles and q in singles:
            single = singles[q]
            if single.support != (q,):
                raise CalibrationError(f"singles entry for {q} has support {single.support}")
            factors.append(((q,), single.entries.copy()))
        else:
            logger.warning("measured qubit %d not covered by any patch; identity factor", q)
            factors.append(((q,), np.eye(2)))

    return SparseCalibration(tuple(factors))


# ---------------------------------------------------------------------------
# inversion and application


def invert(cal: SparseCalibration) -> SparseCalibration:
    """Factor-wise exact inverse with the application order reversed."""
    inverted = []
    for support, arr in reversed(cal.factors):
        det = np.linalg.det(arr)
        try:
            if abs(det) <= DET_TOL:
                raise np.linalg.LinAlgError("determinant below tolerance")
            inv = np.linalg.inv(arr)
        except np.linalg.LinAlgError:
            ridge = arr + RIDGE_EPS * np.eye(arr.shape[0])
            if abs(np.linalg.det(ridge)) <= DET_TOL:
                raise SingularFactorError(support) from None
            logger.warning("ridge-regularized singular factor on support %s", support)
            inv = np.linalg.inv(ridge)
        inverted.append((support, inv))
    return SparseCalibration(tuple(inverted))


def apply(
    cal: SparseCalibration,
    dist: Distribution,
    cull_threshold: float = DEFAULT_CULL,
) -> Distribution:
    """Apply factors in stored order to ``dist`` through :func:`_apply_factors`.

    After each factor, entries below ``cull_threshold`` of the total absolute
    mass are set to zero.  Identity factors, such as those
    :func:`assemble_for_measured` gives uncovered qubits, change no entry:
    they only cull, and their qubits add no tensor axis.
    """
    n = dist.n
    if dist.index.size == 0:
        raise CalibrationError("empty distribution")
    for support, _ in cal.factors:
        if max(support) >= n:
            raise CalibrationError(f"factor support {support} exceeds register {n}")
    steps = [(support, None if np.array_equal(arr, np.eye(arr.shape[0])) else arr)
             for support, arr in cal.factors]
    return _apply_factors(dist.index, dist.weights, n, steps, cull_threshold)


def _apply_factors(index, weights, n, factors, cull_threshold):
    """The one exact factor path, under :func:`apply` and exact noise
    corruption: the ``(support, matrix)`` factors run in order on the
    ``weights`` at the ``n``-qubit basis ``index``, and the positive entries
    come back renormalized as a :class:`Distribution`.  A factor whose matrix
    is None only culls.

    ``np.bincount`` scatters the weights, summing a repeated index in input
    order as :func:`_summed` does, into a float64 tensor with one axis per
    qubit the matrices touch, in ascending order, after a leading block axis
    with one entry per distinct pattern of the untouched bits.  A tensor of
    more than ``MAX_APPLY_ENTRIES`` entries raises ``CalibrationError``
    before it is allocated.
    """
    touched = tuple(sorted({q for support, arr in factors if arr is not None for q in support}))
    k = len(touched)
    rest = index & np.uint64(((1 << n) - 1) ^ support_mask(touched, n))
    if rest.any():
        blocks, block = np.unique(rest, return_inverse=True)
    else:
        blocks, block = rest[:1], 0
    if blocks.size << k > MAX_APPLY_ENTRIES:
        raise CalibrationError(
            f"applying factors over {k} qubits in {blocks.size} block(s) needs "
            f"{blocks.size << k} entries, over the {MAX_APPLY_ENTRIES}-entry bound"
        )
    slot = (block << k) | extract_index(index, touched, n).astype(np.intp)
    tensor = np.bincount(slot, weights=weights, minlength=blocks.size << k)
    axis = {q: i + 1 for i, q in enumerate(touched)}
    steps = [(None if arr is None else tuple(axis[q] for q in support), arr)
             for support, arr in factors]
    tensor = _run_factors(tensor.reshape((blocks.size,) + (2,) * k), steps, cull_threshold)
    flat = tensor.reshape(-1)
    hit = np.flatnonzero(flat > 0.0)
    if hit.size == 0:
        raise CalibrationError("no positive mass left")
    weights = flat[hit]
    # the tensor goes before the gather, which holds a few arrays of the
    # result's length
    del tensor, flat
    rest = blocks[hit >> k] if blocks.size > 1 else blocks[0]
    hit &= (1 << k) - 1
    index = _deposit_index(hit, touched, n)
    del hit
    index |= rest
    if blocks.size > 1:
        order = np.argsort(index)
        index, weights = index[order], weights[order]
    return Distribution._adopt(index, weights / weights.sum(), n)


def _run_factors(tensor, steps, cull_threshold):
    """The ``(axes, matrix)`` steps of :func:`_apply_factors` on ``tensor``, in
    order, each followed by the cull; a step whose axes are None only culls.
    The second tensor and the cull mask are freed on return, before the
    gather."""
    spare = np.empty_like(tensor)
    for axes, matrix in steps:
        if axes is not None:
            tensor, spare = _apply_local(tensor, axes, matrix, spare), tensor
        if cull_threshold > 0.0:
            magnitude = np.abs(tensor, out=spare)
            keep = magnitude >= cull_threshold * magnitude.sum()
            if not keep.any():
                raise CalibrationError("all mass culled during application")
            # a culled negative entry becomes -0.0, which no later sum and
            # not the final clamp can tell from 0.0
            tensor *= keep
    return tensor


def _apply_local(tensor, axes, matrix, out):
    """``matrix`` applied to the ``axes`` of ``tensor`` (first axis = most
    significant local bit), written to and returned as ``out``, an array of
    the same shape.

    The one per-factor kernel, for mitigation and for exact noise
    corruption.  Each output slice is summed term by term in ascending input
    order and zero coefficients are skipped, so an entry carries the
    rounding of a merge that adds the nonzero terms of sorted inputs.
    """
    p = len(axes)
    dim = 1 << p
    views = []
    for local in range(dim):
        index = [slice(None)] * tensor.ndim
        for j, axis in enumerate(axes):
            index[axis] = (local >> (p - 1 - j)) & 1
        views.append(tuple(index))
    # each row sums into a contiguous buffer and is written out once: a
    # strided view is slow to accumulate into
    shape = np.shape(tensor[views[0]])
    acc, term = np.empty(shape), np.empty(shape)
    for row in range(dim):
        first = True
        for col in range(dim):
            coeff = matrix[row, col]
            if coeff == 0.0:
                continue
            if first:
                np.multiply(tensor[views[col]], coeff, out=acc)
                first = False
            else:
                acc += np.multiply(tensor[views[col]], coeff, out=term)
        out[views[row]] = 0.0 if first else acc
    return out
