"""Patched readout-calibration matrices and their sparse join algebra.

A calibration matrix over a small qubit support is column-stochastic:
``entries[observed, prepared]`` is the probability of reading ``observed``
after preparing ``prepared``.  Register-scale calibrations are never
materialized; they are kept as an ordered list of small factors
(:class:`SparseCalibration`) that is applied to bitstring-indexed
distributions one factor at a time.

Overlapping patches that share qubits are merged with order-adjusted
factors: each shared qubit's single-qubit marginal is split into fractional
powers across the patches containing it, so that the factor product carries
the shared qubit's noise exactly once.  For noise that factorizes over a
disjoint edge matching the joined product reproduces the ground-truth
channel exactly; in general it is the patched approximation.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from ._basis import (
    bits_to_index,
    extract_bits,
    extract_index,
    index_to_bits,
    scatter_index,
    support_mask,
)

logger = logging.getLogger(__name__)

COLUMN_TOL = 1e-9
MAX_PATCH_QUBITS = 4
DET_TOL = 1e-12
RIDGE_EPS = 1e-8
DEFAULT_CULL = 1e-12

_MAX_DENSE_QUBITS = 14
MAX_REGISTER_QUBITS = 64  # register indices are packed into uint64


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


def _check_column_stochastic(arr: np.ndarray, tol: float = COLUMN_TOL) -> None:
    if not np.isfinite(arr).all():
        raise CalibrationError("non-finite entry in calibration matrix")
    if arr.min() < -tol:
        raise CalibrationError(f"negative entry {arr.min():.3e} in calibration matrix")
    sums = arr.sum(axis=0)
    bad = np.abs(sums - 1.0).max()
    if bad > tol:
        raise CalibrationError(f"columns must sum to 1 (max deviation {bad:.3e})")


def normalize_columns(arr: np.ndarray) -> np.ndarray:
    sums = arr.sum(axis=0)
    if np.any(sums <= DET_TOL):
        raise CalibrationError("column sum vanished during renormalization")
    return arr / sums


def _first_bad_key(keys, width):
    """First key that is not a ``width``-character string of 0s and 1s, or None.

    The common all-valid case is checked in two C-level passes: one over the
    key lengths, one over the joined characters.
    """
    if not keys or (set(map(len, keys)) == {width} and not "".join(keys).strip("01")):
        return None
    return next(k for k in keys if len(k) != width or k.strip("01"))


@dataclass(frozen=True)
class CalibrationMatrix:
    """Column-stochastic matrix over a small ascending qubit support."""

    support: tuple[int, ...]
    entries: np.ndarray

    def __post_init__(self):
        sup = _as_support(self.support)
        arr = _as_square(self.entries)
        if arr.shape[0] != 1 << len(sup):
            raise CalibrationError(
                f"matrix dim {arr.shape[0]} does not match support {sup}"
            )
        if len(sup) > MAX_PATCH_QUBITS:
            raise CalibrationError(
                f"patch of {len(sup)} qubits exceeds the {MAX_PATCH_QUBITS}-qubit bound"
            )
        _check_column_stochastic(arr)
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
    """Observed counts for one preparation over one support."""

    support: tuple[int, ...]
    prepared: str
    counts: dict[str, int]
    shots: int
    device: str = "simulated"
    timestamp: str = ""

    def __post_init__(self):
        sup = _as_support(self.support)
        object.__setattr__(self, "support", sup)
        p = len(sup)
        if len(self.prepared) != p or any(c not in "01" for c in self.prepared):
            raise CalibrationError(f"prepared pattern {self.prepared!r} does not fit support {sup}")
        if self.shots <= 0:
            raise CalibrationError("shots must be positive")
        bad = _first_bad_key(self.counts, p)
        if bad is not None:
            raise CalibrationError(f"counts key {bad!r} does not fit support {sup}")
        total = 0
        for value in self.counts.values():
            if value < 0:
                raise CalibrationError("negative count")
            total += value
        if total != self.shots:
            raise CalibrationError(f"counts sum {total} != shots {self.shots}")

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
            counts={k: int(v) for k, v in obj["counts"].items()},
            shots=int(obj["shots"]),
            device=obj.get("device", "simulated"),
            timestamp=obj.get("timestamp", ""),
        )


@dataclass
class Distribution:
    """Sparse distribution over register bitstrings.

    Intermediate stages of mitigation may hold quasi-probabilities (negative
    or non-normalized weights); :meth:`finalized` clamps and renormalizes.
    """

    entries: dict[str, float]
    n: int

    def __post_init__(self):
        if self.n <= 0:
            raise CalibrationError("register size must be positive")
        bad = _first_bad_key(self.entries, self.n)
        if bad is not None:
            raise CalibrationError(f"key {bad!r} is not a {self.n}-bit string")

    @classmethod
    def from_counts(cls, counts: dict[str, int], n: int) -> "Distribution":
        shots = sum(counts.values())
        if shots <= 0:
            raise CalibrationError("empty counts")
        return cls({k: v / shots for k, v in counts.items() if v}, n)

    @classmethod
    def point_mass(cls, bits: str) -> "Distribution":
        return cls({bits: 1.0}, len(bits))

    def total(self) -> float:
        return sum(self.entries.values())

    def finalized(self) -> "Distribution":
        clamped = {k: v for k, v in self.entries.items() if v > 0.0}
        total = sum(clamped.values())
        if total <= 0.0:
            raise CalibrationError("no positive mass left after clamping")
        return Distribution({k: v / total for k, v in clamped.items()}, self.n)

    def marginal(self, support: tuple[int, ...]) -> "Distribution":
        sup = _as_support(support)
        out: dict[str, float] = {}
        for key, value in self.entries.items():
            sub = extract_bits(key, sup)
            out[sub] = out.get(sub, 0.0) + value
        return Distribution(out, len(sup))


@dataclass(frozen=True)
class SparseCalibration:
    """Ordered list of small factors standing in for a register-scale matrix.

    ``direction`` records whether the factors model the noise ("forward") or
    mitigate it ("inverse").  Factors are applied in stored order.
    """

    factors: tuple[tuple[tuple[int, ...], np.ndarray], ...]
    direction: str = "forward"

    def __post_init__(self):
        if self.direction not in ("forward", "inverse"):
            raise CalibrationError(f"unknown direction {self.direction!r}")
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
    sup = _as_support(support)
    return [index_to_bits(i, len(sup)) for i in range(1 << len(sup))]


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
        pattern = index_to_bits(i, p)
        assignment: dict[int, int] = {}
        for sup in supports:
            for q, c in zip(sup, pattern):
                assignment[q] = int(c)
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
        for observed, count in rec.counts.items():
            arr[bits_to_index(observed), col] = count / rec.shots
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


def fractional_power(mat, exponent: float) -> np.ndarray:
    """Principal matrix power via eigendecomposition, exponent in (0, 1].

    Matrices whose spectrum is not real and positive are nudged toward the
    identity, ``C <- (1 - eps) C + eps I`` with eps doubling from 1e-6, before
    giving up.  Column sums are preserved exactly by any power because the
    all-ones row vector is a left eigenvector with eigenvalue 1.
    """
    if isinstance(mat, CalibrationMatrix):
        arr = np.asarray(mat.entries, dtype=float)
    else:
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


def _local_embed(op: np.ndarray, position: int, p: int) -> np.ndarray:
    left = np.eye(1 << position)
    right = np.eye(1 << (p - position - 1))
    return np.kron(np.kron(left, op), right)


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
            left = left @ _local_embed(fractional_power(marg, exp_left), position, p)
            nontrivial = True
        if exp_right > 0.0:
            right = right @ _local_embed(fractional_power(marg, exp_right), position, p)
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
    leaves that qubit unmitigated).  Patch supports must be distinct and
    share at most one qubit pairwise.
    """
    patches = [m if isinstance(m, CalibrationMatrix) else CalibrationMatrix(*m) for m in patches]
    supports = [m.support for m in patches]
    if len(set(supports)) != len(supports):
        raise CalibrationError("duplicate patch supports")
    owner: dict[tuple[int, int], tuple[int, ...]] = {}
    for sup in supports:
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
    factors: list[tuple[tuple[int, ...], np.ndarray] | None] = []
    merged_parts: dict[int, list[np.ndarray]] = {}
    merged_pos: dict[int, int] = {}
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
            if q not in merged_parts:
                merged_pos[q] = len(factors)
                factors.append(None)  # placeholder, filled below
                merged_parts[q] = []
            merged_parts[q].append(part)

    for q, parts in merged_parts.items():
        acc = parts[0]
        for part in parts[1:]:
            acc = acc @ part
        factors[merged_pos[q]] = ((q,), normalize_columns(acc))

    for q in sorted(measured_set - set(multiplicity)):
        if singles and q in singles:
            single = singles[q]
            if single.support != (q,):
                raise CalibrationError(f"singles entry for {q} has support {single.support}")
            factors.append(((q,), single.entries.copy()))
        else:
            logger.warning("measured qubit %d not covered by any patch; identity factor", q)
            factors.append(((q,), np.eye(2)))

    return SparseCalibration(tuple(f for f in factors if f is not None), "forward")


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
    direction = "inverse" if cal.direction == "forward" else "forward"
    return SparseCalibration(tuple(inverted), direction)


def apply(
    cal: SparseCalibration,
    dist: Distribution,
    cull_threshold: float = DEFAULT_CULL,
) -> Distribution:
    """Apply factors in stored order as sparse matvecs over the support dict.

    After each factor, entries below ``cull_threshold`` of the current total
    absolute mass are dropped; the final distribution is clamped to
    non-negative weights and renormalized.
    """
    n = dist.n
    if not dist.entries:
        raise CalibrationError("empty distribution")
    if n > MAX_REGISTER_QUBITS:
        raise CalibrationError(
            f"register of {n} qubits exceeds the {MAX_REGISTER_QUBITS}-qubit index bound"
        )
    for support, _ in cal.factors:
        if max(support) >= n:
            raise CalibrationError(f"factor support {support} exceeds register {n}")
    idx = np.fromiter(
        (bits_to_index(k) for k in dist.entries), dtype=np.uint64, count=len(dist.entries)
    )
    weights = np.fromiter(dist.entries.values(), dtype=float, count=len(dist.entries))
    for support, arr in cal.factors:
        idx, weights = _apply_factor(idx, weights, support, arr, n)
        if cull_threshold > 0.0:
            floor = cull_threshold * np.abs(weights).sum()
            keep = np.abs(weights) >= floor
            idx, weights = idx[keep], weights[keep]
        if idx.size == 0:
            raise CalibrationError("all mass culled during application")
    positive = weights > 0.0
    idx, weights = idx[positive], weights[positive]
    total = weights.sum()
    if total <= 0.0:
        raise CalibrationError("no positive mass left after mitigation")
    weights = weights / total
    entries = {index_to_bits(int(i), n): float(w) for i, w in zip(idx, weights)}
    return Distribution(entries, n)


def _apply_factor(idx, weights, support, arr, n):
    local = extract_index(idx, support, n).astype(np.int64)
    cleared = idx & np.uint64(~support_mask(support, n) & ((1 << n) - 1))
    out_idx = []
    out_w = []
    for row in range(1 << len(support)):
        coeff = arr[row, local]
        nz = coeff != 0.0
        if not nz.any():
            continue
        out_idx.append(cleared[nz] | np.uint64(scatter_index(row, support, n)))
        out_w.append(coeff[nz] * weights[nz])
    if not out_idx:
        return np.empty(0, dtype=np.uint64), np.empty(0)
    all_idx = np.concatenate(out_idx)
    all_w = np.concatenate(out_w)
    uniq, inverse = np.unique(all_idx, return_inverse=True)
    summed = np.zeros(uniq.size)
    np.add.at(summed, inverse, all_w)
    return uniq, summed
