"""Measurement-error mitigation strategies under a shared shot budget.

Every ``run_*`` function consumes an ideal circuit distribution, a
:class:`~cmcal.noise.NoiseModel`, and a :class:`ShotBudget`, and returns a
:class:`MethodResult` with the mitigated distribution, a shots ledger by
phase, and per-phase diagnostics.  Passing ``budget=None`` switches to exact
(infinite-shot) evaluation: every sampled quantity is replaced by the exact
corrupted distribution and the ledger reports zero shots, while planned
circuit counts are still reported for cost accounting.

Method ids: bare, full, linear, cmc, cmc_err, aim, sim, jigsaw.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .calibration import (
    CalibrationError,
    CalibrationMatrix,
    Distribution,
    SparseCalibration,
    _ordered_sum,
    _summed,
    apply,
    assemble_for_measured,
    extract_index,
    group_preparation_circuits,
    invert,
    normalized_partial_trace,
    support_mask,
)
from .noise import _as_rng, sample_distribution
from .topology import (
    candidate_pairs,
    correlation_weights,
    err_map,
    greedy_patch_plan,
    group_patches,
)

__all__ = [
    "METHODS",
    "FULL_MAX_QUBITS",
    "ShotBudget",
    "StrategyConfig",
    "MethodResult",
    "calibrate_patches",
    "run_bare",
    "run_full",
    "run_linear",
    "run_sim",
    "run_aim",
    "run_jigsaw",
    "run_cmc",
    "run_cmc_err",
    "run_method",
]

METHODS = ("bare", "full", "linear", "cmc", "cmc_err", "aim", "sim", "jigsaw")
FULL_MAX_QUBITS = 14


@dataclass(frozen=True)
class ShotBudget:
    """Total measurement budget; strategies decide their own phase split.

    Strategies that characterize the device first may spend at most half of
    the total on those circuits before the payload circuit runs.
    """

    total: int

    def __post_init__(self):
        if self.total <= 0:
            raise ValueError("total shots must be positive")

    def split(self):
        calibration = self.total // 2
        return calibration, self.total - calibration


@dataclass(frozen=True)
class StrategyConfig:
    """Method id plus method-specific options (see run_method)."""

    method: str
    options: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        allowed = _OPTION_KEYS[self.method]
        extra = set(self.options) - allowed
        if extra:
            raise ValueError(f"unknown options for {self.method}: {sorted(extra)}")


@dataclass(frozen=True)
class MethodResult:
    method: str
    mitigated: Distribution
    shots_used: dict
    diagnostics: dict

    @property
    def total_shots(self):
        return sum(self.shots_used.values())

    @property
    def calibration_shots(self):
        """Shots spent characterizing the device, in the calibration and
        pre-pass phases; every other phase runs the circuit itself."""
        return self.shots_used.get("calibration", 0) + self.shots_used.get("prepass", 0)


def _check_register(dist, noise, n=None):
    if n is None:
        n = dist.n
    if dist.n != n or noise.num_qubits != n:
        raise CalibrationError(
            f"register mismatch: circuit {dist.n}, noise {noise.num_qubits}, n {n}"
        )
    return n


def _split_budget(budget, circuits):
    """Shots per calibration circuit and payload shots; both None in exact mode."""
    if budget is None:
        return None, None
    cal_shots, circuit_shots = budget.split()
    if cal_shots < circuits:
        raise ValueError(f"budget too small: {cal_shots} shots for {circuits} circuits")
    return cal_shots // circuits, circuit_shots


def _observe(noise, dist, shots, rng, measured=None):
    """Corrupted distribution — exact when shots is None, sampled
    frequencies otherwise."""
    observed = noise.corrupted(dist, measured)
    if shots is None:
        return observed
    counts = sample_distribution(observed, shots, rng)
    return Distribution._adopt(counts.index, counts.weights / shots, counts.n)


def _masked(dist, mask):
    """Distribution after X gates on the qubits set in the index ``mask``."""
    return Distribution._adopt(dist.index ^ np.uint64(mask), dist.weights, dist.n)


def _unmasked_average(noise, circuit, masks, shots, rng):
    """Average of one run of ``circuit`` under each mask, XOR-unmasked."""
    runs = [_masked(_observe(noise, _masked(circuit, m), shots, rng), m) for m in masks]
    w = 1.0 / len(runs)
    index = np.concatenate([d.index for d in runs])
    weights = np.concatenate([w * d.weights for d in runs])
    return Distribution._adopt(*_summed(index, weights), circuit.n).finalized()


def _bit_strings(masks, n):
    """Index masks as bitstrings, for diagnostics."""
    return [format(mask, f"0{n}b") for mask in masks]


# --- simple baselines -----------------------------------------------------------


def run_bare(circuit, noise, budget, seed=0):
    """All shots on the circuit; empirical frequencies, no mitigation."""
    _check_register(circuit, noise)
    shots = None if budget is None else budget.total
    observed = _observe(noise, circuit, shots, _as_rng(seed))
    return MethodResult(
        "bare",
        observed,
        {"circuit": shots or 0},
        {"circuits": {"circuit": 1}},
    )


def run_full(circuit, noise, budget, seed=0):
    """Dense register-scale calibration from all 2^n basis states."""
    n = _check_register(circuit, noise)
    if n > FULL_MAX_QUBITS:
        raise ValueError(f"dense calibration refused for n={n} > {FULL_MAX_QUBITS}")
    dim = 1 << n
    rng = _as_rng(seed)
    r, circuit_shots = _split_budget(budget, dim)
    matrix = np.zeros((dim, dim))
    for col in range(dim):
        observed = _observe(noise, Distribution._adopt([col], [1.0], n), r, rng)
        matrix[observed.index, col] = observed.weights
    try:
        inverse = np.linalg.inv(matrix)
    except np.linalg.LinAlgError:
        per = "exact columns" if r is None else f"shots per basis state: {r}"
        raise CalibrationError(f"dense calibration matrix is singular ({per})") from None
    observed = _observe(noise, circuit, circuit_shots, rng)
    vec = np.zeros(dim)
    vec[observed.index] = observed.weights
    mitigated = np.clip(inverse @ vec, 0.0, None)
    total = mitigated.sum()
    if total <= 0.0:
        raise CalibrationError("no positive mass left after mitigation")
    mitigated /= total
    support = np.flatnonzero(mitigated > 0.0)
    return MethodResult(
        "full",
        Distribution._adopt(support, mitigated[support], n),
        {"calibration": (r or 0) * dim, "circuit": circuit_shots or 0},
        {"circuits": {"calibration": dim, "circuit": 1}},
    )


def _single_qubit_matrices(noise, n, shots, rng):
    """Per-qubit matrices from the two circuits 0...0 and 1...1."""
    columns = {q: np.zeros((2, 2)) for q in range(n)}
    for bit, state in enumerate((0, (1 << n) - 1)):
        observed = _observe(noise, Distribution._adopt([state], [1.0], n), shots, rng)
        for q in range(n):
            marg = observed.marginal((q,))
            columns[q][marg.index, bit] = marg.weights
    return {q: CalibrationMatrix((q,), arr) for q, arr in columns.items()}


def run_linear(circuit, noise, budget, seed=0):
    """Per-qubit calibration from the two circuits 0...0 and 1...1."""
    n = _check_register(circuit, noise)
    rng = _as_rng(seed)
    r, circuit_shots = _split_budget(budget, 2)
    singles = _single_qubit_matrices(noise, n, r, rng)
    mitigated = mitigate((), singles, _observe(noise, circuit, circuit_shots, rng))
    return MethodResult(
        "linear",
        mitigated,
        {"calibration": (r or 0) * 2, "circuit": circuit_shots or 0},
        {"circuits": {"calibration": 2, "circuit": 1}},
    )


# --- mask-based baselines ---------------------------------------------------------


def _sim_masks(n):
    """Index masks: none, all, every odd qubit, and every even qubit."""
    if n == 1:
        return (0, 1, 0, 1)
    # odd register: the last qubit repeats the preceding mask bit
    alt = support_mask(tuple(range(1, n, 2)) + ((n - 1,) if n % 2 else ()), n)
    full = (1 << n) - 1
    return (0, full, alt, full ^ alt)


def run_sim(circuit, noise, budget, seed=0):
    """Average of four statically masked runs, XOR-unmasked."""
    n = _check_register(circuit, noise)
    masks = _sim_masks(n)
    rng = _as_rng(seed)
    per = None if budget is None else budget.total // len(masks)
    if per is not None and per < 1:
        raise ValueError("budget too small for four masked runs")
    return MethodResult(
        "sim",
        _unmasked_average(noise, circuit, masks, per, rng),
        {"circuit": (per or 0) * len(masks)},
        {"circuits": {"circuit": len(masks)}, "masks": _bit_strings(masks, n)},
    )


def _aim_masks(n):
    """Index masks of four-qubit windows (the whole register if smaller), step 2."""
    width = min(4, n)
    return tuple(
        support_mask(tuple(range(off, off + width)), n) for off in range(0, n - width + 1, 2)
    )


def run_aim(circuit, noise, budget, r1=None, r2=None, top_k=None, seed=0):
    """Two-phase adaptive masking: score sliding flip windows, rerun the best.

    Phase 1 runs every four-qubit window mask ``r1`` times and scores it by
    its maximum single-outcome frequency (more decisive masks score higher);
    phase 2 reruns the ``top_k`` masks ``r2`` times, XOR-unmasks, averages.
    In exact mode (``budget=None``) both phases use the exact corrupted
    distributions and ``r1`` and ``r2`` are ignored.
    """
    n = _check_register(circuit, noise)
    masks = _aim_masks(n)
    m = len(masks)
    if top_k is None:
        top_k = max(1, m // 2)
    if not (1 <= top_k <= m):
        raise ValueError(f"top_k must be in [1, {m}]")
    rng = _as_rng(seed)
    if budget is None:
        r1 = r2 = None
    else:
        if r1 is None:
            r1 = (budget.total // 2) // m
        if r2 is None:
            r2 = (budget.total - m * r1) // top_k
        if r1 < 1 or r2 < 1 or m * r1 + top_k * r2 > budget.total:
            raise ValueError("budget too small for both mask phases")
    scores = []
    for mask in masks:
        observed = _observe(noise, _masked(circuit, mask), r1, rng)
        scores.append(float(observed.weights.max()))
    selected = [masks[i] for i in sorted(range(m), key=lambda i: (-scores[i], i))[:top_k]]
    return MethodResult(
        "aim",
        _unmasked_average(noise, circuit, selected, r2, rng),
        {"phase1": (r1 or 0) * m, "phase2": (r2 or 0) * top_k},
        {
            "circuits": {"phase1": m, "phase2": top_k},
            "masks": _bit_strings(masks, n),
            "selected": _bit_strings(selected, n),
            "scores": scores,
        },
    )


# --- jigsaw -----------------------------------------------------------------------


def run_jigsaw(circuit, noise, budget, patch_count=None, epsilon=0.0, seed=0):
    """Bayesian fusion of a global table with two-qubit sub-measurements.

    Random disjoint qubit pairs are each measured alone; every sub-table
    rescales the global table's matching bit patterns to the sub-table's
    frequencies (zero-frequency patterns are culled).  With ``epsilon > 0`` a
    sub-table whose observed patterns collapse to at most one entry is
    skipped (recorded in diagnostics) instead of promoting whatever state
    happens to share that pattern; with ``epsilon = 0`` the update is applied
    verbatim, reproducing the over-reporting failure mode.

    The update sharpens the table only where subset measurement suppresses
    correlated channels; on independent per-qubit noise every sub-table has
    the distribution of the matching global marginal, so it is a no-op in
    expectation.
    """
    n = _check_register(circuit, noise)
    if epsilon < 0:
        raise ValueError("epsilon must be nonnegative")
    if patch_count is None:
        patch_count = max(1, n // 2)
    if not (1 <= patch_count <= max(1, n // 2)):
        raise ValueError(f"patch_count must be in [1, {max(1, n // 2)}]")
    if n < 2:
        raise ValueError("jigsaw needs at least two qubits")
    rng = _as_rng(seed)
    per = None if budget is None else budget.total // (patch_count + 1)
    if per is not None and per < 1:
        raise ValueError("budget too small for global plus patch runs")
    table = _observe(noise, circuit, per, rng)
    index, weights = table.index, table.weights
    perm = rng.permutation(n)
    patches = [
        tuple(sorted((int(perm[2 * i]), int(perm[2 * i + 1]))))
        for i in range(patch_count)
    ]
    skipped = []
    for patch in patches:
        sub = noise.corrupted(circuit, measured=patch)
        if per is not None:
            sub = sample_distribution(sub, per, rng)  # weights are counts
        if epsilon > 0.0 and np.count_nonzero(sub.weights) <= 1:
            skipped.append(patch)
            continue
        freq = np.zeros(4)
        freq[sub.index] = sub.weights
        if per is not None:
            freq = (freq + epsilon) / (per + 4 * epsilon) if epsilon > 0.0 else freq / per
        pattern = extract_index(index, patch, n).astype(np.intp)
        marginal = np.bincount(pattern, weights=weights, minlength=4)[pattern]
        weight = freq[pattern]
        keep = (weight > 0.0) & (marginal > 0.0)
        updated = weights[keep] * weight[keep] / marginal[keep]
        total = _ordered_sum(updated)
        if total <= 0.0:
            skipped.append(patch)
            continue
        index, weights = index[keep], updated / total
    mitigated = Distribution._adopt(index, weights, n).finalized()
    return MethodResult(
        "jigsaw",
        mitigated,
        {"global": per or 0, "patches": (per or 0) * patch_count},
        {
            "circuits": {"global": 1, "patches": patch_count},
            "patches": patches,
            "skipped_subtables": skipped,
        },
    )


# --- coupling-map calibration -------------------------------------------------------


def _estimate_patches(noise, plan, shots_per_circuit, rng):
    """One CalibrationMatrix per plan patch, in plan order, from merged group circuits.

    Group circuits prepare every patch of a group at once and measure the
    whole register.  Each patch's column is the exact marginal of the
    corrupted distribution on the patch support, sampled independently per
    patch when a shot count is given (patches in one group are farther apart
    than the separation, so cross-patch sampling correlation is negligible).
    """
    blocks = {}
    for group in plan.groups:
        for col, assignment in enumerate(group_preparation_circuits(group)):
            marginals = noise.marginal_after_noise(assignment, group)
            for patch, marg in zip(group, marginals):
                dim = 1 << len(patch)
                column = np.zeros(dim)
                if shots_per_circuit is None:
                    column[marg.index] = marg.weights
                else:
                    counts = sample_distribution(marg, shots_per_circuit, rng)
                    column[counts.index] = counts.weights / shots_per_circuit
                blocks.setdefault(patch, np.zeros((dim, dim)))[:, col] = column
    return [CalibrationMatrix(p, blocks[p]) for p in plan.patches]


def mitigate(patches, singles, dist, measured=None):
    """Join ``patches`` (and ``singles`` where none reach) over ``measured``,
    by default the whole register, invert the join and apply it to ``dist``:
    the one mitigation step of cmc, cmc_err, linear and the calibration store.

    If ``dist.n`` equals the number of measured qubits, bit ``i`` of ``dist``
    is the ``i``-th measured qubit in ascending order, and the joined factors
    are relabelled onto those positions.
    """
    qubits = sorted({int(q) for q in (range(dist.n) if measured is None else measured)})
    forward = assemble_for_measured(patches, qubits, singles)
    if len(qubits) == dist.n and qubits[-1] != dist.n - 1:
        pos = {q: i for i, q in enumerate(qubits)}
        forward = SparseCalibration(
            tuple((tuple(pos[q] for q in sup), arr) for sup, arr in forward.factors)
        )
    return apply(invert(forward), dist)


def _num_circuits(plan):
    return sum(1 << len(g[0]) for g in plan.groups)


def calibrate_patches(noise, plan, shots_per_circuit=None, seed=0):
    """One CalibrationMatrix per plan patch, in plan order, plus singles.

    Columns are exact corrupted marginals when ``shots_per_circuit`` is None
    and sampled frequencies otherwise.  The singles dict holds each qubit's
    marginal taken from the first patch containing it, usable as a fallback
    factor for qubits a later assembly leaves uncovered.
    """
    ordered = _estimate_patches(noise, plan, shots_per_circuit, _as_rng(seed))
    singles = {}
    for mat in ordered:
        for q in mat.support:
            if q not in singles:
                singles[q] = normalized_partial_trace(mat, {q})
    return ordered, singles


def run_cmc(circuit, noise, budget, cmap, separation=1, seed=0):
    """Patch-grouped calibration over the coupling map, joined and inverted."""
    _check_register(circuit, noise, cmap.num_qubits)
    plan = greedy_patch_plan(cmap, separation)
    num_circuits = _num_circuits(plan)
    rng = _as_rng(seed)
    r, circuit_shots = _split_budget(budget, num_circuits)
    patches = _estimate_patches(noise, plan, r, rng)
    mitigated = mitigate(patches, None, _observe(noise, circuit, circuit_shots, rng))
    return MethodResult(
        "cmc",
        mitigated,
        {"calibration": (r or 0) * num_circuits, "circuit": circuit_shots or 0},
        {
            "circuits": {"calibration": num_circuits, "circuit": 1},
            "groups": len(plan.groups),
            "patches": len(plan.patches),
        },
    )


def run_cmc_err(
    circuit,
    noise,
    budget,
    cmap,
    locality=2,
    max_edges=None,
    separation=1,
    prepass_fraction=0.3,
    seed=0,
):
    """Correlation-directed calibration: weigh local pairs, calibrate the
    heaviest ones, and fall back to single-qubit factors elsewhere.

    The pre-pass estimates single-qubit matrices (two circuits) and all
    candidate-pair matrices within ``locality`` (grouped into disjoint
    matchings), spends ``prepass_fraction`` of the calibration budget, and
    selects at most ``max_edges`` (default: register size) pairs by
    correlation weight to feed the patch-calibration pipeline.
    """
    n = _check_register(circuit, noise, cmap.num_qubits)
    if not (0.0 < prepass_fraction < 1.0):
        raise ValueError("prepass_fraction must be in (0, 1)")
    rng = _as_rng(seed)
    pairs = candidate_pairs(cmap, locality)
    matchings = group_patches(cmap, pairs, 0)
    prepass_circuits = 2 + _num_circuits(matchings)
    if budget is None:
        r_pre, r_cal, circuit_shots = None, None, None
    else:
        cal_shots, circuit_shots = budget.split()
        prepass_shots = int(cal_shots * prepass_fraction)
        r_pre = prepass_shots // prepass_circuits
        if r_pre < 1:
            raise ValueError(
                f"budget too small: {prepass_shots} shots for {prepass_circuits} "
                "pre-pass circuits"
            )

    singles = _single_qubit_matrices(noise, n, r_pre, rng)
    pair_mats = {m.support: m for m in _estimate_patches(noise, matchings, r_pre, rng)}
    weights = correlation_weights(singles, pair_mats, locality)
    selected = err_map(weights, n if max_edges is None else max_edges)

    plan = group_patches(cmap, selected.edges, separation)
    num_circuits = _num_circuits(plan)
    if budget is not None:
        remaining = cal_shots - r_pre * prepass_circuits
        r_cal = remaining // num_circuits
        if r_cal < 1:
            raise ValueError(
                f"budget too small: {remaining} shots for {num_circuits} circuits"
            )
    patches = _estimate_patches(noise, plan, r_cal, rng)
    mitigated = mitigate(patches, singles, _observe(noise, circuit, circuit_shots, rng))
    return MethodResult(
        "cmc_err",
        mitigated,
        {
            "prepass": (r_pre or 0) * prepass_circuits,
            "calibration": (r_cal or 0) * num_circuits,
            "circuit": circuit_shots or 0,
        },
        {
            "circuits": {
                "prepass": prepass_circuits,
                "calibration": num_circuits,
                "circuit": 1,
            },
            "err_edges": list(selected.edges),
            "groups": len(plan.groups),
            "weights": {f"{i},{j}": w for (i, j), w in sorted(weights.weights.items())},
        },
    )


# --- dispatch ---------------------------------------------------------------------


_OPTION_KEYS = {
    "bare": set(),
    "full": set(),
    "linear": set(),
    "sim": set(),
    "aim": {"r1", "r2", "top_k"},
    "jigsaw": {"patch_count", "epsilon", "seed"},
    "cmc": {"separation"},
    "cmc_err": {"locality", "max_edges", "separation", "prepass_fraction"},
}


def run_method(config, circuit, noise, budget, cmap=None, seed=0):
    """Dispatch a StrategyConfig to ``run_<method>``, looked up here on each
    call so that rebinding a runner (to wrap or trace it) reaches it too; a
    jigsaw ``seed`` option wins."""
    runner = globals()[f"run_{config.method}"]
    options = {"seed": seed, **config.options}
    if config.method not in ("cmc", "cmc_err"):
        return runner(circuit, noise, budget, **options)
    if cmap is None:
        raise ValueError(f"{config.method} requires a coupling map")
    return runner(circuit, noise, budget, cmap, **options)
