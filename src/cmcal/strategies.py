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

from ._basis import bits_to_index, extract_bits, index_to_bits
from .calibration import (
    DEFAULT_CULL,
    CalibrationError,
    CalibrationMatrix,
    Distribution,
    SparseCalibration,
    apply,
    assemble_for_measured,
    group_preparation_circuits,
    invert,
    normalized_partial_trace,
)
from .noise import _as_rng, _dist_of, sample_distribution
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

    ``calibration_fraction`` bounds how much of the total a strategy may
    spend on characterization circuits before the payload circuit runs.
    """

    total: int
    calibration_fraction: float = 0.5

    def __post_init__(self):
        if self.total <= 0:
            raise ValueError("total shots must be positive")
        if not (0.0 < self.calibration_fraction < 1.0):
            raise ValueError("calibration_fraction must be in (0, 1)")

    def split(self):
        calibration = int(self.total * self.calibration_fraction)
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


def _check_register(dist, noise, n):
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
    """Corrupted distribution — exact when shots is None, sampled otherwise."""
    if shots is None:
        return noise.corrupted(dist, measured)
    counts = noise.sample(dist, shots, rng, measured)
    width = len(measured) if measured is not None else dist.n
    return Distribution.from_counts(counts, width)


def _xor_key(bits, mask):
    return format(int(bits, 2) ^ int(mask, 2), f"0{len(bits)}b")


def _masked(dist, mask):
    """Distribution after X gates on the mask's ``1`` positions."""
    return Distribution({_xor_key(k, mask): v for k, v in dist.entries.items()}, dist.n)


def _average(dists, n):
    out = {}
    w = 1.0 / len(dists)
    for d in dists:
        for k, v in d.entries.items():
            out[k] = out.get(k, 0.0) + w * v
    return Distribution(out, n).finalized()


# --- simple baselines -----------------------------------------------------------


def run_bare(circuit, noise, budget, seed=0):
    """All shots on the circuit; empirical frequencies, no mitigation."""
    dist = _dist_of(circuit)
    n = _check_register(dist, noise, None)
    shots = None if budget is None else budget.total
    observed = _observe(noise, dist, shots, _as_rng(seed))
    return MethodResult(
        "bare",
        observed,
        {"circuit": shots or 0},
        {"circuits": {"circuit": 1}},
    )


def run_full(circuit, noise, budget, n=None, seed=0, force=False):
    """Dense register-scale calibration from all 2^n basis states."""
    dist = _dist_of(circuit)
    n = _check_register(dist, noise, n)
    if n > FULL_MAX_QUBITS and not force:
        raise ValueError(
            f"dense calibration refused for n={n} > {FULL_MAX_QUBITS}; pass force=True"
        )
    dim = 1 << n
    rng = _as_rng(seed)
    r, circuit_shots = _split_budget(budget, dim)
    matrix = np.zeros((dim, dim))
    for col in range(dim):
        prep = Distribution.point_mass(index_to_bits(col, n))
        observed = _observe(noise, prep, r, rng)
        for key, val in observed.entries.items():
            matrix[bits_to_index(key), col] = val
    try:
        inverse = np.linalg.inv(matrix)
    except np.linalg.LinAlgError:
        inverse = np.linalg.pinv(matrix)
    observed = _observe(noise, dist, circuit_shots, rng)
    vec = np.zeros(dim)
    for key, val in observed.entries.items():
        vec[bits_to_index(key)] = val
    mitigated = np.clip(inverse @ vec, 0.0, None)
    total = mitigated.sum()
    if total <= 0.0:
        raise CalibrationError("no positive mass left after mitigation")
    mitigated /= total
    entries = {index_to_bits(i, n): float(v) for i, v in enumerate(mitigated) if v > 0.0}
    return MethodResult(
        "full",
        Distribution(entries, n),
        {"calibration": (r or 0) * dim, "circuit": circuit_shots or 0},
        {"circuits": {"calibration": dim, "circuit": 1}},
    )


def _single_qubit_matrices(noise, n, shots, rng):
    """Per-qubit matrices from the two circuits 0...0 and 1...1."""
    columns = {q: np.zeros((2, 2)) for q in range(n)}
    for bit, pattern in enumerate(("0" * n, "1" * n)):
        observed = _observe(noise, Distribution.point_mass(pattern), shots, rng)
        for q in range(n):
            marg = observed.marginal((q,))
            columns[q][:, bit] = [marg.entries.get("0", 0.0), marg.entries.get("1", 0.0)]
    return {q: CalibrationMatrix((q,), arr) for q, arr in columns.items()}


def run_linear(circuit, noise, budget, n=None, seed=0):
    """Per-qubit calibration from the two circuits 0...0 and 1...1."""
    dist = _dist_of(circuit)
    n = _check_register(dist, noise, n)
    rng = _as_rng(seed)
    r, circuit_shots = _split_budget(budget, 2)
    singles = _single_qubit_matrices(noise, n, r, rng)
    inverse = invert(SparseCalibration(tuple((m.support, m.entries) for m in singles.values())))
    mitigated = apply(inverse, _observe(noise, dist, circuit_shots, rng))
    return MethodResult(
        "linear",
        mitigated,
        {"calibration": (r or 0) * 2, "circuit": circuit_shots or 0},
        {"circuits": {"calibration": 2, "circuit": 1}},
    )


# --- mask-based baselines ---------------------------------------------------------


def _sim_masks(n):
    if n == 1:
        return ("0", "1", "0", "1")
    half = n // 2
    alt = "01" * half
    inv = "10" * half
    if n % 2:
        # odd register: the last qubit repeats the preceding mask bit
        alt += alt[-1]
        inv += inv[-1]
    return ("0" * n, "1" * n, alt, inv)


def run_sim(circuit, noise, budget, n=None, seed=0):
    """Average of four statically masked runs, XOR-unmasked."""
    dist = _dist_of(circuit)
    n = _check_register(dist, noise, n)
    masks = _sim_masks(n)
    rng = _as_rng(seed)
    per = None if budget is None else budget.total // len(masks)
    if per is not None and per < 1:
        raise ValueError("budget too small for four masked runs")
    unmasked = []
    for mask in masks:
        observed = _observe(noise, _masked(dist, mask), per, rng)
        unmasked.append(_masked(observed, mask))
    return MethodResult(
        "sim",
        _average(unmasked, n),
        {"circuit": (per or 0) * len(masks)},
        {"circuits": {"circuit": len(masks)}, "masks": list(masks)},
    )


def _aim_masks(n):
    width = min(4, n)
    return tuple(
        "0" * off + "1" * width + "0" * (n - off - width)
        for off in range(0, n - width + 1, 2)
    )


def run_aim(circuit, noise, budget, n=None, r1=None, r2=None, top_k=None, seed=0):
    """Two-phase adaptive masking: score sliding flip windows, rerun the best.

    Phase 1 runs every four-qubit window mask ``r1`` times and scores it by
    its maximum single-outcome frequency (more decisive masks score higher);
    phase 2 reruns the ``top_k`` masks ``r2`` times, XOR-unmasks, averages.
    """
    dist = _dist_of(circuit)
    n = _check_register(dist, noise, n)
    masks = _aim_masks(n)
    m = len(masks)
    if top_k is None:
        top_k = max(1, m // 2)
    if not (1 <= top_k <= m):
        raise ValueError(f"top_k must be in [1, {m}]")
    rng = _as_rng(seed)
    if budget is None:
        if r1 is None or r2 is None:
            r1, r2 = None, None
    else:
        if r1 is None:
            r1 = (budget.total // 2) // m
        if r2 is None:
            r2 = (budget.total - m * r1) // top_k
        if r1 < 1 or r2 < 1 or m * r1 + top_k * r2 > budget.total:
            raise ValueError("budget too small for both mask phases")
    scores = []
    for mask in masks:
        observed = _observe(noise, _masked(dist, mask), r1, rng)
        scores.append(max(observed.entries.values()))
    selected = sorted(range(m), key=lambda i: (-scores[i], i))[:top_k]
    unmasked = []
    for i in selected:
        observed = _observe(noise, _masked(dist, masks[i]), r2, rng)
        unmasked.append(_masked(observed, masks[i]))
    return MethodResult(
        "aim",
        _average(unmasked, n),
        {"phase1": (r1 or 0) * m, "phase2": (r2 or 0) * top_k},
        {
            "circuits": {"phase1": m, "phase2": top_k},
            "masks": list(masks),
            "selected": [masks[i] for i in selected],
            "scores": scores,
        },
    )


# --- jigsaw -----------------------------------------------------------------------


def run_jigsaw(circuit, noise, budget, n=None, patch_count=None, epsilon=0.0, seed=0):
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
    dist = _dist_of(circuit)
    n = _check_register(dist, noise, n)
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
    table = dict(_observe(noise, dist, per, rng).entries)
    perm = rng.permutation(n)
    patches = [
        tuple(sorted((int(perm[2 * i]), int(perm[2 * i + 1]))))
        for i in range(patch_count)
    ]
    skipped = []
    for patch in patches:
        if per is None:
            sub = noise.corrupted(dist, measured=patch).entries
            observed = {k: v for k, v in sub.items() if v > 0.0}
            freq = dict(observed)
        else:
            counts = noise.sample(dist, per, rng, measured=patch)
            observed = {k: v for k, v in counts.items() if v > 0}
            if epsilon > 0.0:
                freq = {
                    index_to_bits(i, 2): (counts.get(index_to_bits(i, 2), 0) + epsilon)
                    / (per + 4 * epsilon)
                    for i in range(4)
                }
            else:
                freq = {k: v / per for k, v in observed.items()}
        if epsilon > 0.0 and len(observed) <= 1:
            skipped.append(patch)
            continue
        marginal = {}
        for key, val in table.items():
            pat = extract_bits(key, patch)
            marginal[pat] = marginal.get(pat, 0.0) + val
        updated = {}
        for key, val in table.items():
            pat = extract_bits(key, patch)
            weight = freq.get(pat, 0.0)
            if weight > 0.0 and marginal[pat] > 0.0:
                updated[key] = val * weight / marginal[pat]
        total = sum(updated.values())
        if total <= 0.0:
            skipped.append(patch)
            continue
        table = {k: v / total for k, v in updated.items()}
    mitigated = Distribution(table, n).finalized()
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
    n = noise.num_qubits
    blocks = {}
    for group in plan.groups:
        for col, assignment in enumerate(group_preparation_circuits(group)):
            bits = "".join("1" if assignment.get(q, 0) else "0" for q in range(n))
            marginals = noise.marginal_after_noise(Distribution.point_mass(bits), group)
            for patch, marg in zip(group, marginals):
                dim = 1 << len(patch)
                column = np.zeros(dim)
                if shots_per_circuit is None:
                    for key, val in marg.entries.items():
                        column[bits_to_index(key)] = val
                else:
                    counts = sample_distribution(marg, shots_per_circuit, rng)
                    for key, c in counts.items():
                        column[bits_to_index(key)] = c / shots_per_circuit
                blocks.setdefault(patch, np.zeros((dim, dim)))[:, col] = column
    return [CalibrationMatrix(p, blocks[p]) for p in plan.patches]


def _mitigate_with_plan(noise, dist, plan, shots_per_circuit, circuit_shots, rng,
                        cull_threshold, singles=None):
    """Estimate the plan's patches, join them over the register, invert the
    join, and apply the inverse to the observed circuit distribution."""
    patches = _estimate_patches(noise, plan, shots_per_circuit, rng)
    inverse = invert(assemble_for_measured(patches, range(dist.n), singles))
    return apply(inverse, _observe(noise, dist, circuit_shots, rng), cull_threshold)


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


def run_cmc(circuit, noise, budget, cmap, separation=1, cull_threshold=DEFAULT_CULL, seed=0):
    """Patch-grouped calibration over the coupling map, joined and inverted."""
    dist = _dist_of(circuit)
    _check_register(dist, noise, cmap.num_qubits)
    plan = greedy_patch_plan(cmap, separation)
    num_circuits = _num_circuits(plan)
    rng = _as_rng(seed)
    r, circuit_shots = _split_budget(budget, num_circuits)
    mitigated = _mitigate_with_plan(noise, dist, plan, r, circuit_shots, rng, cull_threshold)
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
    cull_threshold=DEFAULT_CULL,
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
    dist = _dist_of(circuit)
    n = _check_register(dist, noise, cmap.num_qubits)
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
    mitigated = _mitigate_with_plan(
        noise, dist, plan, r_cal, circuit_shots, rng, cull_threshold, singles
    )
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
    "full": {"force"},
    "linear": set(),
    "sim": set(),
    "aim": {"r1", "r2", "top_k"},
    "jigsaw": {"patch_count", "epsilon", "seed"},
    "cmc": {"separation", "cull_threshold"},
    "cmc_err": {
        "locality",
        "max_edges",
        "separation",
        "cull_threshold",
        "prepass_fraction",
    },
}


# Every runner takes (circuit, noise, budget, cmap, **options).  The lambdas
# look each run_* function up when called, so rebinding one in this module
# (to wrap or trace it) reaches run_method too.
_RUNNERS = {
    "bare": lambda c, noise, b, cmap, **kw: run_bare(c, noise, b, **kw),
    "full": lambda c, noise, b, cmap, **kw: run_full(c, noise, b, **kw),
    "linear": lambda c, noise, b, cmap, **kw: run_linear(c, noise, b, **kw),
    "sim": lambda c, noise, b, cmap, **kw: run_sim(c, noise, b, **kw),
    "aim": lambda c, noise, b, cmap, **kw: run_aim(c, noise, b, **kw),
    "jigsaw": lambda c, noise, b, cmap, **kw: run_jigsaw(c, noise, b, **kw),
    "cmc": lambda c, noise, b, cmap, **kw: run_cmc(c, noise, b, cmap, **kw),
    "cmc_err": lambda c, noise, b, cmap, **kw: run_cmc_err(c, noise, b, cmap, **kw),
}


def run_method(config, circuit, noise, budget, cmap=None, seed=0):
    """Dispatch a StrategyConfig to its runner; a jigsaw ``seed`` option wins."""
    if config.method in ("cmc", "cmc_err") and cmap is None:
        raise ValueError(f"{config.method} requires a coupling map")
    options = {"seed": seed, **config.options}
    return _RUNNERS[config.method](circuit, noise, budget, cmap, **options)
