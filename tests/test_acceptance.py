"""End-to-end acceptance gate: twelve checks, one printed verdict line each.

Run ``pytest tests/test_acceptance.py -s -q`` for the full report.  Every
test prints ``criterion NN [PASS|FAIL] name: detail`` before asserting, so
the report stays complete even when a check goes red.
"""

import json
import os
import subprocess
import sys
import time

import numpy as np

from cmcal.bench import ExperimentConfig, one_norm, run_experiment
from cmcal.calibration import (
    CalibrationMatrix,
    Distribution,
    assemble_for_measured,
    fractional_power,
    normalized_partial_trace,
    order_adjust,
)
from cmcal.cli import main
from cmcal.noise import (
    NoiseModel,
    NoiseSpec,
    compose,
    correlated_channel,
    ideal_ghz,
    state_dependent_channel,
    x_chain_experiment,
)
from cmcal.strategies import (
    ShotBudget,
    calibrate_patches,
    run_bare,
    run_cmc,
    run_full,
    run_jigsaw,
    run_sim,
)
from cmcal.topology import (
    CorrelationWeights,
    CouplingMap,
    correlation_weights,
    err_map,
    generate_architecture,
    greedy_patch_plan,
)


def _report(num, name, ok, detail):
    print(f"criterion {num:02d} [{'PASS' if ok else 'FAIL'}] {name}: {detail}")


def _random_single(rng, lo=0.02, hi=0.12):
    p01, p10 = rng.uniform(lo, hi, size=2)
    return np.array([[1 - p01, p10], [p01, 1 - p10]])


def _random_stochastic(rng, dim, diag=6.0):
    arr = rng.uniform(0.1, 1.0, size=(dim, dim)) + diag * np.eye(dim)
    return arr / arr.sum(axis=0)


def _marginal(arr, keep_pos, p):
    """Array-level marginal channel: sum discarded observed bits, pool
    discarded prepared bits, renormalize columns."""
    k = len(keep_pos)
    out = np.zeros((1 << k, 1 << k))
    for row in range(1 << p):
        for col in range(1 << p):
            rb = format(row, f"0{p}b")
            cb = format(col, f"0{p}b")
            r = int("".join(rb[i] for i in keep_pos), 2)
            c = int("".join(cb[i] for i in keep_pos), 2)
            out[r, c] += arr[row, col]
    return out / out.sum(axis=0)


def _seed_for_patch(n, patch_count, wanted):
    for seed in range(500):
        perm = np.random.default_rng(seed).permutation(n)
        patches = [
            tuple(sorted((int(perm[2 * i]), int(perm[2 * i + 1]))))
            for i in range(patch_count)
        ]
        if patches[0] == wanted:
            return seed
    raise AssertionError("no seed found")


def test_01_full_inversion_recovers_ideal_exactly():
    cases = [
        (2, (
            state_dependent_channel(0.03, 0.07, qubit=0),
            state_dependent_channel(0.05, 0.02, qubit=1),
            correlated_channel((0, 1), "pairwise_flip", 0.15),
        )),
        (3, (
            state_dependent_channel(0.02, 0.09, qubit=0),
            state_dependent_channel(0.06, 0.04, qubit=1),
            state_dependent_channel(0.03, 0.03, qubit=2),
            correlated_channel((0, 2), "pairwise_flip", 0.1),
            correlated_channel((0, 1, 2), "flip_all", 0.08),
        )),
        (4, (
            state_dependent_channel(0.04, 0.08, qubit=0),
            state_dependent_channel(0.02, 0.05, qubit=1),
            state_dependent_channel(0.07, 0.03, qubit=2),
            state_dependent_channel(0.05, 0.06, qubit=3),
            correlated_channel((1, 3), "pairwise_flip", 0.12),
            correlated_channel((0, 1, 2), "triplet_flip", 0.07),
            correlated_channel((0, 1, 2, 3), "flip_all", 0.05),
        )),
    ]
    t0 = time.perf_counter()
    worst = 0.0
    for n, channels in cases:
        ghz = ideal_ghz(n)
        result = run_full(ghz, NoiseModel(n, channels), None)
        worst = max(worst, one_norm(result.mitigated, ghz))
    dt = time.perf_counter() - t0
    ok = worst <= 1e-8 and dt < 1.0
    _report(1, "exact full-matrix inversion recovers the ideal distribution",
            ok, f"worst one-norm {worst:.2e} (tol 1e-8) in {dt:.2f}s (< 1s)")
    assert ok


def test_02_patch_calibration_exact_when_noise_aligns_with_a_matching():
    cmap = generate_architecture("linear", num_qubits=4)
    rates = [(0.02, 0.08), (0.05, 0.03), (0.04, 0.06), (0.07, 0.02)]
    channels = tuple(
        state_dependent_channel(p01, p10, qubit=q) for q, (p01, p10) in enumerate(rates)
    ) + (
        correlated_channel((0, 1), "pairwise_flip", 0.2),
        correlated_channel((2, 3), "pairwise_flip", 0.3),
    )
    model = NoiseModel(4, channels)
    t0 = time.perf_counter()
    ghz = ideal_ghz(4)
    result = run_cmc(ghz, model, None, cmap)
    dist_err = one_norm(result.mitigated, ghz)
    ordered, _ = calibrate_patches(model, greedy_patch_plan(cmap, 1))
    forward = assemble_for_measured(ordered, tuple(range(4)))
    frob = float(np.linalg.norm(forward.dense(4) - compose(channels, 4).entries))
    dt = time.perf_counter() - t0
    ok = dist_err <= 1e-6 and frob <= 1e-6 and dt < 1.0
    _report(2, "patch calibration is exact for matching-aligned noise", ok,
            f"one-norm {dist_err:.2e}, forward Frobenius {frob:.2e} (tol 1e-6) "
            f"in {dt:.2f}s (< 1s)")
    assert ok


def test_03_plaquette_join_of_independent_noise_is_a_tensor_product():
    rng = np.random.default_rng(21)
    singles = [_random_single(rng) for _ in range(4)]
    edges = [(0, 1), (1, 2), (2, 3), (0, 3)]
    patches = [
        CalibrationMatrix(e, np.kron(singles[e[0]], singles[e[1]])) for e in edges
    ]
    t0 = time.perf_counter()
    joined = assemble_for_measured(patches, range(4))
    want = singles[0]
    for s in singles[1:]:
        want = np.kron(want, s)
    err = float(np.linalg.norm(joined.dense(4) - want))
    dt = time.perf_counter() - t0
    ok = err <= 1e-8 and dt < 1.0
    _report(3, "square-plaquette join equals the four-qubit tensor product", ok,
            f"Frobenius {err:.2e} (tol 1e-8) in {dt:.2f}s (< 1s)")
    assert ok


def test_04_shared_qubit_adjustment_contracts_on_random_matrices():
    rng = np.random.default_rng(99)
    t0 = time.perf_counter()
    worst_shared = 0.0
    worst_other = 0.0
    for _ in range(1000):
        mat = CalibrationMatrix((0, 1), _random_stochastic(rng, 4))
        v = int(rng.integers(2, 5))
        v_a = int(rng.integers(0, v))
        shared = int(rng.integers(0, 2))
        other = 1 - shared
        adjusted = order_adjust(mat, shared, v, v_a)
        want_shared = fractional_power(
            normalized_partial_trace(mat, {shared}).entries, 1.0 / v
        )
        got_shared = _marginal(adjusted, [shared], 2)
        worst_shared = max(worst_shared, float(np.abs(got_shared - want_shared).max()))
        # the non-shared marginal is preserved by the first slot (v_a = 0),
        # whose right-hand compensation factor is the identity
        first = order_adjust(mat, shared, v, 0)
        want_other = normalized_partial_trace(mat, {other}).entries
        got_other = _marginal(first, [other], 2)
        worst_other = max(worst_other, float(np.abs(got_other - want_other).max()))
    dt = time.perf_counter() - t0
    ok = worst_shared <= 1e-6 and worst_other <= 1e-6 and dt < 10.0
    _report(4, "order adjustment: shared marginal takes the 1/v power, "
               "non-shared marginal preserved", ok,
            f"worst shared dev {worst_shared:.2e}, worst other dev "
            f"{worst_other:.2e} (tol 1e-6) over 1000 draws in {dt:.1f}s (< 10s)")
    assert ok


def test_05_patch_plans_save_circuits_on_sparse_maps():
    t0 = time.perf_counter()
    groups = greedy_patch_plan(generate_architecture("local_grid"), 1).num_groups
    in_range = 0
    factors = []
    for seed in range(20):
        rng = np.random.default_rng(seed)
        n = 100
        edges = {(i, i + 1) for i in range(n - 1)}
        while len(edges) < 4 * n:
            i = int(rng.integers(n - 1))
            j = min(n - 1, i + int(rng.integers(2, 12)))
            if j > i:
                edges.add((i, j))
        cmap = CouplingMap(n, sorted(edges))
        factor = cmap.num_edges / greedy_patch_plan(cmap, 1).num_groups
        factors.append(factor)
        in_range += 3.0 <= factor <= 10.0
    dt = time.perf_counter() - t0
    ok = 4 * groups <= 80 and in_range >= 16 and dt < 30.0
    _report(5, "grouped patch plans beat per-edge calibration", ok,
            f"20-qubit map: {4 * groups} circuits (<= 80); reduction factor in "
            f"[3, 10] for {in_range}/20 random 100-qubit maps "
            f"(spread {min(factors):.1f}-{max(factors):.1f}) in {dt:.1f}s (< 30s)")
    assert ok


def _edge_flip_noise(arch, seed):
    """Fixed noise document: random per-qubit rates plus one pairwise joint
    flip on every coupling-map edge, with p = 0.05 (the midpoint of the
    random sweep's [0.02, 0.08] rate range)."""
    params = {k: v for k, v in arch.items() if k != "kind"}
    cmap = generate_architecture(arch["kind"], **params)
    doc = json.loads(NoiseSpec.random(cmap.num_qubits, seed).to_json())
    doc["kind"] = "fixed"
    doc["correlated"] = [
        {"support": list(edge), "kind": "pairwise_flip", "p": 0.05} for edge in cmap.edges
    ]
    return doc


def _one_norms_by_method(config):
    per = {}
    records = run_experiment(config)
    for rec in records:
        assert rec.error is None, (rec.method, rec.error)
        per.setdefault(rec.method, []).append(rec.one_norm)
    return records[0].n, {m: np.array(v) for m, v in per.items()}


def test_06_method_ordering_on_simulated_sweeps():
    # Sweep 1: independent per-qubit noise.  Subset measurement suppresses
    # only correlated channels, so here JIGSAW's sub-tables match the global
    # marginals and JIGSAW tracks bare; cmc must still beat it by 10%.
    methods = tuple(
        {"method": m} for m in ("bare", "cmc", "jigsaw", "aim", "sim")
    )
    cells = [("grid", {"kind": "grid", "rows": r, "cols": c}) for r, c in ((2, 2), (3, 3), (4, 4))]
    cells += [("heavy_hex", {"kind": "heavy_hex", "num_qubits": n}) for n in (4, 8, 16)]
    t0 = time.perf_counter()
    failures = []
    random_ratios = []
    for idx, (family, arch) in enumerate(cells):
        config = ExperimentConfig(
            architecture=arch,
            noise={"kind": "random", "low": 0.02, "high": 0.08},
            methods=methods,
            shots=16000,
            trials=50,
            seed=300 + idx,
        )
        n, per = _one_norms_by_method(config)
        label = f"{family} n={n}"
        means = {m: float(np.mean(v)) for m, v in per.items()}
        random_ratios.append(f"{label} {means['jigsaw'] / means['bare']:.3f}")
        if not means["cmc"] < 0.9 * means["jigsaw"]:
            failures.append(
                f"{label}: cmc {means['cmc']:.3f} !< 0.9*jigsaw {means['jigsaw']:.3f}"
            )
        for m in ("jigsaw", "aim", "sim"):
            dev = float(np.mean(np.abs(per[m] - per["bare"])))
            if dev > 0.03:
                failures.append(f"{label}: mean|{m}-bare| {dev:.3f} > 0.03")

    # Sweep 2: a pairwise joint flip on every coupling-map edge, the noise
    # JIGSAW's pair sub-runs escape; JIGSAW must beat bare by 10%.  Same
    # cells and indices as sweep 1.
    flip_ratios = []
    for idx, (family, arch) in enumerate(cells):
        config = ExperimentConfig(
            architecture=arch,
            noise=_edge_flip_noise(arch, 600 + idx),
            methods=({"method": "bare"}, {"method": "jigsaw"}),
            shots=16000,
            trials=50,
            seed=600 + idx,
        )
        n, per = _one_norms_by_method(config)
        label = f"{family} n={n}"
        jigsaw, bare = float(np.mean(per["jigsaw"])), float(np.mean(per["bare"]))
        flip_ratios.append(f"{label} {jigsaw / bare:.3f}")
        if not jigsaw < 0.9 * bare:
            failures.append(f"{label} edge flips: jigsaw {jigsaw:.3f} !< 0.9*bare {bare:.3f}")
    dt = time.perf_counter() - t0
    ok = not failures and dt < 600.0
    detail = (
        f"{len(failures)} violations across 6 independent-noise + 6 edge-flip sweeps "
        f"in {dt:.0f}s (< 600s); jigsaw/bare independent: {', '.join(random_ratios)}; "
        f"edge flips: {', '.join(flip_ratios)}"
    )
    if failures:
        detail += " -- " + "; ".join(failures[:4])
        if len(failures) > 4:
            detail += f"; +{len(failures) - 4} more"
    _report(6, "sweeps: cmc < 0.9*jigsaw and jigsaw, aim, sim within 0.03 of bare on "
            "independent noise; jigsaw < 0.9*bare on edge flips", ok, detail)
    assert ok, "; ".join(failures) or f"runtime {dt:.0f}s"


def test_07_correlation_directed_calibration_wins_on_a_complete_graph():
    config = ExperimentConfig(
        architecture={"kind": "fully_connected", "num_qubits": 16},
        noise={"kind": "random", "low": 0.02, "high": 0.08},
        methods=({"method": "cmc"}, {"method": "cmc_err"}),
        shots=16000,
        trials=50,
        seed=41,
    )
    t0 = time.perf_counter()
    records = run_experiment(config)
    dt = time.perf_counter() - t0
    per = {}
    for rec in records:
        assert rec.error is None, (rec.method, rec.error)
        per.setdefault(rec.method, []).append(rec.one_norm)
    cmc = float(np.mean(per["cmc"]))
    cmc_err = float(np.mean(per["cmc_err"]))
    ok = cmc_err < cmc and dt < 300.0
    _report(7, "correlation-directed calibration beats plain patching on K16", ok,
            f"cmc_err mean {cmc_err:.3f} < cmc mean {cmc:.3f} over 50 trials "
            f"in {dt:.0f}s (< 5min)")
    assert ok


def test_08_masked_symmetrization_halves_one_sided_bias_only():
    point = Distribution.point_mass("1111")

    def mean_error(channels, runner, offset):
        model = NoiseModel(4, channels)
        errs = [
            one_norm(runner(point, model, ShotBudget(16000), seed=offset + t).mitigated, point)
            for t in range(20)
        ]
        return float(np.mean(errs))

    t0 = time.perf_counter()
    biased = tuple(state_dependent_channel(0.005, 0.065, qubit=q) for q in range(4))
    bare_biased = mean_error(biased, run_bare, 100)
    sim_biased = mean_error(biased, run_sim, 200)
    flips = (
        correlated_channel((0, 1), "pairwise_flip", 0.1),
        correlated_channel((2, 3), "pairwise_flip", 0.1),
    )
    bare_flips = mean_error(flips, run_bare, 300)
    sim_flips = mean_error(flips, run_sim, 400)
    dt = time.perf_counter() - t0
    ratio = sim_biased / bare_biased
    rel = abs(sim_flips - bare_flips) / bare_flips
    ok = ratio <= 0.6 and rel <= 0.05 and dt < 120.0
    _report(8, "masked symmetrization halves one-sided bias, inert on joint flips",
            ok, f"state-dependent ratio {ratio:.3f} (<= 0.6); joint-flip relative "
                f"deviation {rel:.2%} (<= 5%) in {dt:.0f}s (< 2min)")
    assert ok


def test_09_unsmoothed_singleton_subtable_inflates_a_rare_state():
    model = NoiseModel(4, (
        correlated_channel((1, 2), "pairwise_flip", 0.6),
        state_dependent_channel(0.02, 0.0, qubit=3),
    ))
    ideal = Distribution.point_mass("0000")
    seed = _seed_for_patch(4, 1, (0, 1))
    t0 = time.perf_counter()
    bare = run_bare(ideal, model, None).mitigated
    raw = run_jigsaw(ideal, model, None, patch_count=1, epsilon=0.0, seed=seed)
    smoothed = run_jigsaw(ideal, model, None, patch_count=1, epsilon=1e-6, seed=seed)
    dt = time.perf_counter() - t0
    assert raw.diagnostics["patches"] == [(0, 1)]
    bare_mass = bare.entries.get("0001", 0.0)
    raw_mass = raw.mitigated.entries.get("0001", 0.0)
    smoothed_mass = smoothed.mitigated.entries.get("0001", 0.0)
    ok = raw_mass > bare_mass and abs(smoothed_mass - bare_mass) <= 1e-12 and dt < 60.0
    _report(9, "unsmoothed singleton sub-table inflates a rare state; "
               "smoothing skips it", ok,
            f"mass of 0001: bare {bare_mass:.4f}, eps=0 {raw_mass:.4f}, "
            f"eps=1e-6 {smoothed_mass:.4f} in {dt:.2f}s (< 1min)")
    assert ok


def test_10_repeated_x_error_rates_form_parity_bands():
    t0 = time.perf_counter()
    rates = x_chain_experiment(50, state_dependent_channel(0.02, 0.08), 4000, seed=0)
    worst = 0.0
    within = True
    for depth, error in rates:
        band = 0.08 if depth % 2 else 0.02
        sigma = (band * (1.0 - band) / 4000) ** 0.5
        worst = max(worst, abs(error - band) / sigma)
        within = within and abs(error - band) <= 3.0 * sigma
    dt = time.perf_counter() - t0
    ok = within and dt < 60.0
    _report(10, "repeated-X misread rates sit on the 0.08/0.02 parity bands", ok,
            f"worst deviation {worst:.2f} sigma (<= 3) over depths 1-50 at "
            f"4000 shots in {dt:.2f}s (< 1min)")
    assert ok


def test_11_correlation_weights_flag_joint_flips_and_select_deterministically():
    rng = np.random.default_rng(3)
    t0 = time.perf_counter()
    a, b = _random_single(rng), _random_single(rng)
    independent = correlation_weights({0: a, 1: b}, {(0, 1): np.kron(a, b)})
    w_zero = independent.weights[(0, 1)]
    pair = correlated_channel((0, 1), "pairwise_flip", 0.1)
    singles = {q: normalized_partial_trace(pair, {q}) for q in (0, 1)}
    w_flip = correlation_weights(singles, {(0, 1): pair}).weights[(0, 1)]
    # equal-weight ties: selection must not depend on dict insertion order
    tied = [((0, 1), 0.4), ((2, 3), 0.4), ((1, 2), 0.25), ((0, 3), 0.25)]
    one = err_map(CorrelationWeights(dict(tied)), max_edges=3)
    two = err_map(CorrelationWeights(dict(reversed(tied))), max_edges=3)
    deterministic = one.edges == two.edges and one.edges == err_map(
        CorrelationWeights(dict(tied)), max_edges=3
    ).edges
    dt = time.perf_counter() - t0
    ok = w_zero <= 1e-12 and w_flip >= 0.1 and deterministic and dt < 1.0
    _report(11, "correlation weights: zero for products, >= 0.1 for 10% joint "
                "flips, deterministic selection", ok,
            f"product weight {w_zero:.1e} (<= 1e-12), flip weight {w_flip:.3f} "
            f"(>= 0.1), tie-broken edges {list(one.edges)} stable in {dt:.2f}s (< 1s)")
    assert ok


def test_12_bench_reruns_are_byte_identical(tmp_path):
    config = {
        "architecture": {"kind": "linear", "num_qubits": 4},
        "noise": {"kind": "random", "low": 0.02, "high": 0.08},
        "methods": [{"method": "bare"}, {"method": "cmc"}],
        "shots": 4000,
        "trials": 2,
        "seed": 3,
        "deterministic_timing": True,
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    first = tmp_path / "first.csv"
    second = tmp_path / "second.csv"
    t0 = time.perf_counter()
    assert main(["bench", "--config", str(cfg), "--out", str(first)]) == 0
    assert main(["bench", "--config", str(cfg), "--out", str(second)]) == 0
    # separate interpreter processes with different string-hash seeds: output
    # must not depend on set/dict hash ordering either
    outs = []
    for hash_seed in ("1", "424242"):
        out = tmp_path / f"proc_{hash_seed}.csv"
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        proc = subprocess.run(
            [sys.executable, "-m", "cmcal.cli", "bench",
             "--config", str(cfg), "--out", str(out)],
            capture_output=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        outs.append(out.read_bytes())
    dt = time.perf_counter() - t0
    payload = first.read_bytes()
    ok = (
        len(payload) > 0
        and payload == second.read_bytes()
        and outs[0] == payload
        and outs[1] == payload
    )
    _report(12, "bench reruns with one config and seed are byte-identical", ok,
            f"{len(payload)} CSV bytes match in-process and across "
            f"hash-randomized processes in {dt:.1f}s")
    assert ok
