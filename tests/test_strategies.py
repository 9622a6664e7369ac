import numpy as np
import pytest

from cmcal.calibration import CalibrationError, Distribution
from cmcal.noise import (
    NoiseModel,
    NoiseSpec,
    correlated_channel,
    ideal_ghz,
    state_dependent_channel,
)
from cmcal.strategies import (
    MethodResult,
    ShotBudget,
    StrategyConfig,
    calibrate_patches,
    run_aim,
    run_bare,
    run_cmc,
    run_cmc_err,
    run_full,
    run_jigsaw,
    run_linear,
    run_method,
    run_sim,
)
from cmcal.topology import generate_architecture, greedy_patch_plan


def one_norm(a, b):
    keys = set(a.entries) | set(b.entries)
    return sum(abs(a.entries.get(k, 0.0) - b.entries.get(k, 0.0)) for k in keys)


def chain(n):
    return generate_architecture("linear", num_qubits=n)


def quiet_model(n):
    return NoiseModel(n, ())


# --- budgets and configs ----------------------------------------------------------


def test_shot_budget_split():
    b = ShotBudget(16000)
    cal, circ = b.split()
    assert cal == 8000 and circ == 8000
    assert cal + circ <= b.total
    with pytest.raises(ValueError):
        ShotBudget(0)
    with pytest.raises(ValueError):
        ShotBudget(100, calibration_fraction=1.0)


def test_strategy_config_validation():
    StrategyConfig("cmc", {"separation": 2})
    with pytest.raises(ValueError):
        StrategyConfig("tomography")
    with pytest.raises(ValueError):
        StrategyConfig("bare", {"separation": 2})
    with pytest.raises(ValueError):
        StrategyConfig("full", {"force": True})
    with pytest.raises(ValueError):
        StrategyConfig("cmc", {"cull_threshold": 0.0})


# --- noiseless fixed point ---------------------------------------------------------


def test_all_methods_recover_ideal_without_noise():
    n = 4
    ideal = ideal_ghz(n)
    noise = quiet_model(n)
    cmap = chain(n)
    results = [
        run_bare(ideal, noise, None),
        run_full(ideal, noise, None),
        run_linear(ideal, noise, None),
        run_sim(ideal, noise, None),
        run_aim(ideal, noise, None),
        run_jigsaw(ideal, noise, None, seed=3),
        run_cmc(ideal, noise, None, cmap),
        run_cmc_err(ideal, noise, None, cmap),
    ]
    for res in results:
        assert one_norm(res.mitigated, ideal) < 1e-9, res.method


# --- bare -------------------------------------------------------------------------


def test_bare_spends_everything_on_the_circuit():
    n = 3
    model = NoiseModel.from_spec(n, NoiseSpec.random(n, seed=0))
    res = run_bare(ideal_ghz(n), model, ShotBudget(2000), seed=1)
    assert res.shots_used == {"circuit": 2000}
    assert res.diagnostics["circuits"] == {"circuit": 1}
    assert res.mitigated.total() == pytest.approx(1.0)


# --- full -------------------------------------------------------------------------


def test_full_exact_recovery():
    n = 2
    model = NoiseModel(
        n,
        (
            state_dependent_channel(0.03, 0.07, qubit=0),
            state_dependent_channel(0.02, 0.09, qubit=1),
            correlated_channel((0, 1), "pairwise_flip", 0.15),
        ),
    )
    res = run_full(ideal_ghz(n), model, None)
    assert one_norm(res.mitigated, ideal_ghz(n)) < 1e-10


def test_full_counts_calibration_circuits():
    n = 3
    model = quiet_model(n)
    res = run_full(ideal_ghz(n), model, ShotBudget(4000), seed=2)
    assert res.diagnostics["circuits"]["calibration"] == 8
    assert res.shots_used["calibration"] == (2000 // 8) * 8
    assert res.total_shots <= 4000


def test_full_register_guard():
    n = 15
    with pytest.raises(ValueError):
        run_full(ideal_ghz(n), quiet_model(n), None)


def test_full_singular_matrix_raises():
    # a readout that forgets qubit 0 makes the dense matrix exactly singular
    model = NoiseModel(2, (state_dependent_channel(0.5, 0.5, qubit=0),))
    with pytest.raises(CalibrationError, match="singular"):
        run_full(ideal_ghz(2), model, None)
    # qubit 0 always reads 1, so sampled columns repeat exactly too
    stuck = NoiseModel(2, (state_dependent_channel(1.0, 0.0, qubit=0),))
    with pytest.raises(CalibrationError, match="shots per basis state: 250"):
        run_full(ideal_ghz(2), stuck, ShotBudget(2000), seed=0)


def test_full_budget_too_small():
    n = 4
    with pytest.raises(ValueError):
        run_full(ideal_ghz(n), quiet_model(n), ShotBudget(20), seed=0)


# --- linear -----------------------------------------------------------------------


def test_linear_matches_full_under_independent_noise():
    n = 3
    model = NoiseModel.from_spec(n, NoiseSpec.random(n, seed=4))
    lin = run_linear(ideal_ghz(n), model, None)
    ful = run_full(ideal_ghz(n), model, None)
    assert one_norm(lin.mitigated, ful.mitigated) < 1e-9
    assert one_norm(lin.mitigated, ideal_ghz(n)) < 1e-9


def test_linear_leaves_correlated_component():
    n = 2
    model = NoiseModel(n, (correlated_channel((0, 1), "pairwise_flip", 0.3),))
    ideal = Distribution({"00": 1.0}, n)
    res = run_linear(ideal, model, None)
    assert one_norm(res.mitigated, ideal) > 0.5
    assert res.diagnostics["circuits"]["calibration"] == 2


# --- sim --------------------------------------------------------------------------


def test_sim_equals_bare_under_pure_joint_flips():
    n = 4
    model = NoiseModel(
        n,
        (
            correlated_channel((0, 1), "pairwise_flip", 0.2),
            correlated_channel((2, 3), "pairwise_flip", 0.35),
        ),
    )
    ideal = Distribution({"0010": 1.0}, n)
    sim = run_sim(ideal, model, None)
    bare = run_bare(ideal, model, None)
    assert one_norm(sim.mitigated, bare.mitigated) < 1e-12


def test_sim_halves_state_dependent_bias():
    n = 4
    model = NoiseModel(
        n, tuple(state_dependent_channel(0.005, 0.065, qubit=q) for q in range(n))
    )
    ideal = Distribution({"1" * n: 1.0}, n)
    sim = run_sim(ideal, model, None)
    bare = run_bare(ideal, model, None)
    assert one_norm(sim.mitigated, ideal) < 0.6 * one_norm(bare.mitigated, ideal)


def test_sim_masks_odd_register():
    res = run_sim(ideal_ghz(5), quiet_model(5), None)
    assert res.diagnostics["masks"] == ["00000", "11111", "01011", "10100"]


# --- aim --------------------------------------------------------------------------


def test_aim_mask_windows():
    res = run_aim(ideal_ghz(8), quiet_model(8), None)
    assert res.diagnostics["masks"] == ["11110000", "00111100", "00001111"]
    res4 = run_aim(ideal_ghz(4), quiet_model(4), None)
    assert res4.diagnostics["masks"] == ["1111"]


def test_aim_all_masks_degenerates_to_uniform_average():
    n = 6
    model = NoiseModel.from_spec(n, NoiseSpec.random(n, seed=6))
    ideal = ideal_ghz(n)
    res = run_aim(ideal, model, None, top_k=2)
    masks = res.diagnostics["masks"]
    assert len(masks) == 2 and res.diagnostics["selected"] == masks
    parts = []
    for mask in masks:
        flipped = Distribution(
            {format(int(k, 2) ^ int(mask, 2), f"0{n}b"): v
             for k, v in ideal.entries.items()},
            n,
        )
        observed = model.corrupted(flipped)
        parts.append(
            Distribution(
                {format(int(k, 2) ^ int(mask, 2), f"0{n}b"): v
                 for k, v in observed.entries.items()},
                n,
            )
        )
    oracle = {}
    for part in parts:
        for k, v in part.entries.items():
            oracle[k] = oracle.get(k, 0.0) + v / len(parts)
    assert one_norm(res.mitigated, Distribution(oracle, n)) < 1e-12


def test_aim_budget_phases():
    n = 6
    model = quiet_model(n)
    res = run_aim(ideal_ghz(n), model, ShotBudget(4000), seed=1)
    m = len(res.diagnostics["masks"])
    assert res.diagnostics["circuits"] == {"phase1": m, "phase2": 1}
    assert res.shots_used["phase1"] == (2000 // m) * m
    assert res.total_shots <= 4000
    with pytest.raises(ValueError):
        run_aim(ideal_ghz(n), model, ShotBudget(4000), r1=2000, r2=2000)
    with pytest.raises(ValueError):
        run_aim(ideal_ghz(n), model, None, top_k=9)
    # exact mode ignores per-phase shot counts: no sampling, a zero ledger
    exact = run_aim(ideal_ghz(n), model, None)
    asked = run_aim(ideal_ghz(n), model, None, r1=50, r2=50)
    assert asked.shots_used == {"phase1": 0, "phase2": 0}
    assert asked.mitigated == exact.mitigated


# --- jigsaw -----------------------------------------------------------------------


def test_jigsaw_no_op_when_subtables_match_marginals():
    n = 4
    model = NoiseModel.from_spec(n, NoiseSpec.random(n, seed=7))
    jig = run_jigsaw(ideal_ghz(n), model, None, seed=5)
    bare = run_bare(ideal_ghz(n), model, None)
    assert one_norm(jig.mitigated, bare.mitigated) < 1e-12


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


def test_jigsaw_overreports_with_unsmoothed_singleton_subtable():
    n = 4
    model = NoiseModel(
        n,
        (
            correlated_channel((1, 2), "pairwise_flip", 0.6),
            state_dependent_channel(0.02, 0.0, qubit=3),
        ),
    )
    ideal = Distribution({"0000": 1.0}, n)
    seed = _seed_for_patch(n, 1, (0, 1))
    bare = run_bare(ideal, model, None)
    raw = run_jigsaw(ideal, model, None, patch_count=1, epsilon=0.0, seed=seed)
    assert raw.diagnostics["patches"] == [(0, 1)]
    # the sub-measurement of (0, 1) sees no error at all, so the update culls
    # every state outside its single observed pattern and inflates the rest
    promoted = raw.mitigated.entries["0001"]
    assert promoted > 2.0 * bare.mitigated.entries["0001"]
    assert not raw.diagnostics["skipped_subtables"]


def test_jigsaw_smoothing_skips_degenerate_subtable():
    n = 4
    model = NoiseModel(
        n,
        (
            correlated_channel((1, 2), "pairwise_flip", 0.6),
            state_dependent_channel(0.02, 0.0, qubit=3),
        ),
    )
    ideal = Distribution({"0000": 1.0}, n)
    seed = _seed_for_patch(n, 1, (0, 1))
    bare = run_bare(ideal, model, None)
    smoothed = run_jigsaw(ideal, model, None, patch_count=1, epsilon=1e-6, seed=seed)
    assert smoothed.diagnostics["skipped_subtables"] == [(0, 1)]
    assert smoothed.mitigated.entries["0001"] == pytest.approx(
        bare.mitigated.entries["0001"], abs=1e-12
    )


def test_jigsaw_budget_split():
    n = 6
    model = NoiseModel.from_spec(n, NoiseSpec.random(n, seed=9))
    res = run_jigsaw(ideal_ghz(n), model, ShotBudget(4000), seed=2)
    per = 4000 // 4
    assert res.shots_used == {"global": per, "patches": per * 3}
    assert res.diagnostics["circuits"] == {"global": 1, "patches": 3}
    drawn = res.diagnostics["patches"]
    assert len({q for p in drawn for q in p}) == 6  # disjoint pairs
    with pytest.raises(ValueError):
        run_jigsaw(ideal_ghz(n), model, None, patch_count=4)


# --- cmc --------------------------------------------------------------------------


def test_cmc_exact_recovery_for_matching_aligned_noise():
    n = 4
    model = NoiseModel(
        n,
        tuple(state_dependent_channel(0.02, 0.08, qubit=q) for q in range(n))
        + (
            correlated_channel((0, 1), "pairwise_flip", 0.2),
            correlated_channel((2, 3), "pairwise_flip", 0.3),
        ),
    )
    res = run_cmc(ideal_ghz(n), model, None, chain(n))
    assert one_norm(res.mitigated, ideal_ghz(n)) < 1e-6


def test_cmc_circuit_counting_matches_plan():
    n = 5
    cmap = chain(n)
    plan = greedy_patch_plan(cmap, 1)
    model = NoiseModel.from_spec(n, NoiseSpec.random(n, seed=3))
    res = run_cmc(ideal_ghz(n), model, ShotBudget(16000), cmap, seed=1)
    assert res.diagnostics["groups"] == plan.num_groups
    assert res.diagnostics["circuits"]["calibration"] == 4 * plan.num_groups
    r = 8000 // (4 * plan.num_groups)
    assert res.shots_used["calibration"] == r * 4 * plan.num_groups
    assert res.total_shots <= 16000


def test_calibrate_patches_past_the_index_bound():
    # calibration only corrupts each patch's channel closure, so a register
    # wider than the 64-qubit basis index still calibrates
    n = 70
    model = NoiseModel.from_spec(n, NoiseSpec.random(n, seed=3))
    channels = {ch.support: ch.entries for ch in model.channels}
    plan = greedy_patch_plan(chain(n), 1)
    exact, singles = calibrate_patches(model, plan)
    assert [m.support for m in exact] == list(plan.patches)
    assert sorted(singles) == list(range(n))
    for mat in exact:
        a, b = mat.support
        assert np.allclose(mat.entries, np.kron(channels[(a,)], channels[(b,)]), atol=1e-12)
    sampled, _ = calibrate_patches(model, plan, 200, seed=1)
    assert [m.support for m in sampled] == list(plan.patches)
    assert all(np.allclose(m.entries.sum(axis=0), 1.0) for m in sampled)


def test_cmc_improves_on_bare_with_sampling():
    n = 5
    model = NoiseModel.from_spec(n, NoiseSpec.random(n, seed=12))
    ideal = ideal_ghz(n)
    budget = ShotBudget(64000)
    bare = run_bare(ideal, model, budget, seed=0)
    cmc = run_cmc(ideal, model, budget, chain(n), seed=0)
    assert one_norm(cmc.mitigated, ideal) < one_norm(bare.mitigated, ideal)


def test_cmc_budget_too_small():
    n = 4
    with pytest.raises(ValueError):
        run_cmc(ideal_ghz(n), quiet_model(n), ShotBudget(10), chain(n))


# --- cmc_err ----------------------------------------------------------------------


def test_cmc_err_finds_aligned_noisy_edges():
    n = 4
    model = NoiseModel(
        n,
        tuple(state_dependent_channel(0.03, 0.06, qubit=q) for q in range(n))
        + (
            correlated_channel((0, 1), "pairwise_flip", 0.2),
            correlated_channel((2, 3), "pairwise_flip", 0.3),
        ),
    )
    res = run_cmc_err(ideal_ghz(n), model, None, chain(n))
    assert {(0, 1), (2, 3)} <= set(res.diagnostics["err_edges"])
    assert one_norm(res.mitigated, ideal_ghz(n)) < 1e-6


def test_cmc_err_catches_off_map_correlations():
    n = 4
    # correlated link between qubits that are not coupling-map neighbours
    model = NoiseModel(n, (correlated_channel((0, 2), "pairwise_flip", 0.4),))
    res = run_cmc_err(ideal_ghz(n), model, None, chain(n), locality=2)
    assert (0, 2) in res.diagnostics["err_edges"]
    assert one_norm(res.mitigated, ideal_ghz(n)) < 1e-6
    plain = run_cmc(ideal_ghz(n), model, None, chain(n))
    assert one_norm(plain.mitigated, ideal_ghz(n)) > 0.01


def test_cmc_err_caps_patch_count_on_dense_maps():
    n = 16
    cmap = generate_architecture("fully_connected", num_qubits=n)
    model = NoiseModel.from_spec(n, NoiseSpec.random(n, seed=5))
    res = run_cmc_err(ideal_ghz(n), model, None, cmap, locality=1)
    assert len(res.diagnostics["err_edges"]) <= n
    assert res.diagnostics["circuits"]["calibration"] <= 4 * n


def test_cmc_err_budget_ledger():
    n = 4
    model = NoiseModel.from_spec(n, NoiseSpec.random(n, seed=8))
    res = run_cmc_err(ideal_ghz(n), model, ShotBudget(120000), chain(n), seed=4)
    assert res.total_shots <= 120000
    assert set(res.shots_used) == {"prepass", "calibration", "circuit"}
    assert res.shots_used["prepass"] > 0


# --- dispatcher ---------------------------------------------------------------------


def test_run_method_dispatch():
    n = 4
    model = NoiseModel.from_spec(n, NoiseSpec.random(n, seed=2))
    ideal = ideal_ghz(n)
    cmap = chain(n)
    budget = ShotBudget(32000)
    for method in ("bare", "full", "linear", "sim", "aim", "jigsaw", "cmc", "cmc_err"):
        res = run_method(StrategyConfig(method), ideal, model, budget, cmap=cmap, seed=7)
        assert isinstance(res, MethodResult)
        assert res.method == method
        assert res.total_shots <= budget.total
        assert res.mitigated.total() == pytest.approx(1.0)


def test_run_method_requires_map_for_patched_methods():
    n = 3
    model = quiet_model(n)
    with pytest.raises(ValueError):
        run_method(StrategyConfig("cmc"), ideal_ghz(n), model, None)


def test_run_method_jigsaw_seed_option():
    n = 4
    model = NoiseModel.from_spec(n, NoiseSpec.random(n, seed=1))
    a = run_method(StrategyConfig("jigsaw", {"seed": 9}), ideal_ghz(n), model, None)
    b = run_jigsaw(ideal_ghz(n), model, None, seed=9)
    assert a.diagnostics["patches"] == b.diagnostics["patches"]
