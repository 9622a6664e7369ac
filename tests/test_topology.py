import itertools
import math
import random
from collections import deque

import numpy as np
import pytest

from cmcal.noise import ghz_cnot_schedule
from cmcal.topology import (
    CorrelationWeights,
    CouplingMap,
    ErrMap,
    PatchPlan,
    _ball,
    candidate_pairs,
    correlation_weights,
    err_map,
    generate_architecture,
    graph_distance,
    greedy_patch_plan,
)


# weights measured on a 7-qubit device with a T-shaped coupling map; the
# expected selection below was worked out by hand from the greedy rule
SEVEN_QUBIT_WEIGHTS = {
    (0, 1): 0.63, (0, 2): 1.377, (0, 3): 0.726, (0, 5): 0.435,
    (1, 2): 0.618, (1, 3): 0.864, (1, 4): 0.495, (1, 5): 0.543,
    (1, 6): 0.54, (2, 3): 0.822, (2, 5): 0.462, (3, 4): 0.873,
    (3, 5): 1.404, (3, 6): 0.93, (4, 5): 0.453, (4, 6): 1.401,
    (5, 6): 0.543,
}


# --- CouplingMap --------------------------------------------------------------


def test_coupling_map_canonicalizes_edges():
    cmap = CouplingMap(4, [(2, 1), (0, 3)])
    assert cmap.edges == ((0, 3), (1, 2))
    assert cmap.neighbors(1) == (2,)
    assert cmap.neighbors(3) == (0,)


def test_coupling_map_rejects_bad_edges():
    with pytest.raises(ValueError):
        CouplingMap(3, [(0, 0)])
    with pytest.raises(ValueError):
        CouplingMap(3, [(0, 3)])
    with pytest.raises(ValueError):
        CouplingMap(3, [(0, 1), (1, 0)])
    with pytest.raises(ValueError):
        CouplingMap(0, [])


def test_coupling_map_json_roundtrip():
    cmap = generate_architecture("grid", rows=3, cols=3)
    again = CouplingMap.from_json(cmap.to_json())
    assert again == cmap


# --- generators ---------------------------------------------------------------


def test_linear_edge_count():
    cmap = generate_architecture("linear", num_qubits=7)
    assert cmap.num_edges == 6
    assert cmap.edges == tuple((i, i + 1) for i in range(6))


def test_fully_connected_edge_count():
    cmap = generate_architecture("fully_connected", num_qubits=5)
    assert cmap.num_edges == 10


def test_grid_edge_counts_match_closed_form():
    for rows, cols in [(1, 1), (1, 5), (4, 5), (3, 3), (2, 7)]:
        cmap = generate_architecture("grid", rows=rows, cols=cols)
        assert cmap.num_qubits == rows * cols
        assert cmap.num_edges == 2 * rows * cols - rows - cols


def test_local_grid_is_frozen_20_qubit_layout():
    cmap = generate_architecture("local_grid")
    assert cmap.num_qubits == 20
    # independent frozen copy of the published layout
    assert set(cmap.edges) == {
        (0, 1), (0, 5), (1, 2), (1, 6), (1, 7), (2, 6), (3, 8), (4, 8),
        (4, 9), (5, 6), (5, 10), (5, 11), (6, 7), (6, 10), (6, 11), (7, 8),
        (7, 12), (8, 9), (8, 12), (8, 13), (10, 11), (10, 15), (11, 12),
        (11, 16), (11, 17), (12, 13), (12, 16), (13, 14), (13, 18), (13, 19),
        (14, 18), (14, 19), (15, 16), (16, 17), (17, 18),
    }
    assert cmap.num_edges == 35
    assert generate_architecture("local_grid", rows=4, cols=5) == cmap
    assert _is_connected(cmap)


def test_local_grid_rejects_other_dims():
    with pytest.raises(ValueError):
        generate_architecture("local_grid", rows=3, cols=5)


def _is_connected(cmap):
    if cmap.num_qubits == 1:
        return True
    seen = {0}
    stack = [0]
    while stack:
        for v in cmap.neighbors(stack.pop()):
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == cmap.num_qubits


def test_heavy_hex_sizes_and_connectivity():
    ring = generate_architecture("heavy_hex", num_qubits=8)
    assert ring.num_edges == 8  # single cell is a ring
    assert all(len(ring.neighbors(q)) == 2 for q in range(8))
    for n in range(2, 20):
        cmap = generate_architecture("heavy_hex", num_qubits=n)
        assert cmap.num_qubits == n
        assert _is_connected(cmap)


def test_heavy_hex_truncation_prefix():
    small = generate_architecture("heavy_hex", num_qubits=4)
    assert small.edges == ((0, 1), (0, 3), (1, 2))


def test_octagonal_edge_counts():
    for rows, cols in [(1, 1), (1, 2), (2, 2), (2, 3)]:
        cmap = generate_architecture("octagonal", rows=rows, cols=cols)
        assert cmap.num_qubits == 8 * rows * cols
        assert cmap.num_edges == 12 * rows * cols - 2 * rows - 2 * cols
        assert _is_connected(cmap)
        assert max(len(cmap.neighbors(q)) for q in range(cmap.num_qubits)) <= 3


def test_generate_architecture_rejects_bad_input():
    with pytest.raises(ValueError):
        generate_architecture("moebius", num_qubits=5)
    with pytest.raises(ValueError):
        generate_architecture("grid", rows=0, cols=3)
    with pytest.raises(ValueError):
        generate_architecture("linear", num_qubits=4, rows=2)
    with pytest.raises(ValueError):
        generate_architecture("linear")


# --- distances ----------------------------------------------------------------


def test_graph_distance_on_path():
    cmap = generate_architecture("linear", num_qubits=5)
    assert graph_distance(cmap, 0, 4) == 4
    assert graph_distance(cmap, 3, 3) == 0
    assert graph_distance(cmap, 4, 1) == 3


def test_graph_distance_disconnected_is_inf():
    cmap = CouplingMap(4, [(0, 1), (2, 3)])
    assert graph_distance(cmap, 0, 3) == math.inf


def test_graph_distance_range_check():
    cmap = generate_architecture("linear", num_qubits=3)
    with pytest.raises(IndexError):
        graph_distance(cmap, 0, 3)


def test_candidate_pairs_locality():
    cmap = generate_architecture("linear", num_qubits=5)
    pairs = candidate_pairs(cmap, 2)
    assert pairs == ((0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (2, 4), (3, 4))


def _reference_bfs(cmap, source):
    """Distances from ``source`` and the BFS tree edges in visit order, by a
    queue over adjacency built from the edge list."""
    adjacency = {q: [] for q in range(cmap.num_qubits)}
    for a, b in cmap.edges:
        adjacency[a].append(b)
        adjacency[b].append(a)
    distance, tree, queue = {source: 0}, [], deque([source])
    while queue:
        u = queue.popleft()
        for v in sorted(adjacency[u]):
            if v not in distance:
                distance[v] = distance[u] + 1
                tree.append((u, v))
                queue.append(v)
    return distance, tree


def _maps_for_search():
    """Every generator kind, then seeded random maps, many disconnected."""
    yield from _family()
    yield generate_architecture("heavy_hex", num_qubits=12)
    yield generate_architecture("fully_connected", num_qubits=6)
    rng = random.Random(18)
    for _ in range(30):
        n = rng.randint(1, 9)
        p = rng.choice((0.15, 0.3, 0.6))
        yield CouplingMap(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < p])


def test_searches_match_a_reference_breadth_first_search():
    disconnected = 0
    for cmap in _maps_for_search():
        n = cmap.num_qubits
        for source in range(n):
            distance, tree = _reference_bfs(cmap, source)
            for target in range(n):
                assert graph_distance(cmap, source, target) == distance.get(target, math.inf)
            for radius in range(4):
                assert _ball(cmap, source, radius) == {q for q, d in distance.items() if d <= radius}
            if len(distance) == n:
                assert ghz_cnot_schedule(cmap, source) == tuple(tree)
            else:
                disconnected += 1
                with pytest.raises(ValueError, match="not connected"):
                    ghz_cnot_schedule(cmap, source)
        for locality in (1, 2, 3):
            expected = tuple(
                (i, j) for i in range(n) for j in range(i + 1, n)
                if _reference_bfs(cmap, i)[0].get(j, math.inf) <= locality
            )
            assert candidate_pairs(cmap, locality) == expected
    assert disconnected > 0


# --- greedy patch plan ---------------------------------------------------------


def test_single_edge_plan():
    plan = greedy_patch_plan(CouplingMap(2, [(0, 1)]), k=1)
    assert plan.groups == (((0, 1),),)
    assert plan.separation == 1


def _family():
    yield generate_architecture("linear", num_qubits=10)
    yield generate_architecture("grid", rows=3, cols=4)
    yield generate_architecture("local_grid")
    yield generate_architecture("heavy_hex", num_qubits=16)
    yield generate_architecture("octagonal", rows=1, cols=2)


def test_plan_covers_every_edge_exactly():
    for cmap in _family():
        for k in (0, 1, 2):
            plan = greedy_patch_plan(cmap, k)
            covered = set(plan.patches)
            assert covered == set(cmap.edges)
            assert len(plan.patches) == cmap.num_edges  # no duplicates


def test_plan_groups_respect_separation():
    for cmap in _family():
        for k in (0, 1, 2):
            plan = greedy_patch_plan(cmap, k)
            for group in plan.groups:
                for p1, p2 in itertools.combinations(group, 2):
                    for a in p1:
                        for b in p2:
                            assert graph_distance(cmap, a, b) > k


def test_plan_deterministic():
    cmap = generate_architecture("local_grid")
    assert greedy_patch_plan(cmap, 1) == greedy_patch_plan(cmap, 1)


def test_plan_group_count_monotone_in_k():
    for cmap in _family():
        counts = [greedy_patch_plan(cmap, k).num_groups for k in range(4)]
        assert counts == sorted(counts)


def test_plan_20_qubit_layout_budget():
    plan = greedy_patch_plan(generate_architecture("local_grid"), k=1)
    assert 4 * plan.num_groups <= 80


def test_plan_reduction_factor_on_large_sparse_maps():
    # device-like layouts with ~4 edges per qubit: batched patch calibration
    # needs far fewer circuit batches than calibrating edges one at a time
    for n, seed in [(100, 3), (100, 7), (110, 3), (110, 7)]:
        rng = np.random.default_rng(seed)
        edges = {(i, i + 1) for i in range(n - 1)}
        while len(edges) < 4 * n:
            i = int(rng.integers(n - 1))
            j = min(n - 1, i + int(rng.integers(2, 12)))
            if j > i:
                edges.add((i, j))
        cmap = CouplingMap(n, sorted(edges))
        plan = greedy_patch_plan(cmap, k=1)
        factor = cmap.num_edges / plan.num_groups
        assert 3.0 <= factor <= 10.0


# --- correlation weights --------------------------------------------------------


def test_weight_zero_for_exact_product():
    rng = np.random.default_rng(5)
    a = np.eye(2) * 0.9 + 0.1 * rng.dirichlet([1, 1], size=2).T
    a /= a.sum(axis=0)
    b = np.eye(2)
    cw = correlation_weights({0: a, 1: b}, {(0, 1): np.kron(a, b)})
    assert cw.weights[(0, 1)] == 0.0


def test_weight_of_half_swap_channel():
    swap = np.eye(4)
    swap[:, 1] = [0, 0.5, 0.5, 0]
    swap[:, 2] = [0, 0.5, 0.5, 0]
    cw = correlation_weights({3: np.eye(2), 5: np.eye(2)}, {(3, 5): swap})
    assert np.isclose(cw.weights[(3, 5)], 1.0)


def test_weight_of_joint_flip_channel():
    xx = np.zeros((4, 4))
    for v in range(4):
        xx[v ^ 3, v] = 1.0
    joint = 0.9 * np.eye(4) + 0.1 * xx
    cw = correlation_weights({0: np.eye(2), 1: np.eye(2)}, {(0, 1): joint})
    assert np.isclose(cw.weights[(0, 1)], 0.1 * np.sqrt(8.0))


def test_weights_validation():
    with pytest.raises(ValueError):
        correlation_weights({0: np.eye(2)}, {(0, 1): np.eye(4)})
    with pytest.raises(ValueError):
        correlation_weights({0: np.eye(2), 1: np.eye(4)}, {(0, 1): np.eye(4)})
    with pytest.raises(ValueError):
        CorrelationWeights({(1, 0): 0.5})
    with pytest.raises(ValueError):
        CorrelationWeights({(0, 1): -0.5})


def test_weights_json_roundtrip():
    cw = CorrelationWeights({(0, 1): 0.5, (2, 4): 1.25}, locality=2)
    again = CorrelationWeights.from_json(cw.to_json())
    assert again == cw


# --- err map --------------------------------------------------------------------


def test_err_map_single_pair():
    em = err_map(CorrelationWeights({(2, 5): 0.3}), max_edges=4)
    assert em.edges == ((2, 5),)


def test_err_map_seven_qubit_reference():
    em = err_map(CorrelationWeights(SEVEN_QUBIT_WEIGHTS))
    assert em.max_edges == 7
    assert set(em.edges) == {(0, 2), (1, 3), (2, 3), (3, 4), (3, 5), (3, 6), (4, 6)}
    # heaviest long-range correlations survive even though they are not
    # coupling-map edges on this device
    assert {(0, 2), (3, 5), (4, 6)} <= set(em.edges)


def test_err_map_skips_pairs_with_both_endpoints_known():
    weights = {(0, 1): 3.0, (2, 3): 2.5, (0, 3): 2.0, (1, 2): 1.5}
    em = err_map(CorrelationWeights(weights), max_edges=10)
    assert (1, 2) not in em.edges
    assert set(em.edges) == {(0, 1), (2, 3), (0, 3)}


def test_err_map_budget_and_default():
    em = err_map(CorrelationWeights(SEVEN_QUBIT_WEIGHTS), max_edges=3)
    assert len(em.edges) == 3
    assert set(em.edges) == {(3, 5), (4, 6), (0, 2)}
    # default budget is the number of distinct qubits seen in the weights
    assert err_map(CorrelationWeights(SEVEN_QUBIT_WEIGHTS)).max_edges == 7


def test_err_map_tie_break_lexicographic():
    weights = {(0, 3): 1.0, (0, 1): 1.0, (2, 3): 1.0}
    em1 = err_map(CorrelationWeights(weights), max_edges=2)
    em2 = err_map(CorrelationWeights(dict(reversed(list(weights.items())))), max_edges=2)
    assert em1 == em2
    assert em1.edges[0] == (0, 1)


def test_err_map_requires_weights():
    with pytest.raises(ValueError):
        err_map(CorrelationWeights({}), max_edges=1)


def test_err_map_json_roundtrip():
    em = err_map(CorrelationWeights(SEVEN_QUBIT_WEIGHTS))
    assert ErrMap.from_json(em.to_json()) == em


def test_patch_plan_json_roundtrip():
    plan = greedy_patch_plan(generate_architecture("grid", rows=3, cols=3), 1)
    assert PatchPlan.from_json(plan.to_json()) == plan
