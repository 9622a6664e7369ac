"""Device connectivity graphs and the planning layer built on them.

A :class:`CouplingMap` is an undirected graph over qubit indices.  On top of it
this module provides architecture generators for common device layouts,
BFS distance queries, greedy construction of distance-``k`` patch groups
(disjoint two-qubit calibration patches that can be measured in the same
circuit batch), correlation-weight maps derived from calibration data, and
selection of a bounded error coupling map from those weights.

Determinism: every operation with tie-breaking freedom resolves ties by
ascending qubit index / lexicographic edge order, so identical inputs always
produce identical plans.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "CouplingMap",
    "PatchPlan",
    "CorrelationWeights",
    "ErrMap",
    "generate_architecture",
    "graph_distance",
    "candidate_pairs",
    "group_patches",
    "greedy_patch_plan",
    "correlation_weights",
    "err_map",
]


def _canonical_edges(num_qubits, edges):
    seen = set()
    out = []
    for edge in edges:
        a, b = int(edge[0]), int(edge[1])
        if a == b:
            raise ValueError(f"self-loop on qubit {a}")
        if a > b:
            a, b = b, a
        if not (0 <= a < b < num_qubits):
            raise ValueError(f"edge ({a}, {b}) out of range for {num_qubits} qubits")
        if (a, b) in seen:
            raise ValueError(f"duplicate edge ({a}, {b})")
        seen.add((a, b))
        out.append((a, b))
    return tuple(sorted(out))


@dataclass(frozen=True)
class CouplingMap:
    """Undirected device connectivity graph.

    Edges are stored canonically: each pair ascending, the whole tuple sorted
    lexicographically. Input edges may arrive in any order/orientation.
    """

    num_qubits: int
    edges: tuple

    def __post_init__(self):
        if not isinstance(self.num_qubits, int) or self.num_qubits <= 0:
            raise ValueError("num_qubits must be a positive integer")
        object.__setattr__(self, "edges", _canonical_edges(self.num_qubits, self.edges))
        adj = [[] for _ in range(self.num_qubits)]
        for a, b in self.edges:
            adj[a].append(b)
            adj[b].append(a)
        object.__setattr__(self, "_adj", tuple(tuple(sorted(nb)) for nb in adj))

    def neighbors(self, qubit):
        """Adjacent qubits of ``qubit`` in ascending order."""
        if not (0 <= qubit < self.num_qubits):
            raise IndexError(f"qubit {qubit} out of range")
        return self._adj[qubit]

    @property
    def num_edges(self):
        return len(self.edges)

    def to_json(self):
        return json.dumps(
            {"num_qubits": self.num_qubits, "edges": [list(e) for e in self.edges]}
        )

    @classmethod
    def from_json(cls, text):
        doc = json.loads(text)
        try:
            return cls(int(doc["num_qubits"]), [tuple(e) for e in doc["edges"]])
        except KeyError as exc:
            raise ValueError(f"coupling map is missing field {exc}") from None


@dataclass(frozen=True)
class PatchPlan:
    """Groups of mutually distant patches calibrated batch-by-batch.

    ``groups`` is a tuple of groups; each group is a tuple of patches; each
    patch is an ascending tuple of qubit indices (two qubits for edge
    patches).  All patches inside one group are pairwise farther than
    ``separation`` in graph distance, so one batch of basis-state circuits
    calibrates all of them at once.
    """

    groups: tuple
    separation: int

    def __post_init__(self):
        if self.separation < 0:
            raise ValueError("separation must be nonnegative")
        groups = tuple(
            tuple(tuple(int(q) for q in patch) for patch in group)
            for group in self.groups
        )
        for group in groups:
            for patch in group:
                if list(patch) != sorted(set(patch)):
                    raise ValueError(f"patch {patch} must be strictly ascending")
        object.__setattr__(self, "groups", groups)

    @property
    def num_groups(self):
        return len(self.groups)

    @property
    def patches(self):
        """All patches flattened in group order."""
        return tuple(p for group in self.groups for p in group)

    def to_json(self):
        return json.dumps(
            {
                "separation": self.separation,
                "groups": [[list(p) for p in g] for g in self.groups],
            }
        )

    @classmethod
    def from_json(cls, text):
        doc = json.loads(text)
        return cls(
            tuple(tuple(tuple(p) for p in g) for g in doc["groups"]),
            int(doc["separation"]),
        )


@dataclass(frozen=True)
class CorrelationWeights:
    """Pairwise correlation strengths between qubits.

    ``weights`` maps ascending qubit pairs to nonnegative reals; ``locality``
    records the distance bound used when enumerating candidate pairs (None
    when the caller supplied an explicit pair list).
    """

    weights: dict
    locality: int | None = None

    def __post_init__(self):
        clean = {}
        for pair, value in self.weights.items():
            i, j = int(pair[0]), int(pair[1])
            if not (0 <= i < j):
                raise ValueError(f"pair {pair} must be ascending and nonnegative")
            w = float(value)
            if not (w >= 0.0):
                raise ValueError(f"weight for {pair} must be nonnegative")
            clean[(i, j)] = w
        object.__setattr__(self, "weights", clean)

    def to_json(self):
        items = [[i, j, w] for (i, j), w in sorted(self.weights.items())]
        return json.dumps({"locality": self.locality, "weights": items})

    @classmethod
    def from_json(cls, text):
        doc = json.loads(text)
        weights = {(int(i), int(j)): float(w) for i, j, w in doc["weights"]}
        locality = doc.get("locality")
        return cls(weights, None if locality is None else int(locality))


@dataclass(frozen=True)
class ErrMap:
    """Selected set of strongly correlated qubit pairs, at most ``max_edges``."""

    edges: tuple
    max_edges: int

    def __post_init__(self):
        if self.max_edges <= 0:
            raise ValueError("max_edges must be positive")
        edges = tuple((int(a), int(b)) for a, b in self.edges)
        for a, b in edges:
            if not (0 <= a < b):
                raise ValueError(f"edge ({a}, {b}) must be ascending")
        if len(set(edges)) != len(edges):
            raise ValueError("duplicate edges")
        if len(edges) > self.max_edges:
            raise ValueError("edge count exceeds max_edges")
        object.__setattr__(self, "edges", edges)

    def to_json(self):
        return json.dumps(
            {"max_edges": self.max_edges, "edges": [list(e) for e in self.edges]}
        )

    @classmethod
    def from_json(cls, text):
        doc = json.loads(text)
        return cls(tuple(tuple(e) for e in doc["edges"]), int(doc["max_edges"]))


# --- architecture generators --------------------------------------------------


# 20-qubit 4x5 device layout: nearest-neighbour grid links plus the device's
# irregular diagonal links; 35 edges total.
_LOCAL_GRID_4X5 = (
    (0, 1), (0, 5), (1, 2), (1, 6), (1, 7), (2, 6), (3, 8), (4, 8), (4, 9),
    (5, 6), (5, 10), (5, 11), (6, 7), (6, 10), (6, 11), (7, 8), (7, 12),
    (8, 9), (8, 12), (8, 13), (10, 11), (10, 15), (11, 12), (11, 16),
    (11, 17), (12, 13), (12, 16), (13, 14), (13, 18), (13, 19), (14, 18),
    (14, 19), (15, 16), (16, 17), (17, 18),
)


def _int_param(params, name, minimum=1):
    if name not in params:
        raise ValueError(f"missing parameter {name!r}")
    value = int(params.pop(name))
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return value


def _linear(n):
    return CouplingMap(n, tuple((i, i + 1) for i in range(n - 1)))


def _grid(rows, cols):
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    return CouplingMap(rows * cols, edges)


def _heavy_hex(num_qubits):
    # Ribbon of hexagonal cells: a top path and a bottom path of 2h+1 qubits
    # joined by h+1 bridge qubits on the even columns.  Qubits are numbered
    # column by column (top, bridge, bottom) so that truncating the ribbon to
    # any prefix keeps the graph connected.
    cells = max(1, math.ceil((num_qubits - 3) / 5))
    width = 2 * cells + 1
    index = {}
    for col in range(width):
        for node in (("t", col), ("m", col // 2) if col % 2 == 0 else None, ("b", col)):
            if node is not None and len(index) < num_qubits:
                index[node] = len(index)
    edges = []
    for col in range(width - 1):
        for row in ("t", "b"):
            a, b = (row, col), (row, col + 1)
            if a in index and b in index:
                edges.append((index[a], index[b]))
    for j in range(cells + 1):
        for a, b in ((("t", 2 * j), ("m", j)), (("m", j), ("b", 2 * j))):
            if a in index and b in index:
                edges.append((index[a], index[b]))
    return CouplingMap(num_qubits, edges)


def _octagonal(rows, cols):
    # Grid of 8-qubit rings; neighbouring rings share two joining edges.
    # Ring vertices are numbered clockwise: positions 0,1 face north, 2,3
    # east, 4,5 south, 6,7 west.
    edges = []

    def base(r, c):
        return 8 * (r * cols + c)

    for r in range(rows):
        for c in range(cols):
            b = base(r, c)
            edges.extend((b + k, b + (k + 1) % 8) for k in range(8))
            if c + 1 < cols:
                right = base(r, c + 1)
                edges.extend(((b + 2, right + 7), (b + 3, right + 6)))
            if r + 1 < rows:
                down = base(r + 1, c)
                edges.extend(((b + 4, down + 1), (b + 5, down + 0)))
    return CouplingMap(8 * rows * cols, edges)


def generate_architecture(kind, **params):
    """Build a named device layout.

    Kinds and their parameters:

    - ``linear``: ``num_qubits`` — path graph, n-1 edges.
    - ``grid``: ``rows``, ``cols`` — rectangular lattice, 2rc - r - c edges.
    - ``local_grid``: fixed 4x5 20-qubit layout with diagonal links (35
      edges); ``rows``/``cols`` may be passed but must equal 4 and 5.
    - ``heavy_hex``: ``num_qubits`` — ribbon of hexagonal cells truncated to
      the requested size (connectivity is preserved under truncation).
    - ``octagonal``: ``rows``, ``cols`` — grid of 8-qubit rings joined by two
      edges per neighbouring ring pair.
    - ``fully_connected``: ``num_qubits`` — complete graph.
    """
    params = dict(params)
    if kind == "linear":
        cmap = _linear(_int_param(params, "num_qubits"))
    elif kind == "grid":
        cmap = _grid(_int_param(params, "rows"), _int_param(params, "cols"))
    elif kind == "local_grid":
        rows = _int_param(params, "rows") if "rows" in params else 4
        cols = _int_param(params, "cols") if "cols" in params else 5
        if (rows, cols) != (4, 5):
            raise ValueError("local_grid is only defined for rows=4, cols=5")
        cmap = CouplingMap(20, _LOCAL_GRID_4X5)
    elif kind == "heavy_hex":
        cmap = _heavy_hex(_int_param(params, "num_qubits"))
    elif kind == "octagonal":
        cmap = _octagonal(_int_param(params, "rows"), _int_param(params, "cols"))
    elif kind == "fully_connected":
        n = _int_param(params, "num_qubits")
        cmap = CouplingMap(n, tuple((i, j) for i in range(n) for j in range(i + 1, n)))
    else:
        raise ValueError(f"unknown architecture kind: {kind!r}")
    if params:
        raise ValueError(f"unexpected parameters for {kind}: {sorted(params)}")
    return cmap


# --- distance queries ---------------------------------------------------------


def _bfs(cmap, source):
    """Breadth-first visit from ``source``, neighbours in ascending order:
    ``(parent, qubit, distance)`` for every other qubit it reaches, in visit
    order."""
    distance = {source: 0}
    queue = [source]
    for u in queue:
        for v in cmap.neighbors(u):
            if v not in distance:
                distance[v] = distance[u] + 1
                queue.append(v)
                yield u, v, distance[v]


def graph_distance(cmap, i, j):
    """Shortest-path edge count between two qubits; ``math.inf`` if disconnected."""
    for q in (i, j):
        if not (0 <= q < cmap.num_qubits):
            raise IndexError(f"qubit {q} out of range")
    if i == j:
        return 0
    return next((d for _, v, d in _bfs(cmap, i) if v == j), math.inf)


def _ball(cmap, source, radius):
    """All qubits within graph distance ``radius`` of ``source`` (inclusive)."""
    ball = {source}
    for _, v, d in _bfs(cmap, source):
        if d > radius:
            break
        ball.add(v)
    return ball


def candidate_pairs(cmap, locality):
    """Ascending qubit pairs with graph distance <= ``locality``."""
    if locality < 1:
        raise ValueError("locality must be >= 1")
    pairs = []
    for i in range(cmap.num_qubits):
        for j in sorted(_ball(cmap, i, locality)):
            if j > i:
                pairs.append((i, j))
    return tuple(pairs)


# --- patch planning -----------------------------------------------------------


def group_patches(cmap, patches, k):
    """Greedy grouping of an explicit patch list into distance->``k`` batches.

    Patches are consumed in lexicographic order.  Each pass seeds a new group
    with the smallest remaining patch, then adds every later remaining patch
    all of whose qubits are farther than ``k`` (in ``cmap``) from all qubits
    already in the group; passes repeat until every patch is grouped.  The
    patches need not be edges of ``cmap``.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    remaining = sorted(tuple(int(q) for q in p) for p in patches)
    if not remaining:
        raise ValueError("no patches to group")
    if len(set(remaining)) != len(remaining):
        raise ValueError("duplicate patches")
    groups = []
    while remaining:
        group = []
        blocked = set()
        rest = []
        for patch in remaining:
            if any(q in blocked for q in patch):
                rest.append(patch)
                continue
            group.append(patch)
            for q in patch:
                blocked |= _ball(cmap, q, k)
        groups.append(tuple(group))
        remaining = rest
    return PatchPlan(tuple(groups), k)


def greedy_patch_plan(cmap, k):
    """Partition the edge set into groups of pairwise distance->``k`` patches.

    Edges are consumed in lexicographic order.  Each pass seeds a new group
    with the smallest uncovered edge, then adds every later uncovered edge
    whose endpoints are farther than ``k`` from all qubits already in the
    group; passes repeat until every edge is covered.
    """
    if not cmap.edges:
        raise ValueError("coupling map has no edges to cover")
    return group_patches(cmap, cmap.edges, k)


# --- correlation weights and error maps ----------------------------------------


def _entries_of(obj):
    return np.asarray(getattr(obj, "entries", obj), dtype=float)


def correlation_weights(singles, pairs, locality=None):
    """Frobenius distance between each pair matrix and its product surrogate.

    ``w_ij = || C_i (x) C_j  -  C_ij ||_F`` over every pair in ``pairs``;
    ``singles`` must hold a matrix for both endpoints of every pair.
    """
    weights = {}
    for pair in sorted(pairs):
        i, j = int(pair[0]), int(pair[1])
        if not (0 <= i < j):
            raise ValueError(f"pair {pair} must be ascending")
        if i not in singles or j not in singles:
            raise ValueError(f"missing single-qubit matrix for pair ({i}, {j})")
        joint = _entries_of(pairs[pair])
        left, right = _entries_of(singles[i]), _entries_of(singles[j])
        product = np.kron(left, right)
        if product.shape != joint.shape:
            raise ValueError(f"dimension mismatch for pair ({i}, {j})")
        weights[(i, j)] = float(np.linalg.norm(product - joint))
    return CorrelationWeights(weights, locality)


def err_map(weights, max_edges=None):
    """Select up to ``max_edges`` heaviest pairs as the error coupling map.

    Pairs are visited in descending weight (lexicographic tie-break) with a
    running membership set M.  A pair with both endpoints in M is skipped;
    with one endpoint in M the pair is taken and the other endpoint joins M;
    with neither endpoint in M the pair is taken and only the endpoint whose
    next remaining incident weight is lighter joins M — the heavier endpoint
    stays eligible so its strong correlations can still be picked up.
    """
    if not weights.weights:
        raise ValueError("weights must be non-empty")
    order = sorted(weights.weights.items(), key=lambda kv: (-kv[1], kv[0]))
    if max_edges is None:
        max_edges = len({q for pair, _ in order for q in pair})

    def next_weight(q, start):
        for pair, w in order[start:]:
            if q in pair:
                return w
        return -math.inf

    members = set()
    chosen = []
    for idx, (pair, _) in enumerate(order):
        if len(chosen) >= max_edges:
            break
        i, j = pair
        if i in members and j in members:
            continue
        chosen.append(pair)
        if i in members:
            members.add(j)
        elif j in members:
            members.add(i)
        else:
            wi, wj = next_weight(i, idx + 1), next_weight(j, idx + 1)
            members.add(i if wi <= wj else j)
    return ErrMap(tuple(chosen), max_edges)
