"""The four workloads: two simulated sweeps and two calibrate-once stores.

Each workload builds its inputs from the seed, runs whole rounds of the
same operations, times every operation from outside the program, and checks
the program's outputs against the benchmark's own oracles
(``reference.py``) or against properties mitigation must have.
"""

from __future__ import annotations

import os
import statistics
import traceback
from time import perf_counter

import numpy as np

import cmcal
import cmcal.bench
import reference

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")

SHOTS = 16000
RATE_LOW, RATE_HIGH = 0.02, 0.08
DEVICE_SEED = 2022
EDGE_FLIP = 0.05  # sweep-edgeflip, as criterion 06's edge-flip sweep
STORE_EDGE_FLIP = 0.02
CIRCUIT_SHOTS = SHOTS // 2  # the circuit half of a 16000-shot budget
# Binomial bound on the bare table's marginals, in standard deviations; with
# a few hundred comparisons per run, correct output crosses it with a
# probability near 1e-6.
SIGMAS = 6.0
DIST_TOL = 1e-9
PROBE_TOL = 1e-6


class CheckError(AssertionError):
    """An output of the program failed one of the benchmark's checks."""


def _check(ok, message):
    if not ok:
        raise CheckError(message)


def device_rates(n):
    """Per-qubit ``(p01, p10)`` of the simulated device with ``n`` qubits.

    The device is part of the workload, like its register: the rates come
    from a fixed stream, and ``--seed`` varies the shots drawn on it.  Rates
    drawn per seed moved the cmc one-norm by 11% (relative deviation, grid
    4x4) against 6% from the shots alone.
    """
    return np.random.default_rng([DEVICE_SEED, n]).uniform(RATE_LOW, RATE_HIGH, size=(n, 2))


def _check_distribution(dist, n, label):
    values = np.fromiter(dist.entries.values(), dtype=float, count=len(dist.entries))
    _check(dist.n == n, f"{label}: register {dist.n} != {n}")
    _check(values.size > 0 and values.min() >= 0.0, f"{label}: negative or empty output")
    _check(abs(values.sum() - 1.0) <= DIST_TOL, f"{label}: mass {values.sum()!r} != 1")


def _key_bits(entries, n):
    keys = np.frombuffer("".join(entries).encode(), dtype=np.uint8).reshape(-1, n) == ord("1")
    weights = np.fromiter(entries.values(), dtype=float, count=len(entries))
    return keys, weights


def _widen(counts, measured, n):
    """Local counts on ``measured`` as register-wide keys, other bits 0."""
    if measured is None:
        return counts
    out = {}
    for key, count in counts.items():
        row = ["0"] * n
        for q, bit in zip(measured, key):
            row[q] = bit
        out["".join(row)] = count
    return out


def _narrow(entries, measured):
    """Register-wide entries projected onto ``measured``; mitigation must
    leave the unmeasured bits as they came in, all 0."""
    if measured is None:
        return entries
    out = {}
    for key, value in entries.items():
        local = "".join(key[q] for q in measured)
        _check(key.count("1") == local.count("1"), f"unmeasured bit set in {key}")
        out[local] = out.get(local, 0.0) + value
    return out


class Op:
    """Outcome of one timed operation."""

    __slots__ = ("seconds", "failed", "one_norm_cmc")

    def __init__(self, seconds, failed=False, one_norm_cmc=None):
        self.seconds = seconds
        self.failed = failed
        self.one_norm_cmc = one_norm_cmc


# ---------------------------------------------------------------------------
# sweeps: run_experiment cells


class Sweep:
    """One round is one ``run_experiment`` trial per register, every method.

    Noise is a ``{"kind": "fixed"}`` document built from the device rates,
    so the oracle knows the exact channel the program simulates.  Each round
    samples with fresh ``run_experiment`` seeds on the same device, so rounds
    cost about the same and the accuracy figures average over every round.
    """

    def __init__(self, seed, tracer, archs, methods, edge_flip):
        self.seed = seed
        self.tracer = tracer
        self.archs = archs
        self.methods = methods
        self.edge_flip = edge_flip
        self.norms = {m: [] for m in methods}

    def setup(self):
        self.devices = []
        for arch in self.archs:
            cmap = cmcal.generate_architecture(**arch)
            rates = device_rates(cmap.num_qubits)
            self.devices.append((arch, cmap.num_qubits, tuple(cmap.edges), rates))
        self.rng = np.random.default_rng([self.seed, 1])

    def inputs(self):
        cells = []
        for arch, n, edges, rates in self.devices:
            doc = {
                "kind": "fixed",
                "per_qubit": {str(q): [float(a), float(b)] for q, (a, b) in enumerate(rates)},
                "correlated": [
                    {"support": list(e), "kind": "pairwise_flip", "p": self.edge_flip}
                    for e in edges
                ] if self.edge_flip else [],
            }
            config = cmcal.ExperimentConfig(
                architecture=arch,
                noise=doc,
                methods=tuple({"method": m} for m in self.methods),
                shots=SHOTS,
                trials=1,
                seed=int(self.rng.integers(2**31)),
            )
            cells.append((config, n, edges, rates))
        return cells

    def run(self, cells, first_op):
        """Run the round; return (ops, captured results) with cell latencies
        measured from one ``run_method`` call's start to the next one's."""
        starts, results = [], []
        inner = cmcal.bench.run_method
        tracer = self.tracer

        def timed(*args, **kwargs):
            if tracer is not None:
                tracer.op = first_op + len(starts)
            starts.append(perf_counter())
            result = inner(*args, **kwargs)
            results.append(result)
            return result

        cmcal.bench.run_method = timed
        ops, captured = [], []
        try:
            for config, n, edges, rates in cells:
                if tracer is not None:
                    tracer.op = first_op + len(starts)
                begin = len(starts)
                try:
                    records = cmcal.run_experiment(config)
                except Exception:  # an escaped error fails the trial's cells
                    traceback.print_exc()
                    records = []
                end = perf_counter()
                cell_starts = starts[begin:] + [end]
                for i, record in enumerate(records):
                    ops.append(Op(cell_starts[i + 1] - cell_starts[i], record.error is not None))
                ops.extend(Op(0.0, True) for _ in range(len(self.methods) - len(records)))
                captured.append((n, edges, rates, records, results[begin:]))
        finally:
            cmcal.bench.run_method = inner
            if tracer is not None:
                tracer.op = None
        return ops, captured

    def check(self, ops, captured, cells):
        k = 0
        for n, edges, rates, records, results in captured:
            for record in records:
                op = ops[k]
                k += 1
                if record.error is not None:
                    continue
                result = next(r for r in results if r.method == record.method)
                label = f"{record.method} n={n}"
                _check_distribution(result.mitigated, n, label)
                spent = sum(result.shots_used.values())
                _check(spent <= SHOTS, f"{label}: {spent} shots > {SHOTS}")
                if record.method == "bare":
                    _check(spent == SHOTS, f"bare n={n}: spent {spent} of {SHOTS}")
                    self._check_bare(result.mitigated, n, edges, rates)
                norm = reference.ghz_one_norm(result.mitigated.entries, n)
                _check(abs(norm - record.one_norm) <= DIST_TOL,
                       f"{label}: one_norm {record.one_norm!r} != {norm!r}")
                self.norms[record.method].append(norm)
                if record.method == "cmc":
                    op.one_norm_cmc = norm

    def _check_bare(self, dist, n, edges, rates):
        """Per-qubit and per-edge marginals of the bare table against the
        exact corrupted GHZ distribution, within a binomial bound."""
        keys, weights = _key_bits(dist.entries, n)
        p_edge = self.edge_flip
        for q in range(n):
            want = reference.exact_ghz_marginal(rates, edges, p_edge, (q,))
            got = weights[keys[:, q]].sum()
            bound = SIGMAS * np.sqrt(want[1] * want[0] / SHOTS) + 1.0 / SHOTS
            _check(abs(got - want[1]) <= bound,
                   f"bare n={n} qubit {q}: P(1) {got:.5f} vs exact {want[1]:.5f}")
        for a, b in edges:
            want = reference.exact_ghz_marginal(rates, edges, p_edge, (a, b))
            local = 2 * keys[:, a] + keys[:, b]
            got = np.bincount(local, weights=weights, minlength=4)
            bound = SIGMAS * np.sqrt(want * (1.0 - want) / SHOTS) + 1.0 / SHOTS
            _check(bool(np.all(np.abs(got - want) <= bound)),
                   f"bare n={n} edge {(a, b)}: {got.round(5)} vs exact {want.round(5)}")

    def finish(self):
        _check(self.norms["bare"] and self.norms["cmc"], "no bare or cmc cell succeeded")
        bare, cmc = statistics.fmean(self.norms["bare"]), statistics.fmean(self.norms["cmc"])
        _check(cmc < bare, f"mean cmc one-norm {cmc:.4f} !< bare {bare:.4f}")


def sweep_indep(seed, tracer):
    return Sweep(
        seed, tracer,
        archs=({"kind": "grid", "rows": 3, "cols": 4},
               {"kind": "heavy_hex", "num_qubits": 12}),
        methods=("bare", "cmc", "jigsaw", "aim", "sim"),
        edge_flip=0.0,
    )


def sweep_edgeflip(seed, tracer):
    return Sweep(
        seed, tracer,
        archs=({"kind": "heavy_hex", "num_qubits": 12},
               {"kind": "grid", "rows": 3, "cols": 4}),
        methods=("bare", "cmc"),
        edge_flip=EDGE_FLIP,
    )


# ---------------------------------------------------------------------------
# stores: calibrate once, mitigate many


def build_store(cmap, rates, p_edge, rng, path):
    """Calibrate ``cmap`` from the benchmark's own per-shot samples, save the
    store to ``path`` and load it back.  Returns (store, file bytes)."""
    n, edges = cmap.num_qubits, tuple(cmap.edges)
    plan = cmcal.greedy_patch_plan(cmap, 1)
    circuits = sum(1 << len(group[0]) for group in plan.groups)
    per = (SHOTS // 2) // circuits
    records = {patch: [] for patch in plan.patches}
    for group in plan.groups:
        for assignment in cmcal.group_preparation_circuits(group):
            read = reference.sample_bits(
                reference.basis_shots(assignment, n, per), rates, edges, p_edge, rng)
            for patch in group:
                prepared = "".join(str(assignment[q]) for q in patch)
                counts = reference.counts_of(read[:, list(patch)])
                records[patch].append(cmcal.CountsRecord(patch, prepared, counts, per))
    matrices = [cmcal.estimate_matrix(records[patch]) for patch in plan.patches]
    singles = {}
    for mat in matrices:
        for q in mat.support:
            if q not in singles:
                singles[q] = cmcal.normalized_partial_trace(mat, {q})
    store = cmcal.CalibrationStore(
        f"{n}q", "benchmark", tuple(matrices), plan, singles,
        tuple(r for patch in plan.patches for r in records[patch]),
    )
    store.save(path)
    size = os.path.getsize(path)
    return cmcal.CalibrationStore.load(path), size


def exact_probe_store(cmap, rates):
    """Store with exact per-qubit product columns on every patch."""
    plan = cmcal.greedy_patch_plan(cmap, 1)
    matrices = []
    for patch in plan.patches:
        entries = np.kron(*(reference.readout_matrix(*rates[q]) for q in patch))
        matrices.append(cmcal.CalibrationMatrix(patch, entries))
    singles = {q: cmcal.CalibrationMatrix((q,), reference.readout_matrix(*rates[q]))
               for q in range(cmap.num_qubits)}
    return cmcal.CalibrationStore(f"{cmap.num_qubits}q-probe", "benchmark",
                                  tuple(matrices), plan, singles)


class Store:
    """One round mitigates ``CalibrationStore`` inputs sampled by the
    benchmark: counts of GHZ shots read through per-qubit and edge-flip
    noise, on the full register or on a measured subset."""

    def __init__(self, seed, tracer, archs):
        self.seed = seed
        self.tracer = tracer
        self.archs = archs
        self.bare, self.cmc = [], []

    def setup(self):
        os.makedirs(OUT_DIR, exist_ok=True)
        self.devices = []
        self.store_bytes = 0
        for i, arch in enumerate(self.archs):
            cmap = cmcal.generate_architecture(**arch)
            rates = device_rates(cmap.num_qubits)
            # calibrated once, like the device is built once: calibration
            # shots drawn per seed moved the mean one-norm of mitigate-subset
            # between 0.144 and 0.174 over five seeds, against 0.170-0.174
            # from the mitigated counts alone
            rng = np.random.default_rng([DEVICE_SEED, cmap.num_qubits, 0])
            path = os.path.join(OUT_DIR, f"store-{os.getpid()}-{i}.json")
            try:
                store, size = build_store(cmap, rates, STORE_EDGE_FLIP, rng, path)
            finally:
                if os.path.exists(path):
                    os.remove(path)
            self.store_bytes += size
            self.devices.append((cmap, rates, store))
        self.rng = np.random.default_rng([self.seed, 1])

    def _input(self, device, measured):
        """(device, measured, local counts, register-wide counts).

        ``CalibrationStore.mitigate`` takes register-wide bitstrings even for
        a subset measurement, so unmeasured positions are filled with 0.
        """
        cmap, rates, _ = device
        counts = reference.sample_ghz_counts(
            cmap.num_qubits, rates, tuple(cmap.edges), STORE_EDGE_FLIP,
            CIRCUIT_SHOTS, self.rng, measured)
        return device, measured, counts, _widen(counts, measured, cmap.num_qubits)

    def run(self, inputs, first_op):
        ops, outputs = [], []
        tracer = self.tracer
        try:
            for device, measured, _, wide in inputs:
                if tracer is not None:
                    tracer.op = first_op + len(ops)
                start = perf_counter()
                try:
                    dist = cmcal.Distribution.from_counts(wide, device[0].num_qubits)
                    out = device[2].mitigate(dist, measured=measured)
                except Exception:  # a failed call counts against the run
                    traceback.print_exc()
                    out = None
                ops.append(Op(perf_counter() - start, out is None))
                outputs.append(out)
        finally:
            if tracer is not None:
                tracer.op = None
        return ops, outputs

    def check(self, ops, outputs, inputs):
        for op, out, entry in zip(ops, outputs, inputs):
            if out is None:
                continue
            device, measured, counts, _ = entry
            n = device[0].num_qubits
            _check_distribution(out, n, f"mitigate {measured or 'all'}")
            local = _narrow(out.entries, measured)
            width = n if measured is None else len(measured)
            op.one_norm_cmc = reference.ghz_one_norm(local, width)
            shots = sum(counts.values())
            self.bare.append(reference.ghz_one_norm(
                {k: v / shots for k, v in counts.items()}, width))
            self.cmc.append(op.one_norm_cmc)

    def probe(self, device, measured):
        """Mitigate two count sets on one layout with an exact per-qubit store
        and compare each with the Kronecker oracle built from the rates alone;
        the second call also shows that an output follows its own input."""
        cmap, rates, _ = device
        n = cmap.num_qubits
        rng = np.random.default_rng([self.seed, 2])
        store = exact_probe_store(cmap, rates)
        qubits = tuple(range(n)) if measured is None else tuple(measured)
        for _ in range(2):
            counts = reference.sample_ghz_counts(n, rates, (), 0.0, CIRCUIT_SHOTS, rng, measured)
            shots = sum(counts.values())
            got = store.mitigate(
                cmcal.Distribution.from_counts(_widen(counts, measured, n), n), measured=measured)
            want = reference.kron_mitigate(
                rates, qubits, {k: v / shots for k, v in counts.items()})
            vec = np.zeros_like(want)
            for key, value in _narrow(got.entries, measured).items():
                vec[int(key, 2)] = value
            err = float(np.abs(vec - want).sum())
            _check(err <= PROBE_TOL, f"probe {qubits}: one-norm to oracle {err:.3e}")

    def finish(self):
        _check(self.cmc, "no mitigation call succeeded")
        bare, cmc = statistics.fmean(self.bare), statistics.fmean(self.cmc)
        _check(cmc < bare, f"mean mitigated one-norm {cmc:.4f} !< bare {bare:.4f}")


class FullStore(Store):
    """Every round mitigates fresh full-register counts on each store."""

    def inputs(self):
        return [self._input(device, None) for device in self.devices]

    def finish(self):
        super().finish()
        self.probe(self.devices[0], None)


# The hot layouts are a fixed pool, like the device, with sizes whose mean is
# that of the fresh layouts' sizes drawn from 4..10: the seed would otherwise
# move both cost and accuracy through the four layouts half of the calls use.
# The half share is the benchmark's choice, not taken from device traffic.
HOT_SIZES = (4, 6, 8, 10)
FRESH_LAYOUTS = 4


def connected_subset(cmap, size, rng):
    """Random connected set of ``size`` qubits grown from a random root."""
    chosen = {int(rng.integers(cmap.num_qubits))}
    while len(chosen) < size:
        frontier = sorted({v for u in chosen for v in cmap.neighbors(u)} - chosen)
        chosen.add(frontier[int(rng.integers(len(frontier)))])
    return tuple(sorted(chosen))


class SubsetStore(Store):
    """Half of every round's calls measure one of four hot layouts from a
    fixed pool, the other half a fresh layout each.  Every call mitigates
    fresh counts, as a layout run again on a device reads new shots."""

    def setup(self):
        super().setup()
        cmap = self.devices[0][0]
        layout_rng = np.random.default_rng([DEVICE_SEED, cmap.num_qubits, 3])
        self.hot = [connected_subset(cmap, size, layout_rng) for size in HOT_SIZES]
        self.replay = None

    def inputs(self):
        device = self.devices[0]
        fresh = [connected_subset(device[0], int(self.rng.integers(4, 11)), self.rng)
                 for _ in range(FRESH_LAYOUTS)]
        return [self._input(device, m) for pair in zip(self.hot, fresh) for m in pair]

    def check(self, ops, outputs, inputs):
        super().check(ops, outputs, inputs)
        if self.replay is None:
            self.replay = next(((entry, out.entries) for entry, out in zip(inputs, outputs)
                                if out is not None), None)

    def finish(self):
        super().finish()
        # the run's first mitigated input, after every other call, must
        # mitigate to the same output again
        (device, measured, _, wide), want = self.replay
        again = device[2].mitigate(
            cmcal.Distribution.from_counts(wide, device[0].num_qubits), measured=measured)
        _check(again.entries == want, f"mitigate {measured}: rerun differs")
        self.probe(self.devices[0], connected_subset(
            self.devices[0][0], 8, np.random.default_rng([self.seed, 4])))


def mitigate_full(seed, tracer):
    # grid 3x6 rather than 4x5: a 4x5 call takes 10-12 s, so a run would
    # hold four calls, too few to measure; 3x6 still grows ~130 000 entries
    return FullStore(
        seed, tracer,
        archs=({"kind": "grid", "rows": 4, "cols": 4}, {"kind": "grid", "rows": 3, "cols": 6}),
    )


def mitigate_subset(seed, tracer):
    return SubsetStore(
        seed, tracer,
        archs=({"kind": "heavy_hex", "num_qubits": 64},),
    )


WORKLOADS = {
    "sweep-indep": sweep_indep,
    "sweep-edgeflip": sweep_edgeflip,
    "mitigate-full": mitigate_full,
    "mitigate-subset": mitigate_subset,
}
