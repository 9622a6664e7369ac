"""Experiment harness: metrics, sweep runner, persistence, result emission.

The harness compares mitigation strategies on simulated devices.  A sweep is
described by one JSON document (:class:`ExperimentConfig`); every quantity a
trial needs is derived deterministically from the master seed, so a repeated
run emits byte-identical CSV.
"""

from __future__ import annotations

import csv
import json
import logging
import os
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from .calibration import (
    MAX_PATCH_QUBITS,
    CalibrationError,
    CalibrationMatrix,
    CountsRecord,
    Distribution,
    _ordered_sum,
)
# unused here, but perfbench/spans.py SITES wraps these three names in this module
from .calibration import apply, assemble_for_measured, invert  # noqa: F401
from .noise import NoiseModel, NoiseSpec, ghz_distribution, ideal_ghz
from .strategies import METHODS, ShotBudget, StrategyConfig, mitigate, run_method
from .topology import CouplingMap, PatchPlan, generate_architecture

logger = logging.getLogger(__name__)

CSV_COLUMNS = (
    "method",
    "n",
    "trial",
    "seed",
    "success_probability",
    "one_norm",
    "shots_calibration",
    "shots_circuit",
    "wall_ms",
)

STORE_VERSION = 1


class StoreError(RuntimeError):
    """Calibration store file is unreadable, inconsistent, or wrong version."""


# ---------------------------------------------------------------------------
# metrics


def _check_sizes(a: Distribution, b: Distribution):
    if a.n != b.n:
        raise ValueError(f"register mismatch: {a.n} vs {b.n}")


def one_norm(a: Distribution, b: Distribution) -> float:
    """Total variation-style distance sum |a(s) - b(s)| over both supports,
    accumulated in index order."""
    _check_sizes(a, b)
    union = np.union1d(a.index, b.index)
    diff = np.zeros(union.size)
    diff[np.searchsorted(union, a.index)] = a.weights
    diff[np.searchsorted(union, b.index)] -= b.weights
    return _ordered_sum(np.abs(diff))


def success_probability(observed: Distribution, verified: Distribution) -> float:
    """Observed mass landing on the verified distribution's support."""
    _check_sizes(observed, verified)
    support = verified.index[verified.weights > 0.0]
    mass = _ordered_sum(observed.weights[np.isin(observed.index, support)])
    return float(min(max(mass, 0.0), 1.0))


# ---------------------------------------------------------------------------
# experiment configuration


def _build_coupling_map(architecture: dict) -> CouplingMap:
    if "file" in architecture:
        with open(architecture["file"]) as fh:
            return CouplingMap.from_json(fh.read())
    params = {k: v for k, v in architecture.items() if k != "kind"}
    return generate_architecture(architecture["kind"], **params)


def _fixed_spec(noise: dict) -> NoiseSpec:
    if "file" in noise:
        with open(noise["file"]) as fh:
            return NoiseSpec.from_json(fh.read())
    doc = {k: v for k, v in noise.items() if k != "kind"}
    return NoiseSpec.from_json(json.dumps(doc))


@dataclass(frozen=True)
class ExperimentConfig:
    """One benchmark sweep: device, noise, methods, budget, trial count.

    ``noise`` is either ``{"kind": "random", "low": .., "high": ..}`` (fresh
    per-qubit rates every trial) or ``{"kind": "fixed", ...NoiseSpec doc...}``
    / ``{"kind": "fixed", "file": path}`` for a constant channel.
    """

    architecture: dict
    noise: dict
    methods: tuple
    shots: int
    trials: int = 50
    seed: int = 0
    out: str | None = None
    deterministic_timing: bool = True

    def __post_init__(self):
        if self.shots < 1:
            raise ValueError("shots must be >= 1")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not self.methods:
            raise ValueError("at least one method is required")
        methods = tuple(
            m if isinstance(m, StrategyConfig) else StrategyConfig(**m)
            for m in self.methods
        )
        object.__setattr__(self, "methods", methods)
        kind = self.noise.get("kind", "random")
        if kind not in ("random", "fixed"):
            raise ValueError(f"unknown noise kind {kind!r}")
        for section in (self.architecture, self.noise):
            path = section.get("file")
            if path is not None and not os.path.exists(path):
                raise FileNotFoundError(path)

    def to_json(self) -> str:
        return json.dumps(
            {
                "architecture": self.architecture,
                "noise": self.noise,
                "methods": [
                    {"method": m.method, "options": dict(m.options)} for m in self.methods
                ],
                "shots": self.shots,
                "trials": self.trials,
                "seed": self.seed,
                "out": self.out,
                "deterministic_timing": self.deterministic_timing,
            },
            indent=2,
        )

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        doc = json.loads(text)
        try:
            return cls(
                architecture=doc["architecture"],
                noise=doc["noise"],
                methods=tuple(doc["methods"]),
                shots=int(doc["shots"]),
                trials=int(doc.get("trials", 50)),
                seed=int(doc.get("seed", 0)),
                out=doc.get("out"),
                deterministic_timing=bool(doc.get("deterministic_timing", True)),
            )
        except KeyError as exc:
            raise ValueError(f"experiment config is missing field {exc}") from None

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        with open(path) as fh:
            return cls.from_json(fh.read())


@dataclass(frozen=True)
class ResultRecord:
    """Outcome of one (method, trial) cell; metrics are None on failure."""

    method: str
    n: int
    trial: int
    seed: int
    success_probability: float | None
    one_norm: float | None
    shots_calibration: int
    shots_circuit: int
    wall_ms: float
    diagnostics: dict = field(default_factory=dict)
    error: str | None = None

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.error is None:
            if not (0.0 <= self.success_probability <= 1.0):
                raise ValueError("success_probability outside [0, 1]")
            if not (0.0 <= self.one_norm <= 2.0 + 1e-9):
                raise ValueError("one_norm outside [0, 2]")

    def row(self) -> dict:
        def fmt(value):
            return "" if value is None else value

        return {
            "method": self.method,
            "n": self.n,
            "trial": self.trial,
            "seed": self.seed,
            "success_probability": fmt(self.success_probability),
            "one_norm": fmt(self.one_norm),
            "shots_calibration": self.shots_calibration,
            "shots_circuit": self.shots_circuit,
            "wall_ms": self.wall_ms,
        }

    def to_doc(self) -> dict:
        doc = dict(self.row())
        doc["diagnostics"] = _jsonable(self.diagnostics)
        doc["error"] = self.error
        return doc


def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    return value


# ---------------------------------------------------------------------------
# the sweep


def derived_seed(*parts) -> int:
    """Stable stream derivation; identical parts give identical streams."""
    return int(np.random.SeedSequence(tuple(int(p) for p in parts)).generate_state(1)[0])


class _CsvSink:
    """Incremental row writer: a killed sweep keeps everything flushed so far."""

    def __init__(self, path):
        self._fh = open(path, "w", newline="")
        self._writer = csv.DictWriter(self._fh, fieldnames=CSV_COLUMNS)
        self._writer.writeheader()
        self._fh.flush()

    def write(self, record: ResultRecord):
        self._writer.writerow(record.row())
        self._fh.flush()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()


def run_experiment(config: ExperimentConfig) -> list:
    """Run every (trial, method) cell and return the records in order.

    Trial ``t`` draws its noise from a stream derived from ``(seed, t)`` and
    method ``i`` samples from ``(seed, t, i)``, so methods within a trial see
    the same channel and reruns reproduce every record exactly.  A strategy
    error becomes an error record instead of aborting the sweep, and so does
    a register too wide for a :class:`Distribution`.
    """
    cmap = _build_coupling_map(config.architecture)
    n = cmap.num_qubits
    kind = config.noise.get("kind", "random")
    fixed = _fixed_spec(config.noise) if kind == "fixed" else None
    gate_flip = fixed.gate_flip if fixed is not None else 0.0
    unfit = None
    try:
        reference = ideal_ghz(n)
        circuit = ghz_distribution(cmap, gate_flip)
    except CalibrationError as exc:  # e.g. a register past the index bound
        unfit = exc
    budget = ShotBudget(config.shots)
    records = []
    with _CsvSink(config.out) if config.out else nullcontext() as sink:
        for trial in range(config.trials):
            if fixed is not None:
                spec = fixed
            else:
                spec = NoiseSpec.random(
                    n,
                    derived_seed(config.seed, trial),
                    low=float(config.noise.get("low", 0.02)),
                    high=float(config.noise.get("high", 0.08)),
                )
            model = NoiseModel.from_spec(n, spec)
            for index, method in enumerate(config.methods):
                seed = derived_seed(config.seed, trial, index)
                start = time.perf_counter()
                try:
                    if unfit is not None:
                        raise unfit
                    result = run_method(method, circuit, model, budget, cmap=cmap, seed=seed)
                except (CalibrationError, ValueError) as exc:
                    logger.warning("%s failed on trial %d: %s", method.method, trial, exc)
                    record = ResultRecord(
                        method.method, n, trial, seed, None, None, 0, 0, 0.0,
                        error=str(exc),
                    )
                else:
                    wall = 0.0 if config.deterministic_timing else (
                        (time.perf_counter() - start) * 1000.0
                    )
                    calibration = result.calibration_shots
                    record = ResultRecord(
                        method.method,
                        n,
                        trial,
                        seed,
                        success_probability(result.mitigated, reference),
                        one_norm(result.mitigated, reference),
                        calibration,
                        result.total_shots - calibration,
                        wall,
                        diagnostics=result.diagnostics,
                    )
                records.append(record)
                if sink is not None:
                    sink.write(record)
    return records


def emit_results(records, fmt: str, path):
    """Write records as CSV (fixed column set) or JSON (lossless mirror)."""
    if not records:
        raise ValueError("no records to emit")
    if fmt == "csv":
        with _CsvSink(path) as sink:
            for record in records:
                sink.write(record)
    elif fmt == "json":
        with open(path, "w") as fh:
            json.dump([r.to_doc() for r in records], fh, indent=2)
            fh.write("\n")
    else:
        raise ValueError(f"unknown format {fmt!r}")


# ---------------------------------------------------------------------------
# calibration persistence


@dataclass(frozen=True)
class CalibrationStore:
    """Patch matrices (plus provenance) reusable across circuits.

    The assembled inverse is recomputed on demand from the stored matrices;
    since JSON round-trips floats exactly, a reloaded store mitigates any
    distribution bit-for-bit identically to the original.
    """

    arch_id: str
    created: str
    matrices: tuple
    plan: PatchPlan | None = None
    singles: dict = field(default_factory=dict)
    records: tuple = ()

    def __post_init__(self):
        matrices = tuple(
            m if isinstance(m, CalibrationMatrix) else CalibrationMatrix(*m)
            for m in self.matrices
        )
        if not matrices:
            raise StoreError("store holds no calibration matrices")
        supports = [m.support for m in matrices]
        if len(set(supports)) != len(supports):
            raise StoreError("duplicate patch supports in store")
        for sup in supports:
            if len(sup) > MAX_PATCH_QUBITS:
                raise StoreError(f"patch {sup} exceeds the {MAX_PATCH_QUBITS}-qubit bound")
        singles = {}
        for q, mat in self.singles.items():
            single = mat if isinstance(mat, CalibrationMatrix) else CalibrationMatrix((int(q),), mat)
            if single.support != (int(q),):
                raise StoreError(f"singles entry for {q} has support {single.support}")
            singles[int(q)] = single
        object.__setattr__(self, "matrices", matrices)
        object.__setattr__(self, "singles", singles)
        object.__setattr__(self, "records", tuple(self.records))

    @property
    def qubits(self) -> tuple:
        return tuple(sorted({q for m in self.matrices for q in m.support} | set(self.singles)))

    def mitigate(self, dist: Distribution, measured=None) -> Distribution:
        """Mitigate ``dist`` with the stored patches joined over ``measured``,
        through the same :func:`~cmcal.strategies.mitigate` step as cmc.

        ``dist`` is either register-wide (``dist.n`` is the register size and
        unmeasured positions are placeholders) or, when ``dist.n`` equals the
        number of measured qubits, measured-width: bit ``i`` belongs to the
        ``i``-th measured qubit in ascending order, as in the counts of
        ``NoiseModel.sample(..., measured=...)``.  The result has the width
        of ``dist``.  Only ``measured == range(dist.n)`` fits both readings,
        and there they agree.
        """
        return mitigate(self.matrices, self.singles, dist, measured)

    def to_doc(self) -> dict:
        return {
            "version": STORE_VERSION,
            "arch_id": self.arch_id,
            "created": self.created,
            "matrices": [
                {"support": list(m.support), "entries": m.entries.tolist()}
                for m in self.matrices
            ],
            "plan": json.loads(self.plan.to_json()) if self.plan is not None else None,
            "singles": {str(q): m.entries.tolist() for q, m in self.singles.items()},
            "records": [r.to_json() for r in self.records],
        }

    def save(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_doc(), fh, indent=2)
            fh.write("\n")

    @classmethod
    def from_doc(cls, doc: dict) -> "CalibrationStore":
        try:
            version = doc["version"]
        except (TypeError, KeyError) as exc:
            raise StoreError("missing store version") from exc
        if version != STORE_VERSION:
            raise StoreError(f"store version {version} != supported {STORE_VERSION}")
        try:
            matrices = tuple(
                CalibrationMatrix(tuple(m["support"]), np.array(m["entries"]))
                for m in doc["matrices"]
            )
            plan = doc.get("plan")
            singles = {
                int(q): CalibrationMatrix((int(q),), np.array(entries))
                for q, entries in doc.get("singles", {}).items()
            }
            records = tuple(CountsRecord.from_json(r) for r in doc.get("records", []))
            return cls(
                arch_id=doc["arch_id"],
                created=doc["created"],
                matrices=matrices,
                plan=PatchPlan.from_json(json.dumps(plan)) if plan is not None else None,
                singles=singles,
                records=records,
            )
        except StoreError:
            raise
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise StoreError(f"corrupted calibration store: {exc}") from exc

    @classmethod
    def load(cls, path) -> "CalibrationStore":
        with open(path) as fh:
            try:
                doc = json.load(fh)
            except json.JSONDecodeError as exc:
                raise StoreError(f"unparseable calibration store: {exc}") from exc
        return cls.from_doc(doc)
