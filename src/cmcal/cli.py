"""Command-line front end.

Subcommands cover the full workflow: generate a device layout, plan patch
groups, characterize correlations, build and reuse calibration stores, apply
them to counts, sweep benchmark configurations, and run the repeated-X
readout drift experiment.  Everything is JSON/CSV in and out.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import replace
from datetime import datetime, timezone

from .bench import (
    CalibrationStore,
    ExperimentConfig,
    StoreError,
    emit_results,
    run_experiment,
)
from .calibration import Distribution
from .noise import NoiseModel, NoiseSpec, state_dependent_channel, x_chain_experiment
from .strategies import calibrate_patches
from .topology import (
    CouplingMap,
    correlation_weights,
    err_map,
    generate_architecture,
    greedy_patch_plan,
)

_ARCH_PARAMS = ("num_qubits", "rows", "cols")


def _write_out(text: str, out):
    if out:
        with open(out, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _load_map(path) -> CouplingMap:
    with open(path) as fh:
        return CouplingMap.from_json(fh.read())


def _cmd_gen_arch(args):
    params = {k: getattr(args, k) for k in _ARCH_PARAMS if getattr(args, k) is not None}
    cmap = generate_architecture(args.kind, **params)
    _write_out(cmap.to_json(), args.out)
    return 0


def _cmd_patch_plan(args):
    cmap = _load_map(args.map)
    plan = greedy_patch_plan(cmap, args.separation)
    _write_out(plan.to_json(), args.out)
    return 0


def _cmd_calibrate(args):
    cmap = _load_map(args.map)
    with open(args.noise) as fh:
        spec = NoiseSpec.from_json(fh.read())
    model = NoiseModel.from_spec(cmap.num_qubits, spec)
    plan = greedy_patch_plan(cmap, args.separation)
    matrices, singles = calibrate_patches(model, plan, args.shots, seed=args.seed)
    store = CalibrationStore(
        arch_id=args.arch_id,
        created=datetime.now(timezone.utc).isoformat(),
        matrices=tuple(matrices),
        plan=plan,
        singles=singles,
    )
    store.save(args.out)
    print(f"wrote {len(matrices)} patch matrices to {args.out}")
    return 0


def _cmd_err_map(args):
    store = CalibrationStore.load(args.store)
    pairs = {m.support: m for m in store.matrices if len(m.support) == 2}
    if not pairs:
        raise ValueError("store holds no two-qubit patches")
    weights = correlation_weights(store.singles, pairs)
    selected = err_map(weights, args.max_edges)
    _write_out(selected.to_json(), args.out)
    return 0


def _cmd_mitigate(args):
    store = CalibrationStore.load(args.store)
    with open(args.counts) as fh:
        doc = json.load(fh)
    counts = doc["counts"] if isinstance(doc, dict) and "counts" in doc else doc
    if not isinstance(counts, dict):
        raise ValueError(f"counts file {args.counts} is not a {{bitstring: count}} object")
    if not counts:
        raise ValueError(f"counts file {args.counts} holds no counts")
    width, register = len(next(iter(counts))), max(store.qubits) + 1
    try:
        observed = Distribution.from_counts(counts, width)
        if width < register:
            raise ValueError(f"{width}-bit keys are narrower than the store's {register} qubits")
    except ValueError as exc:  # CalibrationError included
        raise ValueError(f"counts file {args.counts}: {exc}") from exc
    mitigated = store.mitigate(observed)
    _write_out(json.dumps(dict(mitigated.entries), indent=2), args.out)
    return 0


def _cmd_bench(args):
    config = ExperimentConfig.from_file(args.config)
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.shots is not None:
        overrides["shots"] = args.shots
    if args.trials is not None:
        overrides["trials"] = args.trials
    out = args.out if args.out is not None else config.out
    if args.format == "json" and not out:
        raise ValueError("--out is required for json output")
    overrides["out"] = out if args.format == "csv" else None
    config = replace(config, **overrides)
    records = run_experiment(config)
    if args.format == "json":
        emit_results(records, "json", out)
    by_method = {}
    for record in records:
        if record.error is None:
            by_method.setdefault(record.method, []).append(record.one_norm)
    for method in sorted(by_method):
        values = by_method[method]
        print(f"{method}: mean one-norm {sum(values) / len(values):.4f} over {len(values)} trials")
    failures = sum(1 for r in records if r.error is not None)
    if failures:
        print(f"{failures} cells failed; see records for messages", file=sys.stderr)
    return 0


def _cmd_x_chain(args):
    channel = state_dependent_channel(args.p01, args.p10, qubit=0)
    rates = x_chain_experiment(args.depth, channel, args.shots, args.seed, args.gate_flip)
    if args.format == "json":
        _write_out(json.dumps([{"depth": d, "error": e} for d, e in rates], indent=2), args.out)
    else:
        if args.out:
            fh = open(args.out, "w", newline="")
        else:
            fh = sys.stdout
        try:
            writer = csv.writer(fh)
            writer.writerow(["depth", "error"])
            writer.writerows(rates)
        finally:
            if args.out:
                fh.close()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cmcal", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-arch", help="emit a coupling map as JSON")
    p.add_argument("kind", help="linear | grid | local_grid | heavy_hex | octagonal | fully_connected")
    p.add_argument("--num-qubits", dest="num_qubits", type=int)
    p.add_argument("--rows", type=int)
    p.add_argument("--cols", type=int)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_gen_arch)

    p = sub.add_parser("patch-plan", help="greedy grouped patch plan for a map")
    p.add_argument("--map", required=True)
    p.add_argument("--separation", type=int, default=1)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_patch_plan)

    p = sub.add_parser("calibrate", help="build a calibration store from a noise spec")
    p.add_argument("--map", required=True)
    p.add_argument("--noise", required=True, help="NoiseSpec JSON file")
    p.add_argument("--shots", type=int, default=None,
                   help="shots per preparation circuit (omit for exact columns)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--separation", type=int, default=1)
    p.add_argument("--arch-id", dest="arch_id", default="device")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_calibrate)

    p = sub.add_parser("err-map", help="correlation-directed edge selection from a store")
    p.add_argument("--store", required=True)
    p.add_argument("--max-edges", dest="max_edges", type=int, default=None)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_err_map)

    p = sub.add_parser("mitigate", help="apply a calibration store to a counts file")
    p.add_argument("--store", required=True)
    p.add_argument("--counts", required=True, help='JSON {"bitstring": count, ...}')
    p.add_argument("--out")
    p.set_defaults(func=_cmd_mitigate)

    p = sub.add_parser("bench", help="run a benchmark sweep from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--out")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--shots", type=int, default=None)
    p.add_argument("--trials", type=int, default=None)
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("x-chain", help="repeated-X readout error vs depth")
    p.add_argument("--depth", type=int, default=50)
    p.add_argument("--shots", type=int, default=4000)
    p.add_argument("--p01", type=float, default=0.02)
    p.add_argument("--p10", type=float, default=0.08)
    p.add_argument("--gate-flip", dest="gate_flip", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_x_chain)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, StoreError) as exc:  # CalibrationError included
        print(f"cmcal {args.command}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
