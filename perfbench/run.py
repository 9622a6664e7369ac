"""Run one benchmark workload against the cmcal sources of this checkout.

    python3 perfbench/run.py --workload sweep-indep --seed 1 --seconds 20 --trace 0

Run from the root of a checkout that holds ``src/cmcal``.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1`` (which also writes every span to
``perfbench/out/``).  End-to-end times are in nominal seconds (``speed.py``);
standard error gets the run's wall-time figures.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
WORKLOAD_NAMES = ("sweep-indep", "sweep-edgeflip", "mitigate-full", "mitigate-subset")
# set-up is repeated and its median reported, so that one slow set-up does
# not move the figure; the import cost is measured in fresh interpreters
SETUPS = 9


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_intervals(gauge):
    """Wall intervals of fresh interpreters that import cmcal."""
    code = f"import sys; sys.path.insert(0, {SRC!r}); import cmcal"
    intervals = []
    for _ in range(SETUPS):
        gauge.probe()
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True)
        intervals.append((t0, time.perf_counter()))
    return intervals


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "cmcal", "__init__.py")):
        print(f"no cmcal sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import spans
    import speed
    import workloads

    gauge = speed.Gauge()
    imports = import_intervals(gauge)
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install()
    workload = workloads.WORKLOADS[args.workload](args.seed, tracer)

    setups = []
    for _ in range(SETUPS):
        gauge.probe()
        t0 = time.perf_counter()
        workload.setup()
        setups.append((t0, time.perf_counter()))

    ops, rounds, correct, error = [], [], True, None
    measured_s = round_s = 0.0
    gauge.probe()
    try:
        # whole rounds, stopping where the total comes nearest --seconds
        while not ops or measured_s + 0.5 * round_s < args.seconds:
            inputs = workload.inputs()
            t0 = time.perf_counter()
            round_ops, payload = workload.run(inputs, len(ops))
            t1 = time.perf_counter()
            round_s = t1 - t0
            measured_s += round_s
            ops.extend(round_ops)
            rounds.append((t0, t1, [1e3 * op.seconds for op in round_ops if not op.failed]))
            workload.check(round_ops, payload, inputs)
            if gauge.due():
                gauge.probe()
        workload.finish()
    except workloads.CheckError as exc:
        correct, error = False, str(exc)
    gauge.probe()
    if tracer is not None:
        tracer.uninstall()

    def median_s(intervals, scaled=True):
        return statistics.median(
            gauge.scaled(t0, t1) if scaled else t1 - t0 for t0, t1 in intervals)

    done = [op for op in ops if not op.failed]
    # every time reported is in nominal seconds (speed.py): wall time scaled
    # by the reference loop's time around it
    scales = [gauge.scaled(t0, t1) / (t1 - t0) for t0, t1, _ in rounds]
    ops_per_s = len(done) / sum(s * (t1 - t0) for s, (t0, t1, _) in zip(scales, rounds))
    # each round's median, averaged over the rounds: a median over rounds
    # follows whichever speed the host held for most of the run
    medians = [s * statistics.median(lat) for s, (_, _, lat) in zip(scales, rounds) if lat]
    setup_s = median_s(imports) + median_s(setups)
    print(f"wall time: ops_per_s {len(done) / measured_s:.4f}, "
          f"setup_s {median_s(imports, False) + median_s(setups, False):.4f}; reference "
          f"loop {1e3 * statistics.median(gauge.took):.3f} ms, median of {len(gauge.took)} "
          f"probes", file=sys.stderr)
    norms = [op.one_norm_cmc for op in done if op.one_norm_cmc is not None]
    if tracer is not None:
        os.makedirs(workloads.OUT_DIR, exist_ok=True)
        tracer.write(os.path.join(
            workloads.OUT_DIR, f"trace-{args.workload}-{args.seed}.jsonl"))
        metrics = spans.layer_metrics(
            tracer, len(ops), SETUPS, measured_s, getattr(workload, "store_bytes", 0),
            ops_per_s)
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "ops_per_s": (ops_per_s, "ops/s"),
            "op_ms_p50": (statistics.fmean(medians) if medians else 0.0, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "one_norm_cmc": (statistics.fmean(norms) if norms else 0.0, "1"),
        }
    if error is not None:
        print(f"check failed: {error}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": len(ops),
        "failed": len(ops) - len(done),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
