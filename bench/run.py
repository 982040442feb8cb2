"""weightlab benchmark: one workload per run, closed loop, one thread.

    python3 bench/run.py --workload certify --seed 1 --seconds 15 --trace 0

A run sets up the workload, then runs whole rounds of its operations until
--seconds have passed (at least one round), checks every output, and prints
one JSON object as its last line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are end to end:
  setup_s      median, over fresh interpreters, of the time from process
               start until the first operation is ready (imports, spec
               parsing, model building, input generation);
  wall_s       median time of one round;
  peak_rss_mb  peak resident memory of this process up to the end of the
               first round.
With --trace 1 the first half of the time runs untraced rounds and the
second half traced rounds; the metrics are per layer, per round, and
trace.overhead compares the two halves.  Spans go to bench/out/.

Exit codes: 0 with a result (even when a check failed: see "correct"),
2 when the workload cannot run (for example weightlab's sources are absent).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

THREADS = str(min(2, os.cpu_count() or 1))
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = THREADS

SETUP_PROBES = 9


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=("certify", "coeffs", "counterexample"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe-setup", action="store_true",
                    help="set up in a fresh interpreter, print the ready time, exit")
    return ap.parse_args(argv)


def probe_setup(args, probes: int) -> list:
    """Start-to-ready times of fresh interpreters (CLOCK_MONOTONIC is shared
    by all processes, so the child's ready stamp compares with the parent's
    start stamp)."""
    cmd = [sys.executable, os.path.abspath(__file__), "--probe-setup",
           "--workload", args.workload, "--seed", str(args.seed)]
    times = []
    for _ in range(probes):
        start = time.monotonic()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout.split()[-1]) - start)
    return times


def run_rounds(ops, seconds: float, tracer=None) -> tuple:
    """Whole rounds until `seconds` have passed: (round times, round CPU
    times of this process, outputs, peak resident MiB after the first round,
    which every run completes)."""
    walls, cpus, outputs = [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        start, cpu = time.perf_counter(), time.process_time()
        outs = []
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.begin_op(i, op.name)
            outs.append(op.run())
            if tracer is not None:
                tracer.end_op()
        walls.append(time.perf_counter() - start)
        cpus.append(time.process_time() - cpu)
        outputs.append(outs)
        if len(walls) == 1:
            peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if time.perf_counter() >= deadline:
            return walls, cpus, outputs, peak_mib


def traced_rounds(args, ops, out_dir) -> tuple:
    """Untraced rounds for half the time, traced rounds for the other half:
    (traced round times and CPU times, outputs of all rounds, per-layer
    metrics)."""
    import tracing

    plain, _, outputs, _ = run_rounds(ops, args.seconds / 2)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        walls, cpus, traced, _ = run_rounds(ops, args.seconds / 2, tracer)
    finally:
        tracer.uninstall()
    tracer.write(out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl")
    values = tracer.layer_metrics(len(walls))
    values["trace.overhead"] = statistics.median(walls) / statistics.median(plain) - 1.0
    missing = tracer.missing_metrics()
    metrics = {}
    for name, unit, _ in tracing.METRICS:
        if name in missing:
            metrics[name] = {"value": None, "unit": unit, "missing": True}
        else:
            metrics[name] = {"value": values[name], "unit": unit}
    return walls, cpus, outputs + traced, metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import workloads
        workloads.import_weightlab()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.probe_setup:
        workloads.setup(args.workload, args.seed)
        print(repr(time.monotonic()))
        return 0

    workloads.OUT.mkdir(parents=True, exist_ok=True)
    untraced = args.trace == 0
    # set-up probes run before the rounds, after them and after the checks,
    # so that their median spans the whole run
    probes = probe_setup(args, SETUP_PROBES // 3) if untraced else []
    ops = workloads.setup(args.workload, args.seed)
    if untraced:
        walls, cpus, outputs, peak_mib = run_rounds(ops, args.seconds)
        probes += probe_setup(args, SETUP_PROBES // 3)
    else:
        walls, cpus, outputs, metrics = traced_rounds(args, ops, workloads.OUT)
    tally = workloads.check_rounds(ops, outputs)
    if untraced:
        probes += probe_setup(args, SETUP_PROBES - len(probes))
        metrics = {
            "setup_s": {"value": statistics.median(probes), "unit": "s"},
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "peak_rss_mb": {"value": peak_mib, "unit": "MiB"},
        }

    for problem in tally.problems[:50]:
        print(f"check failed: {problem}", file=sys.stderr)
    rounds = len(outputs)
    result = {
        "correct": not tally.problems,
        "attempted": tally.attempted * rounds,
        "failed": tally.failed * rounds,
        "metrics": metrics,
    }
    text = json.dumps(result)
    (workloads.OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(text + "\n")
    print(f"{args.workload}: {rounds} rounds, round times {[round(w, 3) for w in walls]}, "
          f"CPU times {[round(c, 3) for c in cpus]}")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
