"""Benchmark for the preview_regret package.

    python3 bench/run.py --workload regret-sweep --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seed 1

Run from the repository root or anywhere else: the package is imported
from the ``src`` directory next to this one, and nothing else. Each
workload runs in its own process. With ``--trace 0`` the last line of
output is a JSON object with the end-to-end metrics; with ``--trace 1`` it
holds the per-layer metrics of a traced run. See bench/README.md.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("op_p50_ms", "ms"),
              ("op_tail_ms", "ms"), ("peak_rss_mb", "MB"))
PACKAGE_IMPORT = "import preview_regret, preview_regret.cli"
SETUP_REPS = 7
# A round of rcis-templates takes about as long as a run; two rounds give
# every workload's medians at least two row permutations or stream sets.
MIN_ROUNDS = 2
# The tail is the 95th percentile where at least 10 ops lie beyond it. On
# workloads with fewer ops it is the slowest op of a round, median over the
# run's rounds: steadier than the single slowest op of the run.
TAIL_PERCENTILE = 95
TAIL_MIN_OPS = 200


def import_package():
    """Put this checkout's src first on the path; exit non-zero without it."""
    if not os.path.isfile(os.path.join(SRC, "preview_regret", "__init__.py")):
        sys.exit(f"error: no package source at {SRC}")
    sys.path.insert(0, SRC)


def run_round(workload, r, clock, tracer, failures):
    """One pass over a round's ops; returns their intervals from the clock.

    Input generation and the correctness checks run untimed and untraced.
    """
    intervals = []
    for label, run, check in workload.round_ops(r):
        if tracer is not None:
            tracer.enabled = True
        try:
            result = clock.timed(run, quiet=workload.threaded)
            err = None
        except Exception as exc:
            err = f"raised {type(exc).__name__}: {exc}"
        intervals.append(clock.last)
        if tracer is not None:
            tracer.enabled = False
        if err is None:
            try:
                err = check(result)
            except Exception as exc:
                err = f"check raised {type(exc).__name__}: {exc}"
        if err is not None:
            failures.append(f"{workload.name} {label} round {r}: {err}")
    return intervals


def run_phase(workload, first_round, seconds, clock, tracer, failures):
    """Whole rounds until `seconds` have passed, and at least MIN_ROUNDS."""
    rounds = []
    t0 = time.perf_counter()
    while len(rounds) < MIN_ROUNDS or time.perf_counter() - t0 < seconds:
        rounds.append(run_round(workload, first_round + len(rounds), clock,
                                tracer, failures))
    return rounds


def mean_round(rounds):
    """Mean over rounds of the summed op times; rounds hold seconds."""
    return sum(sum(r) for r in rounds) / len(rounds)


def print_metric(name, value, unit, note=""):
    print(f"{name:<46} {value:>14.6g} {unit:<6} {note}".rstrip())


def tail_of(rounds):
    """(level, value) of the op latency tail of rounds of latencies."""
    latencies = [t for r in rounds for t in r]
    if len(latencies) >= TAIL_MIN_OPS:
        return f"p{TAIL_PERCENTILE}", statistics.quantiles(
            latencies, n=100, method="inclusive")[TAIL_PERCENTILE - 1]
    return "median round max", statistics.median(max(r) for r in rounds)


def run_workload(args):
    import clock as clocks
    import tracer as tracing
    import workloads

    work_dir = os.path.join(ROOT, ".bench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(work_dir)
    clock = clocks.Clock()
    failures = []
    try:
        workload = workloads.WORKLOADS[args.workload](work_dir)
        if args.trace:
            workload.setup(args.seed)
            tracing.self_check()
            tracer = tracing.Tracer()
            t0 = time.perf_counter()
            # A warm-up round, then an untraced pass over the first traced
            # round's inputs, so that trace.overhead_s compares the same
            # work with the same warm caches.
            plain = [run_round(workload, r, clock, None, failures)
                     for r in (0, 1)]
            tracer.install()
            try:
                traced = run_phase(workload, 1,
                                   args.seconds - (time.perf_counter() - t0),
                                   clock, tracer, failures)
            finally:
                tracer.restore()
            rounds = plain + traced
        else:
            imports = [clocks.import_ratio(PACKAGE_IMPORT, {"PYTHONPATH": SRC})
                       for _ in range(SETUP_REPS)]
            clock.start()
            try:
                setups = []
                for _ in range(SETUP_REPS):
                    clock.timed(lambda: workload.setup(args.seed))
                    setups.append(clock.last)
                rounds = run_phase(workload, 0, args.seconds, clock, None,
                                   failures)
            finally:
                clock.stop()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work_dir))
        except OSError:
            pass

    attempted = sum(len(r) for r in rounds)
    print(f"workload {args.workload}  seed {args.seed}  rounds {len(rounds)}"
          f"  ops {attempted}  trace {args.trace}")
    for msg in failures:
        print(f"FAILED {msg}", file=sys.stderr)
    print_metric("op_fail_ratio", len(failures) / attempted, "ratio",
                 f"({len(failures)} of {attempted} ops)")

    def wall(rounds):
        return [[interval[2] for interval in r] for r in rounds]

    if args.trace:
        metrics = tracing.layer_metrics(tracer.take(), len(traced))
        metrics["trace.overhead_s"] = (sum(wall(traced)[0])
                                       - sum(wall(plain)[1]))
        units = tracing.PER_LAYER_UNITS
        notes = {}
        print(f"per-layer totals per round, over {len(traced)} traced rounds")
    else:
        cal = [[clock.calibrate(i) for i in r] for r in rounds]
        raw = wall(rounds)
        lat_cal = [t for r in cal for t in r]
        lat_raw = [t for r in raw for t in r]
        level, tail = tail_of(cal)
        beyond = sum(1 for t in lat_cal if t > tail)
        import_s = statistics.median(imports) * clocks.IMPORT_REF_S
        inputs_s = statistics.median(clock.calibrate(i) for i in setups)
        metrics = {
            "setup_s": import_s + inputs_s,
            "wall_s": mean_round(cal),
            "op_p50_ms": statistics.median(lat_cal) * 1e3,
            "op_tail_ms": tail * 1e3,
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = dict(END_TO_END)
        notes = {
            "setup_s": f"(import {import_s:.4g} s + inputs {inputs_s:.4g} s, "
                       f"medians of {SETUP_REPS}; raw inputs "
                       f"{statistics.median(i[2] for i in setups):.4g} s)",
            "wall_s": f"(mean of {len(rounds)} rounds; raw "
                      f"{mean_round(raw):.4g} s)",
            "op_p50_ms": f"(raw {statistics.median(lat_raw) * 1e3:.4g} ms)",
            "op_tail_ms": f"({level} of {attempted} ops, {beyond} beyond; "
                          f"raw {tail_of(raw)[1] * 1e3:.4g} ms)",
        }
        print(f"timings are calibrated to the reference machine speed; "
              f"this run's mean slow-down factor was "
              f"{clock.factor(clock.starts[0], clock.starts[-1]):.3f}")
    metrics = {name: metrics[name] for name in units}
    for name, value in metrics.items():
        print_metric(name, value, units[name], notes.get(name, ""))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }))
    return 1 if failures else 0


def run_all(args, names):
    """Every workload in its own process; one combined JSON line at the end."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in names:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        code = max(code, proc.returncode)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            code = max(code, 1)
            continue
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for k, v in result["metrics"].items():
            combined["metrics"][f"{name}.{k}"] = v
    if code:
        combined["correct"] = False
    print(json.dumps(combined))
    return code


def main():
    import_package()
    import workloads

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=(*workloads.WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.workload == "all":
        return run_all(args, list(workloads.WORKLOADS))
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
