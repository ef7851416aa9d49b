"""Repeat the benchmark over several seeds and check that it is steady.

    python3 bench/prove.py --seeds 10
    python3 bench/prove.py --seeds 10 --write-baseline

For every workload of BENCHMARK.json and every end-to-end metric this
prints the median, the quartiles and the spread (q3 - q1) / median over the
seeds, next to the metric's bound, and exits 1 unless every spread is below
a third of its bound. --write-baseline also makes traced runs on the first
TRACED_SEEDS seeds and writes bench/baseline.json: the machine, the
end-to-end medians and quartiles, and the medians of the per-layer metrics.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TRACED_SEEDS = 3


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode != 0 or not result["correct"]:
        sys.exit(f"{workload} seed {seed} trace {trace}: run failed")
    return {k: v["value"] for k, v in result["metrics"].items()}


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / q2 if q2 else float("inf")}


def machine():
    import numpy
    import scipy

    def blas(module):
        info = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info['name']} {info['version']}"

    return {
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_numpy": blas(numpy),
        "blas_scipy": blas(scipy),
        "PREVIEW_REGRET_THREADS_set": "PREVIEW_REGRET_THREADS" in os.environ,
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--write-baseline", action="store_true")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    names = [w["name"] for w in bench["workloads"]]
    seeds = range(1, args.seeds + 1)
    traced_seeds = seeds[:TRACED_SEEDS] if args.write_baseline else ()

    # Seed-major order spreads each workload's runs over the whole session,
    # so slow drifts of the machine show in the spread.
    runs = {w: [] for w in names}
    traced = {w: [] for w in names}
    for s in seeds:
        for workload in names:
            runs[workload].append(run_once(workload, s, seconds, 0))
            if s in traced_seeds:
                traced[workload].append(run_once(workload, s, seconds, 1))

    end_to_end, per_layer, steady = {}, {}, True
    for workload in names:
        end_to_end[workload] = {}
        print(f"{workload}: {len(runs[workload])} seeds")
        for metric, bound in bounds.items():
            stats = summarize([r[metric] for r in runs[workload]])
            end_to_end[workload][metric] = {**stats, "unit": units[metric]}
            ok = stats["spread"] < bound / 3
            steady &= ok
            print(f"  {metric:<12} median {stats['median']:12.5g} "
                  f"q1 {stats['q1']:12.5g} q3 {stats['q3']:12.5g} "
                  f"spread {stats['spread']:.4f} bound {bound} "
                  f"{'ok' if ok else 'WIDE'}")
        if traced[workload]:
            per_layer[workload] = {
                m: {"median": statistics.median(r[m] for r in traced[workload]),
                    "unit": units[m]} for m in traced[workload][0]}

    if args.write_baseline:
        doc = {
            "machine": machine(),
            "run_seconds": seconds,
            "seeds": list(seeds),
            "traced_seeds": list(traced_seeds),
            "end_to_end": end_to_end,
            "per_layer": per_layer,
        }
        with open(os.path.join(HERE, "baseline.json"), "w") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
    print("steady" if steady else "NOT steady: a spread exceeds a third of "
          "its bound")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
