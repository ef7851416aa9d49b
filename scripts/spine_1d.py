"""Analytic benchmark sweep: compare every computed quantity on the scalar
system against its closed forms and write the bound curve to CSV.

Usage: python scripts/spine_1d.py [--p-max 8] [--out spine_1d.csv]
"""

import argparse
import csv

from preview_regret import (
    algorithm1,
    algorithm2,
    algorithm3,
    bound_dp,
    build_1d,
    collaborative,
    max_invariant_set,
    proj_cmax_p,
    refine_certificate,
    true_dp,
)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--p-max", type=int, default=8)
    ap.add_argument("--out", default="spine_1d.csv")
    args = ap.parse_args()

    system, oracle = build_1d()
    C_co, conv = max_invariant_set(collaborative(system), tol=1e-11)
    assert conv
    proj1 = proj_cmax_p(system, 1, tol=1e-11)

    a1 = algorithm1(system, C_co, proj=proj1, p0=1)
    a1r = refine_certificate(system, C_co, a1)
    a2 = algorithm2(system, C_co, proj=proj1, p0=1, N=1)
    ladder = algorithm3(system, C_co, proj1, p0=1, k_max=args.p_max)

    rows = []
    print(" p |  exact regret |  alg1      |  alg1 refined |  alg2      |  ladder")
    for p in range(1, args.p_max + 1):
        exact = oracle.dp(p)
        computed = true_dp(system, p, C_co, tol=1e-11) if 1 + p <= 8 else None
        row = {
            "p": p,
            "oracle_dp": exact,
            "true_dp": computed,
            "bound_alg1": bound_dp(a1, p),
            "bound_alg1_refined": bound_dp(a1r, p),
            "bound_alg2": bound_dp(a2, p),
            "bound_alg3": ladder.distances[p - 1],
        }
        rows.append(row)
        print(f"{p:2d} | {exact:.10f} | {row['bound_alg1']:.6f}   | "
              f"{row['bound_alg1_refined']:.6f}      | "
              f"{row['bound_alg2']:.6f}   | {row['bound_alg3']:.10f}")

    with open(args.out, "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=list(rows[0]))
        w.writeheader()
        w.writerows(rows)
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
