"""Analytic benchmark sweep: the regret table of regret_curve on the scalar
system (tol 1e-11, N = 1, a ladder of --p-max steps) next to the closed-form
regret, as CSV.

Usage: python scripts/spine_1d.py [--p-max 8] [--out spine_1d.csv]
"""

import argparse

from preview_regret import build_1d, regret_curve
from preview_regret.regret import TRUE_DP_DIM_BUDGET
from preview_regret.serialize import write_rows_csv


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--p-max", type=int, default=8)
    ap.add_argument("--out", default="spine_1d.csv")
    args = ap.parse_args()

    system, oracle = build_1d()
    curve = regret_curve(system, p0=1, p_max=args.p_max, N=1,
                         k_max=args.p_max, tol=1e-11)
    assert not curve.failures, curve.failures
    assert all(c.cmax_exact for c in curve.certs.values()), \
        "the limit set or the p = 1 fixed point did not converge"

    rows = []
    print(" p |  exact regret |  alg1      |  alg1 refined |  alg2      |  ladder")
    for r in curve.rows:
        p = r["p"]
        assert r["true_dp"] is not None or 1 + p > TRUE_DP_DIM_BUDGET, \
            f"the fixed point at p={p} did not converge"
        row = {"p": p, "oracle_dp": oracle.dp(p)} | r
        rows.append(row)
        print(f"{p:2d} | {row['oracle_dp']:.10f} | {row['bound_alg1']:.6f}   | "
              f"{row['bound_alg1_refined']:.6f}      | "
              f"{row['bound_alg2']:.6f}   | {row['bound_alg3']:.10f}")

    write_rows_csv(args.out, list(rows[0]), rows)
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
