"""Regret-bound comparison on the seeded planar instance: the regret table
of regret_curve (tol 1e-9, N = 1, a ladder of --p-max steps) plus Algorithm
2 at a coarse step size on the same sets, as CSV.

Usage: python scripts/bounds_2d.py [--seed 0] [--p-max 6] [--N-coarse 8]
                                   [--out bounds_2d.csv]
"""

import argparse
import math
import time

from preview_regret import algorithm2, bound_dp, build_2d_random, regret_curve
from preview_regret.serialize import write_rows_csv


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--p-max", type=int, default=6)
    ap.add_argument("--N-coarse", type=int, default=8)
    ap.add_argument("--out", default="bounds_2d.csv")
    args = ap.parse_args()

    t0 = time.time()
    system = build_2d_random(args.seed)
    # every horizon up to --p-max gets its true_dp, whatever its dimension
    curve = regret_curve(system, p0=1, p_max=args.p_max, N=1,
                         k_max=args.p_max, tol=1e-9,
                         dim_budget=system.n + args.p_max * system.l)
    assert not curve.failures, curve.failures
    assert all(c.cmax_exact for c in curve.certs.values()), \
        "the limit set or the p = 1 fixed point did not converge"
    coarse = f"alg2_N{args.N_coarse}"
    certs = {**curve.certs,
             coarse: algorithm2(system, curve.C_max_co, curve.proj, p0=1,
                                N=args.N_coarse)}
    p_bar = curve.report.p_bar
    print(f"seed {args.seed}: ladder p_bar = "
          f"{'inf' if math.isinf(p_bar) else p_bar}")
    for name, cert in certs.items():
        print(f"{name}: lambda0={cert.lambda0:.4f} gamma={cert.gamma:.4f} "
              f"N={cert.N} lambda={cert.lam:.4g}")

    rows = curve.rows
    for row in rows:
        assert row["true_dp"] is not None, \
            f"the fixed point at p={row['p']} did not converge"
        row[f"bound_{coarse}"] = bound_dp(certs[coarse], row["p"])
    write_rows_csv(args.out, list(rows[0]), rows)
    print(f"wrote {args.out} in {time.time() - t0:.1f}s")


if __name__ == "__main__":
    main()
