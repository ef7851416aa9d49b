"""Regret-bound comparison on the seeded planar instance: all certification
methods against the directly computed regret, as CSV.

Usage: python scripts/bounds_2d.py [--seed 0] [--p-max 6] [--out bounds_2d.csv]
"""

import argparse
import csv
import math
import time
from itertools import islice

from preview_regret import (
    algorithm1,
    algorithm2,
    algorithm3,
    augment,
    bound_dp,
    build_2d_random,
    collaborative,
    hausdorff_nested,
    max_invariant_set,
    preview_sweep,
    project,
    refine_certificate,
)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--p-max", type=int, default=6)
    ap.add_argument("--N-coarse", type=int, default=8)
    ap.add_argument("--out", default="bounds_2d.csv")
    args = ap.parse_args()

    t0 = time.time()
    system = build_2d_random(args.seed)
    C_co, conv = max_invariant_set(collaborative(system), tol=1e-9)
    assert conv, "the limit set did not converge"
    C_1, conv = max_invariant_set(augment(system, 1), tol=1e-9)
    assert conv
    proj1 = project(C_1, system.n)

    alg1 = algorithm1(system, C_co, proj1, p0=1)
    certs = {
        "alg1": alg1,
        "alg1_refined": refine_certificate(system, C_co, alg1),
        "alg2_N1": algorithm2(system, C_co, proj1, p0=1, N=1),
        f"alg2_N{args.N_coarse}": algorithm2(system, C_co, proj1, p0=1,
                                             N=args.N_coarse),
    }
    ladder = algorithm3(system, C_co, proj1, p0=1, k_max=args.p_max)
    pb = "inf" if math.isinf(ladder.p_bar) else str(ladder.p_bar)
    print(f"seed {args.seed}: ladder p_bar = {pb}")
    for name, cert in certs.items():
        print(f"{name}: lambda0={cert.lambda0:.4f} gamma={cert.gamma:.4f} "
              f"N={cert.N} lambda={cert.lam:.4g}")

    rows = []
    for p, proj, conv in islice(preview_sweep(system, 1, tol=1e-8), args.p_max):
        assert conv, f"the fixed point at p={p} did not converge"
        row = {"p": p, "true_dp": hausdorff_nested(proj, C_co)}
        for name, cert in certs.items():
            row[name] = bound_dp(cert, p)
        row["ladder"] = ladder.distances[p - 1]
        rows.append(row)
    with open(args.out, "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=list(rows[0]))
        w.writeheader()
        w.writerows(rows)
    print(f"wrote {args.out} in {time.time() - t0:.1f}s")


if __name__ == "__main__":
    main()
