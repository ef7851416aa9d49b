"""How the preview MPC's feasible domain grows with the horizon, and how the
certified gap to the infinite-preview limit shrinks.

Usage: python scripts/mpc_horizon_sweep.py [--seed 1] [--p-max 8]
"""

import argparse

from preview_regret import (
    algorithm3,
    bound_dp,
    build_2d_random,
    collaborative,
    feasible_domain,
    max_invariant_set,
    terminal_set_certificate,
)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--p-max", type=int, default=8)
    args = ap.parse_args()

    system = build_2d_random(args.seed)
    C, conv = max_invariant_set(system, tol=1e-9)
    assert conv
    if C.is_empty():
        raise SystemExit(f"seed {args.seed}: no robust invariant set without "
                         "preview; pick another seed")
    C_co, conv = max_invariant_set(collaborative(system), tol=1e-9)
    assert conv
    feasible_domain(system, C, p=1)  # raises unless C is robustly invariant
    cert = terminal_set_certificate(system, C, C_co)
    print(f"terminal anchor: lambda0={cert.lambda0:.4f} "
          f"gamma={cert.gamma:.4f} N={cert.N}")

    # the feasible-domain projection at horizon p is the p-th rung of the
    # ladder from C; past its convergence the gap stays 0
    report = algorithm3(system, C_co, C, p0=0, k_max=args.p_max)
    print(" p | measured gap | certified bound")
    for p in range(1, args.p_max + 1):
        gap = report.distances[p] if p < len(report.distances) else 0.0
        print(f"{p:2d} | {gap:.8f}   | {bound_dp(cert, p):.8f}")


if __name__ == "__main__":
    main()
