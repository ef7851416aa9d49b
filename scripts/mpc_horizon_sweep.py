"""How the preview MPC's feasible domain grows with the horizon, and how the
certified gap to the infinite-preview limit shrinks.

Usage: python scripts/mpc_horizon_sweep.py [--seed 1] [--p-max 8]
"""

import argparse

from preview_regret import build_2d_random, max_invariant_set, mpc_curve


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
    # mpc_curve raises unless C is robustly invariant
    curve = mpc_curve(system, C, 1, args.p_max, 1e-9)
    cert = curve.cert
    assert cert is not None and cert.cmax_exact, curve.failure
    print(f"terminal anchor: lambda0={cert.lambda0:.4f} "
          f"gamma={cert.gamma:.4f} N={cert.N}")

    print(" p | measured gap | certified bound")
    for row in curve.rows[1:args.p_max + 1]:
        print(f"{row['p']:2d} | {row['measured_gap']:.8f}   | "
              f"{row['bound_dp']:.8f}")


if __name__ == "__main__":
    main()
