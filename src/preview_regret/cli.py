"""Command-line front end.

Subcommands: rcis (invariant sets), regret (decay certificates and bound
curves), mpc (feasible domains and closed-loop runs), demo-1d (the built-in
analytic benchmark). Exit codes are a stable contract: 0 success, 2 input
error, 3 assumptions unverifiable, 4 budget or iteration limit exceeded.
"""

import argparse
import json
import math
import sys as _sys
import numpy as np

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_ASSUMPTION = 3
EXIT_BUDGET = 4


def _write_json(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def cmd_rcis(args) -> int:
    from .invariance import max_invariant_set
    from .serialize import SCHEMA_VERSION, load_system, polytope_to_json
    from .systems import augment, collaborative

    system = load_system(args.system)
    n_aug = system.n + args.preview * system.l
    if n_aug > args.dim_budget:
        print(f"error: preview {args.preview} needs dimension {n_aug} > "
              f"budget {args.dim_budget}", file=_sys.stderr)
        return EXIT_BUDGET
    if args.collaborative:
        target = collaborative(augment(system, args.preview))
        label = f"maximal CIS of the collaborative {args.preview}-preview system"
    else:
        target = augment(system, args.preview)
        label = f"maximal RCIS at preview {args.preview}"
    C, converged = max_invariant_set(target, tol=args.tol,
                                     max_iter=args.max_iter)
    doc = {
        "schema": SCHEMA_VERSION,
        "kind": label,
        "preview": args.preview,
        "collaborative": bool(args.collaborative),
        "converged": converged,
        "tol": args.tol,
        "max_iter": args.max_iter,
        "empty": C.is_empty(),
        "rows": C.num_rows,
        "polytope": polytope_to_json(C),
    }
    _write_json(args.out, doc)
    print(f"{label}: rows={C.num_rows} converged={converged} -> {args.out}")
    if not converged:
        print("warning: iteration limit hit; the result is an outer "
              "approximation", file=_sys.stderr)
        return EXIT_BUDGET
    return EXIT_OK


def cmd_regret(args) -> int:
    from .regret import regret_curve
    from .serialize import (
        REGRET_FIELDS,
        certificate_to_json,
        ellipsoid_to_json,
        load_system,
        report_to_json,
        write_rows_csv,
    )

    system = load_system(args.system)
    methods = {"1": ["alg1"], "1r": ["alg1_refined"], "2": ["alg2"],
               "3": ["alg3"],
               "all": ["alg1", "alg1_refined", "alg2", "alg3"]}[args.alg]
    curve = regret_curve(system, p0=args.p0, p_max=args.p_max,
                         methods=methods, N=args.N, k_max=args.kmax,
                         tol=args.tol, dim_budget=args.dim_budget)
    certs, report, failures = curve.certs, curve.report, curve.failures

    write_rows_csv(args.out, REGRET_FIELDS, curve.rows)
    stem = args.out[:-4] if args.out.endswith(".csv") else args.out
    for name, cert in certs.items():
        path = f"{stem}_{name}.cert.json"
        _write_json(path, certificate_to_json(cert))
        if cert.ellipsoid is not None:
            _write_json(f"{stem}_{name}.ellipsoid.json",
                        ellipsoid_to_json(cert.ellipsoid))
        print(f"{name}: lambda0={cert.lambda0:.4f} gamma={cert.gamma:.4f} "
              f"N={cert.N} lambda={cert.lam:.4g} -> {path}")
    if report is not None:
        path = f"{stem}_alg3.report.json"
        _write_json(path, report_to_json(report, args.p0))
        pb = "inf" if math.isinf(report.p_bar) else str(report.p_bar)
        print(f"alg3: p_bar={pb} ladder={len(report.ladder)} -> {path}")
    for name, msg in failures.items():
        print(f"{name}: not certified ({msg})", file=_sys.stderr)
    print(f"bound curve -> {args.out}")
    if failures and not certs and report is None:
        return EXIT_ASSUMPTION
    return EXIT_OK


def cmd_mpc(args) -> int:
    from .invariance import max_invariant_set
    from .mpc import MpcConfig, TerminalSetError, mpc_curve, simulate_closed_loop
    from .serialize import (
        BOUND_CURVE_FIELDS,
        SCHEMA_VERSION,
        certificate_to_json,
        load_json,
        load_scenario,
        load_system,
        polytope_from_json,
        polytope_to_json,
        write_rows_csv,
        write_trajectory_csv,
    )
    from .solver import TAU_SWEEP, project_point

    system = load_system(args.system)
    # one generator: the streams are drawn first, the initial states after
    rng = np.random.default_rng(args.seed)
    # a bad scenario file fails before any output, with or without --simulate
    streams = load_scenario(args.scenario, system.D, args.simulate + args.p,
                            args.streams if args.simulate else 0, rng)
    if args.terminal == "auto":
        # at most TAU_SWEEP, so that the set passes the check at TAU_CHECK
        C, conv = max_invariant_set(system, tol=min(args.tol, TAU_SWEEP))
        if C.is_empty():
            print("error: the system has no robust invariant set in the safe "
                  "set; cannot pick a terminal set", file=_sys.stderr)
            return EXIT_ASSUMPTION
        if not conv:
            print("warning: iteration limit hit; the result is an outer "
                  "approximation", file=_sys.stderr)
            return EXIT_BUDGET
    else:
        C = polytope_from_json(load_json(args.terminal), "terminal")
    try:
        curve = mpc_curve(system, C, args.p, args.curve_max, args.tol)
    except TerminalSetError as exc:
        advice = ""
        if exc.witness is not None and args.terminal != "auto":
            # a terminal file that is empty, bounded and of the right
            # dimension, but not robustly invariant
            advice = (". A set from `rcis` at its default --tol 1e-6 may stop "
                      "short of that; write it with `rcis --tol 1e-8`")
        print(f"error: {exc}{advice}", file=_sys.stderr)
        return EXIT_INPUT

    prefix = args.out
    _write_json(f"{prefix}_domain.json", {
        "schema": SCHEMA_VERSION,
        "p": args.p,
        "projection": polytope_to_json(curve.domain),
    })
    if curve.failure is not None:
        # as in regret, where these leave a method "not certified"
        print(f"assumptions unverifiable: {curve.failure}", file=_sys.stderr)
        return EXIT_ASSUMPTION
    _write_json(f"{prefix}_cert.json", certificate_to_json(curve.cert))
    write_rows_csv(f"{prefix}_bounds.csv", BOUND_CURVE_FIELDS, curve.rows)

    if args.simulate > 0:
        cfg = MpcConfig(p=args.p, C=C)
        bad = 0
        for k, stream in enumerate(streams):
            x0, _ = project_point(
                rng.uniform(-1.0, 1.0, size=system.n), C)
            log = simulate_closed_loop(system, cfg, x0, stream, args.simulate)
            write_trajectory_csv(f"{prefix}_traj_{k:03d}.csv", log,
                                 system.n, system.m, system.l)
            bad += sum(0 if rec["feasible"] else 1 for rec in log)
        print(f"simulated {len(streams)} streams x {args.simulate} steps; "
              f"infeasible steps: {bad}")
    print(f"feasible domain rows={curve.domain.num_rows} -> "
          f"{prefix}_domain.json; certificate -> {prefix}_cert.json")
    return EXIT_OK


def cmd_demo_1d(args) -> int:
    from .models import build_1d
    from .polytope import support
    from .regret import regret_curve
    from .solver import TAU_DEMO, TAU_DEMO_MATCH
    from .systems import AssumptionError

    system, oracle = build_1d()
    curve = regret_curve(system, p0=1, p_max=6, methods=("alg2", "alg3"),
                         N=1, k_max=10, tol=TAU_DEMO)
    if curve.failures:
        raise AssumptionError("; ".join(curve.failures.values()))
    r = support(curve.C_max_co, [1.0])
    checks = [("limit set radius", r, oracle.cmax_co_radius())]
    for row in curve.rows:
        want = oracle.dp(row["p"])
        checks += [(f"p={row['p']} true d_p", row["true_dp"], want),
                   (f"p={row['p']} certified bound", row["bound_alg2"], want)]
    for what, got, want in checks:
        if got is None or not abs(got - want) <= TAU_DEMO_MATCH:
            raise AssumptionError(
                f"demo-1d: {what} is {got!r}, the closed form {want!r}; "
                f"they differ by more than {TAU_DEMO_MATCH:g}")
    print(f"limit set radius: computed {r:.12f}  closed form "
          f"{oracle.cmax_co_radius():.12f}")
    cert = curve.certs["alg2"]
    print(f"certificate: lambda0={cert.lambda0:.6f} gamma={cert.gamma:.6f}")
    print(" p |   true d_p   |  certified bound |  ladder")
    for row in curve.rows:
        t = math.nan if row["true_dp"] is None else row["true_dp"]
        print(f"{row['p']:2d} | {t:.10f} | {row['bound_alg2']:.10f}    | "
              f"{row['bound_alg3']:.10f}")
    print("certified bound meets the exact regret on this system")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    from .regret import TRUE_DP_DIM_BUDGET
    from .solver import FIXED_POINT_MAX_ITER, LADDER_K_MAX, TAU_SET, TAU_SWEEP

    ap = argparse.ArgumentParser(
        prog="preview-regret",
        description="Invariant sets and safety-regret certificates for "
                    "linear systems with disturbance preview")
    sub = ap.add_subparsers(dest="command", required=True)

    p_rcis = sub.add_parser("rcis", help="maximal (robust) invariant sets")
    p_rcis.add_argument("system", help="system JSON file")
    p_rcis.add_argument("--preview", type=int, default=0, metavar="P")
    p_rcis.add_argument("--collaborative", action="store_true",
                        help="treat the disturbance as a second input")
    p_rcis.add_argument("--max-iter", type=int, default=FIXED_POINT_MAX_ITER)
    p_rcis.add_argument("--tol", type=float, default=TAU_SET)
    p_rcis.add_argument("--dim-budget", type=int, default=10)
    p_rcis.add_argument("--out", default="rcis.json")
    p_rcis.set_defaults(func=cmd_rcis)

    p_reg = sub.add_parser("regret", help="safety-regret bounds and curves")
    p_reg.add_argument("system")
    p_reg.add_argument("--p0", type=int, default=1)
    p_reg.add_argument("--p-max", type=int, default=8)
    p_reg.add_argument("--alg", choices=["1", "1r", "2", "3", "all"],
                       default="all")
    p_reg.add_argument("--N", type=int, default=None,
                       help="step size for the controllable-system method")
    p_reg.add_argument("--kmax", type=int, default=LADDER_K_MAX)
    p_reg.add_argument("--tol", type=float, default=TAU_SWEEP)
    p_reg.add_argument("--dim-budget", type=int, default=TRUE_DP_DIM_BUDGET)
    p_reg.add_argument("--out", default="regret.csv")
    p_reg.set_defaults(func=cmd_regret)

    p_mpc = sub.add_parser("mpc", help="preview MPC feasible domains")
    p_mpc.add_argument("system")
    p_mpc.add_argument("--terminal", default="auto",
                       help="terminal-set polytope JSON, or 'auto'")
    p_mpc.add_argument("--p", type=int, default=2)
    p_mpc.add_argument("--curve-max", type=int, default=10)
    p_mpc.add_argument("--simulate", type=int, default=0, metavar="T")
    p_mpc.add_argument("--streams", type=int, default=5)
    p_mpc.add_argument("--scenario", default=None,
                       help="disturbance scenario JSON")
    p_mpc.add_argument("--seed", type=int, default=0)
    p_mpc.add_argument("--tol", type=float, default=TAU_SWEEP)
    p_mpc.add_argument("--out", default="mpc")
    p_mpc.set_defaults(func=cmd_mpc)

    p_demo = sub.add_parser("demo-1d", help="analytic benchmark walkthrough")
    p_demo.set_defaults(func=cmd_demo_1d)
    return ap


def main(argv=None) -> int:
    from .polytope import BudgetExceededError
    from .serialize import SchemaError
    from .systems import AssumptionError

    ap = build_parser()
    args = ap.parse_args(argv)
    # --p-max may not be below --p0, which is checked first
    for dest, least in (("preview", 0), ("max_iter", 0), ("p0", 0),
                        ("p_max", getattr(args, "p0", 0)), ("kmax", 0),
                        ("N", 1), ("p", 1), ("curve_max", 0), ("simulate", 0),
                        ("streams", 0), ("dim_budget", 1)):
        value = getattr(args, dest, None)
        if value is not None and value < least:
            print(f"input error: --{dest.replace('_', '-')} must be at least "
                  f"{least}, got {value}", file=_sys.stderr)
            return EXIT_INPUT
    tol = getattr(args, "tol", 0.0)
    if not (math.isfinite(tol) and tol >= 0.0):
        print(f"input error: --tol must be a finite number at least 0, got "
              f"{tol}", file=_sys.stderr)
        return EXIT_INPUT
    try:
        return args.func(args)
    except SchemaError as exc:
        print(f"input error: {exc}", file=_sys.stderr)
        return EXIT_INPUT
    except FileNotFoundError as exc:
        print(f"input error: {exc}", file=_sys.stderr)
        return EXIT_INPUT
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=_sys.stderr)
        return EXIT_BUDGET
    except AssumptionError as exc:
        print(f"assumptions unverifiable: {exc}", file=_sys.stderr)
        return EXIT_ASSUMPTION


if __name__ == "__main__":
    raise SystemExit(main())
