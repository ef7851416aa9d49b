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
    from .systems import augment, collaborative, collaborative_augmented

    system = load_system(args.system)
    n_aug = system.n + args.preview * system.l
    if n_aug > args.dim_budget:
        print(f"error: preview {args.preview} needs dimension {n_aug} > "
              f"budget {args.dim_budget}", file=_sys.stderr)
        return EXIT_BUDGET
    if args.collaborative:
        target = collaborative_augmented(system, args.preview) \
            if args.preview else collaborative(system)
        label = f"maximal CIS of the collaborative {args.preview}-preview system"
    else:
        target = augment(system, args.preview) if args.preview else system
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


def _regret_pipeline(args, system):
    from .invariance import max_invariant_set
    from .polytope import BudgetExceededError, project
    from .regret import (
        NotControllableError,
        _preview_gap,
        algorithm1,
        algorithm2,
        algorithm3,
        bound_dp,
        refine_certificate,
        true_dp,
    )
    from .systems import AssumptionError, augment, collaborative

    C_co, conv_co = max_invariant_set(collaborative(system), tol=args.tol)
    if C_co.is_empty():
        raise AssumptionError("the collaborative system has an empty maximal "
                              "invariant set; nothing to certify")
    p0 = args.p0
    base = augment(system, p0) if p0 else system
    C_p0, conv_p0 = max_invariant_set(base, tol=args.tol)
    if C_p0.is_empty():
        raise AssumptionError(f"the {p0}-preview system has an empty maximal "
                              "invariant set; try a larger --p0")
    proj = project(C_p0, system.n)
    exact = conv_co and conv_p0

    wanted = {"1": ["alg1"], "1r": ["alg1_refined"], "2": ["alg2"],
              "3": ["alg3"],
              "all": ["alg1", "alg1_refined", "alg2", "alg3"]}[args.alg]
    certs = {}
    report = None
    failures = {}
    for name in wanted:
        try:
            if name == "alg1":
                certs[name] = algorithm1(system, C_co, proj, p0=p0,
                                         cmax_exact=exact)
            elif name == "alg1_refined":
                if "alg1" in failures:
                    failures[name] = failures["alg1"]
                    continue
                plain = certs["alg1"] if "alg1" in certs else algorithm1(
                    system, C_co, proj, p0=p0, cmax_exact=exact)
                certs[name] = refine_certificate(system, C_co, plain)
            elif name == "alg2":
                certs[name] = algorithm2(system, C_co, proj, p0=p0,
                                         N=args.N, cmax_exact=exact)
            elif name == "alg3":
                report = algorithm3(system, C_co, proj, p0=p0, k_max=args.kmax)
        except (AssumptionError, NotControllableError, ValueError) as exc:
            failures[name] = str(exc)

    ps = list(range(p0, args.p_max + 1))

    def compute_true(p):
        try:
            # the p0 set is already projected; over the dimension
            # budget, true_dp raises before it would compute a fixed point
            if p == p0 and conv_p0 and base.n <= args.dim_budget:
                return _preview_gap(p, proj, C_co)
            return true_dp(system, p, C_co, tol=args.tol,
                           dim_budget=args.dim_budget)
        except BudgetExceededError:
            return None

    rows = []
    p_bar = report.p_bar if report is not None else None
    for p in ps:
        row = {"p": p, "true_dp": compute_true(p)}
        for name, col in (("alg1", "bound_alg1"),
                          ("alg1_refined", "bound_alg1_refined"),
                          ("alg2", "bound_alg2")):
            if name in certs:
                row[col] = bound_dp(certs[name], p)
        if report is not None and p - p0 < len(report.distances):
            row["bound_alg3"] = report.distances[p - p0]
        elif report is not None and math.isfinite(p_bar):
            row["bound_alg3"] = 0.0  # the ladder closed: no gap from p_bar on
        if p_bar is not None:
            row["p_bar"] = float(p_bar)
        rows.append(row)
    return certs, report, failures, rows


def cmd_regret(args) -> int:
    from .serialize import (
        certificate_to_json,
        load_system,
        report_to_json,
        write_regret_csv,
    )
    from .systems import AssumptionError

    system = load_system(args.system)
    try:
        certs, report, failures, rows = _regret_pipeline(args, system)
    except AssumptionError as exc:
        print(f"assumptions unverifiable: {exc}", file=_sys.stderr)
        return EXIT_ASSUMPTION

    write_regret_csv(args.out, rows)
    stem = args.out[:-4] if args.out.endswith(".csv") else args.out
    for name, cert in certs.items():
        path = f"{stem}_{name}.cert.json"
        _write_json(path, certificate_to_json(cert))
        if cert.ellipsoid is not None:
            from .serialize import ellipsoid_to_json

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
    from .mpc import (
        MpcConfig,
        TerminalSetError,
        feasible_domain,
        simulate_closed_loop,
        terminal_set_certificate,
    )
    from .regret import algorithm3, bound_dp
    from .serialize import (
        SCHEMA_VERSION,
        certificate_to_json,
        load_scenario,
        load_system,
        polytope_from_json,
        polytope_to_json,
        write_bound_curve_csv,
        write_trajectory_csv,
    )
    from .systems import AssumptionError, collaborative
    from .solver import project_point

    system = load_system(args.system)
    if args.terminal == "auto":
        C, conv = max_invariant_set(system, tol=args.tol)
        if C.is_empty():
            print("error: the system has no robust invariant set in the safe "
                  "set; cannot pick a terminal set", file=_sys.stderr)
            return EXIT_ASSUMPTION
        if not conv:
            print("warning: iteration limit hit; the result is an outer "
                  "approximation", file=_sys.stderr)
            return EXIT_BUDGET
    else:
        with open(args.terminal) as fh:
            C = polytope_from_json(json.load(fh), "terminal")
    try:
        dom = feasible_domain(system, C, p=args.p)
    except TerminalSetError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_INPUT

    prefix = args.out
    _write_json(f"{prefix}_domain.json", {
        "schema": SCHEMA_VERSION,
        "p": args.p,
        "projection": polytope_to_json(dom.projection),
    })

    C_co, conv_co = max_invariant_set(collaborative(system), tol=args.tol)
    try:
        cert = terminal_set_certificate(system, C, C_co, cmax_exact=conv_co)
    except AssumptionError as exc:
        print(f"assumptions unverifiable: {exc}", file=_sys.stderr)
        return EXIT_ASSUMPTION
    _write_json(f"{prefix}_cert.json", certificate_to_json(cert))

    p_max = max(args.p, args.curve_max)
    gaps = algorithm3(system, C_co, C, p0=0, k_max=p_max).distances
    # the ladder stops once it contains the limit set
    curve = [{"p": p, "bound_dp": bound_dp(cert, p),
              "measured_gap": gaps[p] if p < len(gaps) else 0.0}
             for p in range(0, p_max + 1)]
    write_bound_curve_csv(f"{prefix}_bounds.csv", curve)

    if args.simulate > 0:
        streams = load_scenario(args.scenario, system.D, args.simulate + args.p,
                                args.streams, args.seed)
        rng = np.random.default_rng(args.seed)
        cfg = MpcConfig(p=args.p, C=C)
        bad = 0
        for k, stream in enumerate(streams):
            x0, _ = project_point(
                rng.uniform(-1.0, 1.0, size=system.n), C)
            log = simulate_closed_loop(system, cfg, x0, stream,
                                       T=args.simulate)
            write_trajectory_csv(f"{prefix}_traj_{k:03d}.csv", log,
                                 system.n, system.m, system.l)
            bad += sum(0 if rec["feasible"] else 1 for rec in log)
        print(f"simulated {len(streams)} streams x {args.simulate} steps; "
              f"infeasible steps: {bad}")
    print(f"feasible domain rows={dom.projection.num_rows} -> "
          f"{prefix}_domain.json; certificate -> {prefix}_cert.json")
    return EXIT_OK


def cmd_demo_1d(args) -> int:
    from .invariance import max_invariant_set
    from .models import build_1d
    from .polytope import support
    from .regret import algorithm2, algorithm3, bound_dp, proj_cmax_p, true_dp
    from .systems import collaborative

    system, oracle = build_1d()
    C_co, _ = max_invariant_set(collaborative(system), tol=1e-10)
    r = support(C_co, [1.0])
    print(f"limit set radius: computed {r:.12f}  closed form "
          f"{oracle.cmax_co_radius():.12f}")
    proj1 = proj_cmax_p(system, 1, tol=1e-10)
    cert = algorithm2(system, C_co, proj1, p0=1, N=1)
    print(f"certificate: lambda0={cert.lambda0:.6f} gamma={cert.gamma:.6f}")
    report = algorithm3(system, C_co, proj1, p0=1, k_max=10)
    print(" p |   true d_p   |  certified bound |  ladder")
    for p in range(1, 7):
        t = true_dp(system, p, C_co, tol=1e-10)
        b = bound_dp(cert, p)
        lad = report.distances[p - 1]
        print(f"{p:2d} | {t:.10f} | {b:.10f}    | {lad:.10f}")
    print("certified bound meets the exact regret on this system")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
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
    p_rcis.add_argument("--max-iter", type=int, default=200)
    p_rcis.add_argument("--tol", type=float, default=1e-6)
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
    p_reg.add_argument("--kmax", type=int, default=50)
    p_reg.add_argument("--tol", type=float, default=1e-8)
    p_reg.add_argument("--dim-budget", type=int, default=8)
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
    p_mpc.add_argument("--tol", type=float, default=1e-8)
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
