"""The benchmark's three workloads.

Each workload builds what all its rounds share in ``setup`` and then hands
out rounds of ops, with inputs drawn from the workload seed and the round
number: a fresh row permutation or fresh streams each round, so that a run
averages over several of them. An op is ``(label, run, check)``: ``run()``
calls a public entry point of the package, looked up on its module at
call time so that the tracer sees it, and is the only timed part;
``check(result)`` returns None when the output passes the workload's
correctness gate, else a message. The package only ever receives the
generated inputs: system JSON files, disturbance streams and initial
states.
"""

import contextlib
import csv
import io
import json
import math
import os

import numpy as np

from preview_regret import cli, models, mpc
from preview_regret.invariance import max_invariant_set
from preview_regret.mpc import MpcConfig, feasible_domain, sample_disturbances
from preview_regret.polytope import (
    TAU_SET,
    HPolytope,
    bounding_box,
    scale,
    set_equal,
)
from preview_regret.serialize import polytope_from_json, system_to_json
from preview_regret.systems import LinearSystem

REF_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "ref")
REGRET_CELLS = os.path.join(REF_DIR, "regret_cells.json")


def permute_rows(system, rng):
    """The same system with the rows of S_xu and D in a seeded order."""
    pS = rng.permutation(system.S_xu.num_rows)
    pD = rng.permutation(system.D.num_rows)
    return LinearSystem(system.A, system.B, system.E,
                        HPolytope(system.D.H[pD], system.D.h[pD]),
                        HPolytope(system.S_xu.H[pS], system.S_xu.h[pS]))


def write_system(path, system):
    with open(path, "w") as fh:
        json.dump(system_to_json(system), fh)


def run_cli(argv):
    """cli.main with its console output captured; returns (code, output)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


class RegretSweep:
    """`regret --p-max 6` (defaults --alg all --p0 1) on the 1D oracle system
    and on planar instances, with the rows of S_xu and D permuted by the
    seed and the round; one op is one CLI invocation."""

    name = "regret-sweep"
    # The CLI computes horizons on a thread pool, so the clock must not run
    # its probe inside an op (see clock.Clock.timed).
    threaded = True
    INSTANCES = (0, 1, 2, 3)
    P_MAX = 6

    def __init__(self, work_dir):
        self.work_dir = work_dir

    @classmethod
    def systems(cls):
        """(label, system) of every instance, rows in their built order."""
        return ([("1d", models.build_1d()[0])]
                + [(f"2d-{i}", models.build_2d_random(i))
                   for i in cls.INSTANCES])

    def setup(self, seed):
        self.seed = seed
        self.oracle = models.build_1d()[1]
        self.inputs = self.systems()
        with open(REGRET_CELLS) as fh:
            self.cells = json.load(fh)

    def _path(self, label, suffix):
        return os.path.join(self.work_dir, f"regret-{label}{suffix}")

    def round_ops(self, r):
        rng = np.random.default_rng([self.seed, 0, r])
        ops = []
        for label, system in self.inputs:
            write_system(self._path(label, ".json"), permute_rows(system, rng))
            out = self._path(label, ".csv")
            argv = ["regret", self._path(label, ".json"),
                    "--p-max", str(self.P_MAX), "--out", out]
            ops.append((label, lambda argv=argv: run_cli(argv),
                        lambda res, out=out, label=label:
                        self._check(res, out, label)))
        return ops

    def _check(self, res, out, label):
        """The cells of the reference run are all filled and finite, every
        bound is sound, and the 1D true_dp is the closed form."""
        code, text = res
        if code != 0:
            return f"exit code {code}: {text.strip()[-300:]}"
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        if [int(row["p"]) for row in rows] != list(range(1, self.P_MAX + 1)):
            return "bound curve does not cover p = 1..p_max"
        for col, ps in self.cells[label].items():
            for p in ps:
                cell = rows[p - 1].get(col) or ""
                if cell == "" or not math.isfinite(float(cell)):
                    return (f"{col} at p={p} is {cell!r}; the reference run "
                            f"gave a finite value")
        for row in rows:
            true = float(row["true_dp"])
            for col, cell in row.items():
                if col.startswith("bound_") and cell != "":
                    if float(cell) < true - 1e-6:
                        return (f"unsound {col} at p={row['p']}: "
                                f"{cell} < true_dp {true!r}")
            if label == "1d":
                want = self.oracle.dp(int(row["p"]))
                if abs(true - want) > 1e-8:
                    return (f"true_dp at p={row['p']} is {true!r}, "
                            f"closed form {want!r}")
        return None


def filled_cells(csv_path):
    """{column: [p, ...]} of the true_dp and bound_* cells of a bound curve
    that hold a finite number."""
    with open(csv_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    cells = {}
    for row in rows:
        for col, cell in row.items():
            if ((col == "true_dp" or col.startswith("bound_")) and cell != ""
                    and math.isfinite(float(cell))):
                cells.setdefault(col, []).append(int(row["p"]))
    return cells


class RcisTemplates:
    """`rcis --preview P` on the biped and wind-turbine templates, with the
    rows of S_xu and D permuted by the seed and the round; one op is one CLI
    invocation."""

    name = "rcis-templates"
    threaded = False
    CASES = (("biped", (1, 2, 3)), ("wind_turbine", (1, 2, 3, 4)))

    def __init__(self, work_dir):
        self.work_dir = work_dir

    def setup(self, seed):
        self.seed = seed
        self.systems = {}
        self.refs = {}
        for template, previews in self.CASES:
            self.systems[template] = models.build_template(template)[0]
            for P in previews:
                self.refs[template, P] = load_reference(template, P)

    def _path(self, label, suffix):
        return os.path.join(self.work_dir, f"rcis-{label}{suffix}")

    def round_ops(self, r):
        rng = np.random.default_rng([self.seed, 1, r])
        ops = []
        for template, previews in self.CASES:
            write_system(self._path(template, ".json"),
                         permute_rows(self.systems[template], rng))
            for P in previews:
                out = self._path(f"{template}-p{P}", ".json")
                argv = ["rcis", self._path(template, ".json"),
                        "--preview", str(P), "--out", out]
                ref = self.refs[template, P]
                ops.append((f"{template}-p{P}",
                            lambda argv=argv: run_cli(argv),
                            lambda res, out=out, ref=ref:
                            self._check(res, out, ref)))
        return ops

    @staticmethod
    def _check(res, out, ref):
        code, text = res
        if code != 0:
            return f"exit code {code}: {text.strip()[-300:]}"
        with open(out) as fh:
            doc = json.load(fh)
        if doc["converged"] is not True:
            return "fixed point did not converge"
        C = polytope_from_json(doc["polytope"])
        if not set_equal(C, ref, tol=TAU_SET):
            return "set differs from the stored reference"
        return None


def reference_path(template, P):
    return os.path.join(REF_DIR, f"{template}_p{P}.json")


def load_reference(template, P):
    with open(reference_path(template, P)) as fh:
        return polytope_from_json(json.load(fh))


class MpcLoop:
    """Closed-loop preview MPC; one op is one disturbance stream of T steps.

    Each round runs a fixed number of streams per case, with fresh streams
    and initial states drawn from the seed and the round number.
    """

    name = "mpc-loop"
    threaded = False
    T = 20
    # (label, system builder, preview, streams per round)
    CASES = (("2d-1", lambda: models.build_2d_random(1), 2, 24),
             ("wind_turbine", lambda: models.build_template("wind_turbine")[0],
              4, 8))

    def __init__(self, work_dir):
        self.work_dir = work_dir

    def setup(self, seed):
        self.seed = seed
        self.cases = []
        for label, build, p, count in self.CASES:
            system = build()
            C, converged = max_invariant_set(system, tol=1e-9)
            if not converged or C.is_empty():
                raise RuntimeError(f"{label}: no terminal set")
            dom = feasible_domain(system, C, p)
            inner = scale(C, 0.98)
            self.cases.append((label, system, MpcConfig(p=p, C=C), dom,
                               inner, bounding_box(inner), count))

    def round_ops(self, r):
        rng = np.random.default_rng([self.seed, 2, r])
        ops = []
        for label, system, cfg, dom, inner, box, count in self.cases:
            for _ in range(count):
                stream = sample_disturbances(system.D, self.T + cfg.p, rng)
                x0 = None
                while x0 is None:
                    cand = rng.uniform(box.lower, box.upper)
                    if inner.contains_point(cand):
                        x0 = cand
                ops.append((label,
                            lambda s=system, c=cfg, x=x0, d=stream:
                            mpc.simulate_closed_loop(s, c, x, d, self.T),
                            lambda log, dom=dom: self._check(log, dom)))
        return ops

    def _check(self, log, dom):
        if len(log) != self.T:
            return f"run stopped after {len(log)} of {self.T} steps"
        for rec in log:
            if not rec["feasible"]:
                return f"infeasible step at t={rec['t']}"
            if not dom.projection.contains_point(rec["x"], tol=1e-7):
                return f"state at t={rec['t']} left the feasible domain"
        return None


WORKLOADS = {w.name: w for w in (RegretSweep, RcisTemplates, MpcLoop)}
