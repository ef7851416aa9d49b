"""JSON and CSV interchange: polytopes, systems, certificates, reports.

All JSON documents carry a "schema": 1 field. Infinite values (unbounded
convergence horizons, the k0 sentinel) serialize as null; CSV cells use the
string "inf" instead so the files stay spreadsheet-friendly.
"""

import csv
import json
import math

import numpy as np

from .polytope import HPolytope
from .regret import ConvergenceReport, RegretCertificate
from .systems import Equilibrium, LinearSystem

SCHEMA_VERSION = 1


class SchemaError(ValueError):
    """Input document violates the expected schema; message says where."""


def _require(cond, where, what):
    if not cond:
        raise SchemaError(f"{where}: {what}")


def _number(v, where):
    """v as a float; SchemaError unless v is a finite JSON number."""
    # a Python float bound compares exactly with an int of any size
    _require(isinstance(v, (int, float)) and not isinstance(v, bool)
             and abs(v) <= float(np.finfo(float).max), where,
             "expected a finite number")
    return float(v)


def _matrix(obj, where, width=None):
    _require(isinstance(obj, list) and obj, where, "expected a nonempty array")
    rows = []
    for i, row in enumerate(obj):
        _require(isinstance(row, list), f"{where}[{i}]", "expected an array row")
        if width is None:
            width = len(row)
        _require(len(row) == width, f"{where}[{i}]",
                 f"has {len(row)} entries, expected {width}")
        rows.append([_number(v, f"{where}[{i}][{j}]")
                     for j, v in enumerate(row)])
    return np.asarray(rows, dtype=float)


def polytope_to_json(P: HPolytope) -> dict:
    return {"H": P.H.tolist(), "h": P.h.tolist()}


def polytope_from_json(obj, where="polytope") -> HPolytope:
    _require(isinstance(obj, dict), where, "expected an object with H and h")
    _require("H" in obj and "h" in obj, where, "missing H or h")
    H = _matrix(obj["H"], f"{where}.H")
    h = obj["h"]
    _require(isinstance(h, list) and len(h) == H.shape[0], f"{where}.h",
             f"needs {H.shape[0]} entries to match H")
    return HPolytope(H, np.asarray([_number(v, f"{where}.h[{i}]")
                                    for i, v in enumerate(h)]))


def system_to_json(sys: LinearSystem) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "A": sys.A.tolist(),
        "B": sys.B.tolist(),
        "E": sys.E.tolist(),
        "D": polytope_to_json(sys.D),
        "S_xu": polytope_to_json(sys.S_xu),
    }


def system_from_json(obj) -> LinearSystem:
    _require(isinstance(obj, dict), "document", "expected a JSON object")
    for key in ("A", "B", "E", "D", "S_xu"):
        _require(key in obj, "document", f"missing field {key!r}")
    A = _matrix(obj["A"], "A")
    n = A.shape[0]
    _require(A.shape[1] == n, "A", "must be square")
    B = _matrix(obj["B"], "B")
    _require(B.shape[0] == n, "B", f"needs {n} rows to match A")
    E = _matrix(obj["E"], "E")
    _require(E.shape[0] == n, "E", f"needs {n} rows to match A")
    D = polytope_from_json(obj["D"], "D")
    _require(D.dim == E.shape[1], "D", f"dimension {D.dim} does not match E")
    S = polytope_from_json(obj["S_xu"], "S_xu")
    _require(S.dim == n + B.shape[1], "S_xu",
             f"dimension {S.dim} != n + m = {n + B.shape[1]}")
    return LinearSystem(A, B, E, D, S)


def load_json(path):
    """The JSON document in the file at path; SchemaError with line and
    column if it does not parse."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(
                f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: "
                f"{exc.msg}") from exc


def load_system(path) -> LinearSystem:
    sys = system_from_json(load_json(path))
    # compactness is a working assumption of every algorithm downstream
    from .polytope import (
        EmptyPolytopeError,
        UnboundedError,
        bounding_box,
        cache_vertex_list,
    )

    for name, P in (("D", sys.D), ("S_xu", sys.S_xu)):
        # a checked vertex list proves P bounded and answers every support
        cache_vertex_list(P)
        try:
            bounding_box(P)
        except EmptyPolytopeError as exc:
            raise SchemaError(f"{name} must be a nonempty polytope") from exc
        except UnboundedError as exc:
            raise SchemaError(f"{name} must be a bounded polytope") from exc
    return sys


def _finite_or_none(v):
    if v is None:
        return None
    v = float(v)
    return v if math.isfinite(v) else None


def equilibrium_to_json(eq: Equilibrium) -> dict:
    return {"x_e": np.asarray(eq.x_e).tolist(),
            "u_e": np.asarray(eq.u_e).tolist(),
            "d_e": np.asarray(eq.d_e).tolist(),
            "margin": float(eq.margin)}


def certificate_to_json(cert: RegretCertificate) -> dict:
    doc = {
        "schema": SCHEMA_VERSION,
        "method": cert.method,
        "lambda0": cert.lambda0,
        "gamma": cert.gamma,
        "N": cert.N,
        "lambda": cert.lam,
        "k0": _finite_or_none(cert.k0),
        "a": cert.a,
        "c": cert.c,
        "r_co": cert.r_co,
        "p0": cert.p0,
        "shift": equilibrium_to_json(cert.shift),
        "cmax_exact": cert.cmax_exact,
        "contractive_verified": cert.contractive_verified,
    }
    if not cert.cmax_exact:
        doc["note"] = ("limit set is an outer approximation; bounds are "
                       "heuristic, not certified")
    return doc


def certificate_from_json(obj) -> RegretCertificate:
    """Certificate from its document. The stored k0, a and c are not read:
    the certificate derives them from lambda0, gamma and lambda."""
    _require(isinstance(obj, dict), "certificate", "expected a JSON object")
    for key in ("method", "lambda0", "gamma", "N", "lambda", "r_co", "p0",
                "shift"):
        _require(key in obj, "certificate", f"missing field {key!r}")
    sh = obj["shift"]
    eq = Equilibrium(np.asarray(sh["x_e"], dtype=float),
                     np.asarray(sh["u_e"], dtype=float),
                     np.asarray(sh["d_e"], dtype=float),
                     float(sh.get("margin", 0.0)))
    return RegretCertificate(
        method=obj["method"], lambda0=float(obj["lambda0"]),
        gamma=float(obj["gamma"]), N=int(obj["N"]), lam=float(obj["lambda"]),
        r_co=float(obj["r_co"]), p0=int(obj["p0"]), shift=eq,
        cmax_exact=bool(obj.get("cmax_exact", True)),
        contractive_verified=obj.get("contractive_verified"))


def report_to_json(report: ConvergenceReport, p0: int) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "p0": p0,
        "p_bar": _finite_or_none(report.p_bar),
        "k_max": report.k_max,
        "ladder": [polytope_to_json(C) for C in report.ladder],
        "distances": [float(d) for d in report.distances],
    }


def ellipsoid_to_json(ell) -> dict:
    return {"schema": SCHEMA_VERSION, "Q": ell.Q.tolist(),
            "R1": ell.R1.tolist(), "R2": ell.R2.tolist(),
            "lambda_a": float(ell.lam_a)}


def _cell(v):
    if v is None:
        return ""
    if isinstance(v, float):
        if math.isinf(v):
            return "inf"
        return repr(v)
    return str(v)


REGRET_FIELDS = ("p", "true_dp", "bound_alg1", "bound_alg1_refined",
                 "bound_alg2", "bound_alg3", "p_bar")
BOUND_CURVE_FIELDS = ("p", "bound_dp", "measured_gap")


def write_rows_csv(path, fields, rows):
    """One header of fields, then one line per row dict: each cell is
    row.get(field), with missing values as empty cells. regret writes
    REGRET_FIELDS and mpc's bound curve BOUND_CURVE_FIELDS."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(fields)
        for row in rows:
            w.writerow([_cell(row.get(f)) for f in fields])


def write_trajectory_csv(path, log, n, m, l):
    """simulate_closed_loop's log, one row per record; an infeasible step
    leaves its u cells empty."""
    fields = (["t"] + [f"x{i}" for i in range(n)] + [f"u{i}" for i in range(m)]
              + [f"d{i}" for i in range(l)] + ["feasible", "cost"])
    # Python floats, since NumPy 2 scalars repr as np.float64(...)
    rows = [dict(zip(fields, [
        rec["t"], *map(float, rec["x"]),
        *([None] * m if rec["u"] is None else map(float, rec["u"])),
        *map(float, rec["d"]), int(rec["feasible"]), rec["cost"]]))
        for rec in log]
    write_rows_csv(path, fields, rows)


def load_scenario(path, D, T, count, seed):
    """Disturbance streams of at least T steps: the explicit streams of a
    scenario file ({"streams": [[[..], ..], ..]}), or with no file, count
    streams from a sampler seeded with seed.

    A file without "streams", a stream shorter than T, a malformed
    document, or a D that sample_disturbances cannot sample raises
    SchemaError.
    """
    from .mpc import sample_disturbances

    if path is not None:
        obj = load_json(path)
        _require(isinstance(obj, dict), path, "expected a JSON object")
        _require("streams" in obj, path, "missing field 'streams'")
        _require(isinstance(obj["streams"], list), "streams",
                 "expected an array of streams")
        streams = []
        for i, s in enumerate(obj["streams"]):
            arr = _matrix(s, f"streams[{i}]", width=D.dim)
            _require(len(arr) >= T, f"streams[{i}]",
                     f"has {len(arr)} steps, needs at least {T}")
            streams.append(arr)
        return streams
    rng = np.random.default_rng(seed)
    try:
        return [sample_disturbances(D, T, rng) for _ in range(count)]
    except ValueError as exc:
        raise SchemaError(f"D: {exc}") from exc
