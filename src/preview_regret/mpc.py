"""Preview MPC: feasible domains under recursive-feasibility constraints,
their convergence certificates and gap curves, and a closed-loop simulator.
"""

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .invariance import max_invariant_set, pre_k, rcis_violation_witness
from .polytope import HPolytope, UnboundedError, bounding_box, support
from .regret import (NotControllableError, RegretCertificate, _ladder_gap,
                     algorithm1, algorithm2, algorithm3, bound_dp)
from .solver import FLAT_RADIUS, TAU_CHECK, _row_scales, solve_qp
from .systems import AssumptionError, LinearSystem, collaborative


class TerminalSetError(ValueError):
    """The requested terminal set is empty, unbounded or not controlled
    invariant."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


@dataclass
class MpcConfig:
    """Preview MPC setup: horizon p and recursive-feasibility set C; the
    quadratic stage weights are the identity.

    The dimension of C picks the recursive-feasibility constraint. With
    dimension n, C is a terminal set and the final predicted state must lie
    in it. With dimension n + p*l, C is a set of augmented states (x, d_1,
    .., d_p), such as the maximal RCIS of augment(sys, p), and the successor
    augmented state must lie in it for every next disturbance. The ablation
    without a constraint is C = HPolytope.universe(n), which forfeits
    recursive feasibility.

    The config and the system are treated as immutable values, as HPolytope
    is: mpc_step keeps the horizon QP built from them on the config and
    rebuilds it only when sys or a field is rebound to another object, never
    when an array is modified in place.
    """

    p: int
    C: HPolytope
    _horizon: "_Horizon | None" = field(default=None, init=False,
                                        compare=False, repr=False)


@dataclass
class FeasibleDomain:
    projection: HPolytope


def _check_terminal_set(sys: LinearSystem, C: HPolytope, p: int) -> None:
    """feasible_domain's and mpc_curve's checks of C and p."""
    if C.dim != sys.n:
        raise TerminalSetError(f"terminal set has dimension {C.dim}, the "
                               f"state space {sys.n}")
    if p < 1:
        raise ValueError("the preview horizon must be at least 1")
    if C.is_empty():
        raise TerminalSetError("terminal set is empty")
    try:
        bounding_box(C)
    except UnboundedError:
        raise TerminalSetError("terminal set is unbounded") from None
    w = rcis_violation_witness(sys, C, tol=TAU_CHECK)
    if w is not None:
        check = np.format_float_scientific(TAU_CHECK, trim="-", exp_digits=1)
        raise TerminalSetError(
            "terminal set is not robustly invariant at the check tolerance "
            f"{check}; a state of C escapes in one step: "
            f"{np.array2string(w, precision=6)}", witness=w)


def feasible_domain(sys: LinearSystem, C: HPolytope, p: int) -> FeasibleDomain:
    """States x0 from which some preview admits a feasible MPC solution.

    This is the projection onto the state space of the feasible domain of
    (x0, previews): the p-step backward reachable set of C under the
    collaborative dynamics, which never touches the augmented space. Raises
    TerminalSetError unless C lives in the state space and is nonempty,
    bounded and robustly invariant to TAU_CHECK.
    """
    _check_terminal_set(sys, C, p)
    return FeasibleDomain(projection=pre_k(collaborative(sys), C, k=p))


def terminal_set_certificate(sys: LinearSystem, C: HPolytope,
                             C_max_co: HPolytope,
                             cmax_exact: bool = True) -> RegretCertificate:
    """Decay certificate for the gap between the feasible-domain projection
    and the infinite-preview limit, anchored on the terminal set.

    Uses the controllable-system method when it applies, else the two-phase
    schedule; either way the p0 projection is replaced by C itself.
    cmax_exact says whether C_max_co is the converged limit set rather than
    an outer approximation of it.
    """
    try:
        return algorithm2(sys, C_max_co, C, cmax_exact=cmax_exact)
    except NotControllableError:
        return algorithm1(sys, C_max_co, C, cmax_exact=cmax_exact)


@dataclass
class MpcCurve:
    """mpc_curve's result; rows holds serialize.BOUND_CURVE_FIELDS."""

    domain: HPolytope
    cert: RegretCertificate | None
    failure: str | None
    rows: list


def mpc_curve(sys: LinearSystem, C: HPolytope, p: int, curve_max: int,
              tol: float) -> MpcCurve:
    """feasible_domain(sys, C, p) and the gap curve for p = 0..max(p,
    curve_max) from one algorithm3 ladder from C: the domain is rung p, or
    the ladder continued by pre if it closed earlier, and the gap is 0 past
    its closure. The limit set is a fixed point at tol. An AssumptionError
    or ValueError from terminal_set_certificate becomes failure."""
    _check_terminal_set(sys, C, p)
    co = collaborative(sys)
    C_co, conv_co = max_invariant_set(co, tol=tol)
    p_max = max(p, curve_max)
    report = algorithm3(sys, C_co, C, p0=0, k_max=p_max)
    ladder = report.ladder
    domain = ladder[p] if p < len(ladder) else pre_k(
        co, ladder[-1], p + 1 - len(ladder))
    cert = failure = None
    try:
        cert = terminal_set_certificate(sys, C, C_co, cmax_exact=conv_co)
    except (AssumptionError, ValueError) as exc:
        failure = str(exc)
    rows = [{"p": k, "bound_dp": None if cert is None else bound_dp(cert, k),
             "measured_gap": _ladder_gap(report, k)}
            for k in range(p_max + 1)]
    return MpcCurve(domain, cert, failure, rows)


class _Horizon(NamedTuple):
    """The horizon-p least-distance QP of one (system, config), in whitened
    coordinates y, with z = (x0, d_0, .., d_{p-1}): minimise 1/2 |y|^2 +
    (c_map z)'y s.t. A y <= b0 + b_map z; then u = u_map y. scale holds
    the row scales max(|A_i|, 1) that solve_qp divides by: the rows are
    fixed, so they are computed here and not on every step. key holds its
    inputs (sys, p, C), which mpc_step compares by identity.
    """

    key: tuple
    c_map: np.ndarray
    A: np.ndarray
    scale: np.ndarray
    b0: np.ndarray
    b_map: np.ndarray
    u_map: np.ndarray


def _condensed_qp(sys: LinearSystem, cfg: MpcConfig) -> _Horizon:
    """The horizon-p QP over the inputs u = (u_0, .., u_{p-1}) alone, built
    once per (system, config): nothing here depends on x0 or the previews.

    The dynamics are substituted: x_t = Gam[t] u + F[t] z for t = 0..p, with
    F[t] z the free response to z = (x0, previews). Minimising the identity
    stage cost |x_1..x_p|^2 + |u|^2 is then  1/2 u'Gu + c'u  with
    G = 2(I + Gam'Gam) and c = 2 Gam'F z. The rows are S_xu on (x_t, u_t)
    for t = 0..p-1, then the recursive-feasibility rows, picked by the
    dimension of C: C on x_p when it is n, or C on the successor augmented
    state (x_1, d_1, .., d_{p-1}, d_next) with the unseen slot d_next taken
    worst case when it is n + p*l. Any other dimension raises ValueError.
    With G = LL' and u = L^-T y the Hessian becomes the identity, the
    least-distance form solve_qp takes, and the row scales of A are taken
    here too, so each step only evaluates the affine maps in z and solves
    (see mpc_step).
    """
    n, m, l, p = sys.n, sys.m, sys.l, cfg.p
    nz = n + p * l
    Gam = np.zeros((p + 1, n, p * m))
    F = np.zeros((p + 1, n, nz))
    F[0, :, :n] = np.eye(n)
    for t in range(1, p + 1):
        Gam[t] = sys.A @ Gam[t - 1]
        Gam[t, :, (t - 1) * m:t * m] = sys.B
        F[t] = sys.A @ F[t - 1]
        F[t, :, n + (t - 1) * l:n + t * l] += sys.E

    Hs, hs = sys.S_xu.H, sys.S_xu.h
    Hx, Hu = Hs[:, :n], Hs[:, n:]
    rows = Hx @ Gam[:p]  # (x_t, u_t) in S_xu for t = 0..p-1
    for t in range(p):
        rows[t, :, t * m:(t + 1) * m] += Hu
    blocks = [rows.reshape(p * len(hs), p * m)]
    offsets = [np.tile(hs, p)]
    maps = [-(Hx @ F[:p]).reshape(-1, nz)]

    Hc, hc = cfg.C.H, cfg.C.h
    if cfg.C.dim == n:
        blocks.append(Hc @ Gam[p])
        offsets.append(hc)
        maps.append(-Hc @ F[p])
    elif cfg.C.dim == nz:
        # successor augmented state: (x_1, d_1, .., d_{p-1}, d_next) with the
        # known previews filled in and the unseen slot taken worst case
        b_map = -Hc[:, :n] @ F[1]
        b_map[:, n + l:] -= Hc[:, n:n + (p - 1) * l]
        tail = Hc[:, n + (p - 1) * l:]
        worst = np.array([support(sys.D, a) if np.any(a) else 0.0
                          for a in tail])
        blocks.append(Hc[:, :n] @ Gam[1])
        offsets.append(hc - worst)
        maps.append(b_map)
    else:
        raise ValueError(f"C has dimension {cfg.C.dim}; expected n = {n} "
                         f"(terminal set) or n + p*l = {nz} (augmented set)")

    X = Gam[1:].reshape(p * n, p * m)
    F1 = F[1:].reshape(p * n, nz)
    L = np.linalg.cholesky(2.0 * (np.eye(p * m) + X.T @ X))
    J = np.linalg.inv(L).T
    A = np.vstack(blocks) @ J
    return _Horizon(
        key=(sys, cfg.p, cfg.C), c_map=2.0 * (J.T @ (X.T @ F1)),
        A=A, scale=_row_scales(A), b0=np.concatenate(offsets),
        b_map=np.vstack(maps), u_map=J)


def mpc_step(sys: LinearSystem, cfg: MpcConfig, x0, preview):
    """One receding-horizon solve of the condensed QP (no equality rows).

    x0 holds the n entries of the state (a scalar will do when n = 1) and
    preview the p*l entries of d_0, .., d_{p-1}, flat or as p rows of l;
    both are read in order into one vector z = (x0, previews), and any
    other count of entries raises ValueError. The QP's fixed part, its
    rows and their scales included, comes from `_condensed_qp`, kept on
    cfg and rebuilt only when sys or a field of cfg is rebound; a step
    evaluates its affine maps in z and makes one least-distance solve_qp
    call.
    Returns (u0, us, feasible): us is the (p, m) planned input sequence
    and u0 its first row. The predicted states are not built; a caller
    that wants them rolls the plan out, x_{t+1} = A x_t + B us[t] + E
    preview[t] from x0. Infeasibility of the quadratic program is reported
    as (None, None, False), never as an exception; genuine solver failures
    still raise.
    """
    z = np.concatenate((x0, preview), axis=None, dtype=float)
    if z.shape[0] != sys.n + cfg.p * sys.l or np.size(x0) != sys.n:
        raise ValueError(f"x0 and the preview have {np.size(x0)} and "
                         f"{np.size(preview)} entries; expected n = {sys.n} "
                         f"and p*l = {cfg.p * sys.l}")
    qp = cfg._horizon
    if (qp is None or qp.key[0] is not sys or qp.key[1] is not cfg.p
            or qp.key[2] is not cfg.C):
        qp = cfg._horizon = _condensed_qp(sys, cfg)
    # ndarray.dot makes the same BLAS call as @ with less dispatch
    b = qp.b_map.dot(z)
    b += qp.b0
    y, _ = solve_qp(qp.c_map.dot(z), qp.A, b, qp.scale)
    if y is None:
        return None, None, False
    us = qp.u_map.dot(y).reshape(cfg.p, sys.m)
    return us[0], us, True


def sample_disturbances(D: HPolytope, T: int, rng) -> np.ndarray:
    """T samples uniform over D by rejection from its bounding box.

    Rejection ends only if D, with the coordinates the box pins fixed, has
    an interior. A D with a vertex list has one (flat sets get no list);
    otherwise its Chebyshev radius must exceed FLAT_RADIUS. A D that
    fails raises ValueError instead of drawing forever.
    """
    box = bounding_box(D)
    wide = box.upper > box.lower
    if D._verts is None and wide.sum() > 1:
        free = D if wide.all() else HPolytope(
            D.H[:, wide], D.h - D.H[:, ~wide] @ box.lower[~wide])
        if free.chebyshev_center()[1] <= FLAT_RADIUS:
            raise ValueError("the disturbance set has no interior to sample "
                             "from; give the streams in a scenario file")
    out = np.empty((T, D.dim))
    count = 0
    while count < T:
        # + 0.0 turns an upper bound of -0.0 into 0.0: uniform rejects
        # high - low = -0.0 as negative
        cand = rng.uniform(box.lower, box.upper + 0.0,
                           size=(4 * (T - count), D.dim))
        for c in cand:
            if D.contains_point(c):
                out[count] = c
                count += 1
                if count == T:
                    break
    return out


def simulate_closed_loop(sys: LinearSystem, cfg: MpcConfig, x0, stream,
                         T: int):
    """T closed-loop steps under the receding-horizon controller.

    `stream` holds T + p or more disturbance steps, one row of l each; a
    flat stream whose length is a multiple of l is read row by row. x0 has
    n entries and T is at least 0; inputs of any other shape raise
    ValueError before the first step. Returns a list of records (t, x, u,
    d, feasible, cost); with a recursive-feasibility constraint and a
    feasible start, every step stays feasible. An infeasible step ends the
    run (only reachable in the ablation, C = HPolytope.universe(n)). Each
    step makes one mpc_step call, which makes one solve_qp call, and reads
    only its u0. The step's dynamics (LinearSystem.step) and its cost
    x.x + u0.u0 use ndarray.dot, the same BLAS calls as @ without its
    dispatch. A record's x and u are arrays that nothing else holds, so
    they are logged as they are; its d is the step's one copy of its
    stream row, which also drives the dynamics.
    """
    stream = np.asarray(stream, dtype=float)
    if stream.ndim <= 1 and stream.size % sys.l == 0:
        stream = stream.reshape(-1, sys.l)
    if stream.ndim != 2 or stream.shape[1] != sys.l:
        raise ValueError(f"disturbance stream has shape {stream.shape}; "
                         f"expected (steps, l) with l = {sys.l}, or a flat "
                         f"stream whose length is a multiple of {sys.l}")
    if T < 0:
        raise ValueError(f"T = {T} steps; expected at least 0")
    if stream.shape[0] < T + cfg.p:
        raise ValueError(f"disturbance stream has {stream.shape[0]} steps, "
                         f"fewer than T + p = {T + cfg.p}")
    x = np.atleast_1d(np.asarray(x0, dtype=float)).copy()
    if x.shape != (sys.n,):
        raise ValueError(f"x0 has shape {x.shape}; expected ({sys.n},)")
    log = []
    for t in range(T):
        u0, _, feasible = mpc_step(sys, cfg, x, stream[t:t + cfg.p])
        d = stream[t].copy()
        if not feasible:
            log.append({"t": t, "x": x, "u": None, "d": d,
                        "feasible": False, "cost": np.nan})
            break
        log.append({"t": t, "x": x, "u": u0, "d": d, "feasible": True,
                    "cost": float(x.dot(x) + u0.dot(u0))})
        x = sys.step(x, u0, d)
    return log
