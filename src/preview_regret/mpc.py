"""Preview MPC: feasible domains under recursive-feasibility constraints,
their convergence certificates, and a closed-loop simulator.
"""

from dataclasses import dataclass

import numpy as np

from .invariance import pre_k, rcis_violation_witness
from .polytope import (
    BudgetExceededError,
    HPolytope,
    UnboundedError,
    bounding_box,
    cartesian_product,
    power_product,
    project,
    support,
)
from .regret import NotControllableError, RegretCertificate, algorithm1, algorithm2
from .solver import solve_qp
from .systems import LinearSystem, augment, collaborative

FULL_DOMAIN_DIM_BUDGET = 8


class TerminalSetError(ValueError):
    """The requested terminal set is empty, unbounded or not controlled
    invariant."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


@dataclass
class MpcConfig:
    """Preview MPC setup: horizon and terminal set; the quadratic stage
    weights are the identity.

    rfc selects the recursive-feasibility constraint: "terminal_set" forces
    the final predicted state into C; "max_rcis" keeps the successor
    augmented state inside cmax_p for every next disturbance; None drops the
    constraint (ablation only, recursive feasibility is then forfeit).
    """

    p: int
    C: HPolytope
    rfc: str | None = "terminal_set"
    cmax_p: HPolytope | None = None


@dataclass
class FeasibleDomain:
    projection: HPolytope
    full: HPolytope | None = None


def feasible_domain(sys: LinearSystem, C: HPolytope, p: int,
                    want_full: bool = False) -> FeasibleDomain:
    """Initial conditions (x0, previews) admitting a feasible MPC solution.

    The state-space projection is the p-step backward reachable set of C
    under the collaborative dynamics, which never touches the augmented
    space; the full domain is the p-step backward set of C x D^p for the
    augmented system and is only built within the dimension budget. Raises
    TerminalSetError unless C is nonempty, bounded and robustly invariant.
    """
    if p < 1:
        raise ValueError("the preview horizon must be at least 1")
    if C.is_empty():
        raise TerminalSetError("terminal set is empty")
    try:
        bounding_box(C)
    except UnboundedError:
        raise TerminalSetError("terminal set is unbounded") from None
    w = rcis_violation_witness(sys, C, tol=1e-7)
    if w is not None:
        raise TerminalSetError(
            "terminal set is not robustly invariant; a state of C "
            f"escapes in one step: {np.array2string(w, precision=6)}",
            witness=w)
    co = collaborative(sys)
    projection = pre_k(co, C, k=p)
    full = None
    if want_full:
        n_aug = sys.n + p * sys.l
        if n_aug > FULL_DOMAIN_DIM_BUDGET:
            raise BudgetExceededError(
                f"full feasible domain needs dimension {n_aug}")
        sys_p = augment(sys, p)
        target = cartesian_product(C, power_product(sys.D, p))
        full = pre_k(sys_p, target, k=p)
    return FeasibleDomain(projection=projection, full=full)


def terminal_set_certificate(sys: LinearSystem, C: HPolytope,
                             C_max_co: HPolytope, N: int | None = None,
                             cmax_exact: bool = True) -> RegretCertificate:
    """Decay certificate for the gap between the feasible-domain projection
    and the infinite-preview limit, anchored on the terminal set.

    Uses the controllable-system method when it applies, else the two-phase
    schedule; either way the p0 projection is replaced by C itself.
    cmax_exact says whether C_max_co is the converged limit set rather than
    an outer approximation of it.
    """
    try:
        return algorithm2(sys, C_max_co, C, N=N, cmax_exact=cmax_exact)
    except NotControllableError:
        return algorithm1(sys, C_max_co, C, cmax_exact=cmax_exact)


def _stack_mpc_qp(sys: LinearSystem, cfg: MpcConfig, x0, preview):
    n, m, p = sys.n, sys.m, cfg.p
    nz = p * (n + m)

    def xi(t):  # x_t for t = 1..p
        return slice((t - 1) * n, t * n)

    def ui(t):  # u_t for t = 0..p-1
        return slice(p * n + t * m, p * n + (t + 1) * m)

    A_eq = np.zeros((p * n, nz))
    b_eq = np.zeros(p * n)
    for t in range(1, p + 1):
        rows = slice((t - 1) * n, t * n)
        A_eq[rows, xi(t)] = np.eye(n)
        A_eq[rows, ui(t - 1)] = -sys.B
        d_prev = np.asarray(preview[t - 1], dtype=float)
        rhs = sys.E @ d_prev
        if t == 1:
            rhs = rhs + sys.A @ x0
        else:
            A_eq[rows, xi(t - 1)] = -sys.A
        b_eq[rows] = rhs

    Hs, hs = sys.S_xu.H, sys.S_xu.h
    Hx, Hu = Hs[:, :n], Hs[:, n:]
    blocks = []
    rhss = []
    for t in range(1, p + 1):  # (x_{t-1}, u_{t-1}) in S_xu
        block = np.zeros((Hs.shape[0], nz))
        block[:, ui(t - 1)] = Hu
        r = hs.copy()
        if t == 1:
            r = r - Hx @ x0
        else:
            block[:, xi(t - 1)] = Hx
        blocks.append(block)
        rhss.append(r)

    if cfg.rfc == "terminal_set":
        block = np.zeros((cfg.C.num_rows, nz))
        block[:, xi(p)] = cfg.C.H
        blocks.append(block)
        rhss.append(cfg.C.h)
    elif cfg.rfc == "max_rcis":
        if cfg.cmax_p is None:
            raise ValueError("max_rcis mode needs the maximal augmented set")
        l = sys.l
        Hc, hc = cfg.cmax_p.H, cfg.cmax_p.h
        # successor augmented state: (x_1, d_1, .., d_{p-1}, d_next) with the
        # known previews filled in and the unseen slot taken worst case
        block = np.zeros((Hc.shape[0], nz))
        block[:, xi(1)] = Hc[:, :n]
        r = hc.copy()
        for i in range(1, p):
            cols = Hc[:, n + (i - 1) * l: n + i * l]
            r = r - cols @ np.asarray(preview[i], dtype=float)
        tail = Hc[:, n + (p - 1) * l:]
        for j in range(Hc.shape[0]):
            if np.any(tail[j]):
                r[j] -= support(sys.D, tail[j])
        blocks.append(block)
        rhss.append(r)
    elif cfg.rfc is not None:
        raise ValueError(f"unknown rfc mode {cfg.rfc!r}")

    G = np.eye(nz)  # identity stage weights on every x_t and u_t
    return G, np.vstack(blocks), np.concatenate(rhss), A_eq, b_eq


def mpc_step(sys: LinearSystem, cfg: MpcConfig, x0, preview):
    """One receding-horizon solve.

    Returns (u0, predicted (xs, us), feasible). Infeasibility of the
    quadratic program is reported through the flag, never as an exception;
    genuine solver failures still raise.
    """
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    preview = np.atleast_2d(np.asarray(preview, dtype=float).reshape(cfg.p, sys.l))
    G, A_ub, b_ub, A_eq, b_eq = _stack_mpc_qp(sys, cfg, x0, preview)
    z, _ = solve_qp(2.0 * G, np.zeros(G.shape[0]), A_ub, b_ub, A_eq, b_eq)
    if z is None:
        return None, None, False
    n, m, p = sys.n, sys.m, cfg.p
    xs = z[:p * n].reshape(p, n)
    us = z[p * n:].reshape(p, m)
    return us[0], (xs, us), True


def sample_disturbances(D: HPolytope, T: int, rng) -> np.ndarray:
    """T samples uniform over D by rejection from its bounding box."""
    box = bounding_box(D)
    out = np.empty((T, D.dim))
    count = 0
    while count < T:
        cand = rng.uniform(box.lower, box.upper, size=(4 * (T - count), D.dim))
        for c in cand:
            if D.contains_point(c):
                out[count] = c
                count += 1
                if count == T:
                    break
    return out


def simulate_closed_loop(sys: LinearSystem, cfg: MpcConfig, x0, stream,
                         T: int | None = None):
    """Closed-loop run under the receding-horizon controller.

    `stream` must cover T + p disturbance steps. Returns a list of records
    (t, x, u, d, feasible, cost); with a recursive-feasibility constraint and
    a feasible start, every step stays feasible. An infeasible step ends the
    run (only reachable in the ablation mode).
    """
    stream = np.atleast_2d(np.asarray(stream, dtype=float))
    if stream.shape[1] != sys.l:
        stream = stream.reshape(-1, sys.l)
    if T is None:
        T = stream.shape[0] - cfg.p
    if stream.shape[0] < T + cfg.p:
        raise ValueError("disturbance stream shorter than T + p")
    x = np.atleast_1d(np.asarray(x0, dtype=float)).copy()
    log = []
    for t in range(T):
        window = stream[t:t + cfg.p]
        u0, _, feasible = mpc_step(sys, cfg, x, window)
        if not feasible:
            log.append({"t": t, "x": x.copy(), "u": None, "d": stream[t].copy(),
                        "feasible": False, "cost": np.nan})
            break
        cost = float(x @ x + u0 @ u0)
        log.append({"t": t, "x": x.copy(), "u": u0.copy(),
                    "d": stream[t].copy(), "feasible": True, "cost": cost})
        x = sys.step(x, u0, stream[t])
    return log
