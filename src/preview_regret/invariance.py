"""Backward reachable sets, maximal (robust) controlled invariant sets,
contractiveness checks and the preview sandwich bounds.
"""

import numpy as np

from .polytope import (
    HPolytope,
    cartesian_product,
    contains,
    erode_rows,
    first_violation,
    power_product,
    project,
    scale,
    TAU_SET,
)
from .systems import DeterministicSystem, LinearSystem


def _safe_set_of(sys) -> HPolytope:
    return sys.S_xu if isinstance(sys, LinearSystem) else sys.S


def pre(sys, X: HPolytope, S: HPolytope | None = None) -> HPolytope:
    """One-step backward reachable set of X constrained to the safe set.

    {x : exists u with (x,u) in S and A x + B u + E d in X for all d in D};
    the disturbance erosion is skipped for deterministic systems. The result
    is irredundant, whatever the state dimension.
    """
    if S is None:
        S = _safe_set_of(sys)
    n = sys.n
    if X.dim != n:
        raise ValueError("target set must live in the state space")
    if X.is_empty():
        return HPolytope.empty(n)
    if isinstance(sys, LinearSystem):
        X = erode_rows(X, sys.E, sys.D)
    AB = np.hstack([sys.A, sys.B])
    rows = np.vstack([X.H @ AB, S.H])
    rhs = np.r_[X.h, S.h]
    stacked = HPolytope(rows, rhs)
    return project(stacked, n)


def pre_k(sys, X: HPolytope, k: int = 1) -> HPolytope:
    """k-fold composition of pre; every step returns an irredundant set."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    out = X
    for _ in range(k):
        out = pre(sys, out)
        if out.is_empty():
            return out
    return out


def _subset_within(X_old: HPolytope, X_new: HPolytope, tol) -> bool:
    """X_old ⊆ X_new within tol times each row norm of X_new."""
    norms = np.linalg.norm(X_new.H, axis=1)
    return first_violation(X_old, X_new.H, X_new.h + tol * norms) is None


def max_invariant_set(sys, max_iter: int = 200, tol: float = TAU_SET):
    """Maximal (robust) controlled invariant set by the outside-in iteration.

    Returns (C, converged). The iterates X_{k+1} = pre(X_k) start at
    X_0 = proj_x(S) and need no intersection with X_0: pre already keeps
    (x, u) in S, so pre(X) ⊆ proj_x(S) for every X, and by monotonicity the
    iterates are nested. Every iterate contains the maximal set, so a
    non-converged result is a certified outer approximation.
    """
    S = _safe_set_of(sys)
    n = sys.n
    X = project(HPolytope(S.H, S.h), n)
    if X.is_empty():
        return HPolytope.empty(n), True
    for _ in range(max_iter):
        X_next = pre(sys, X)
        if X_next.is_empty():
            return HPolytope.empty(n), True
        if _subset_within(X, X_next, tol):
            return X_next, True
        X = X_next
    return X, False


def is_rcis(sys, C: HPolytope, tol=TAU_SET) -> bool:
    """C is (robust) controlled invariant in the safe set: C ⊆ Pre(C)."""
    return contains(pre(sys, C), C, tol=tol)


def rcis_violation_witness(sys, C: HPolytope, tol=TAU_SET):
    """None if C is an RCIS, else a point of C that cannot stay in C: one
    that breaks a row of Pre(C) (see first_violation)."""
    P = pre(sys, C)
    return first_violation(C, P.H, P.h + tol * np.linalg.norm(P.H, axis=1))


def cmax_p_co(sys: LinearSystem, p: int, C_max_co: HPolytope) -> HPolytope:
    """Maximal CIS of the collaborative p-preview system, built from the
    delay form: p backward steps from C_max_co x D^p inside the augmented
    safe set."""
    from .systems import collaborative_augmented

    if p == 0:
        return C_max_co
    co_p = collaborative_augmented(sys, p)
    target = cartesian_product(C_max_co, power_product(sys.D, p))
    return pre_k(co_p, target, k=p)


def check_contractive(sys: DeterministicSystem, X: HPolytope, N: int = 1,
                      lam: float = 1.0, tol=TAU_SET) -> bool:
    """X ⊆ Pre^N(lam * X): X can be steered into its lam-scaled copy in
    N safe steps."""
    if not (0.0 <= lam <= 1.0):
        raise ValueError("contraction factor must be in [0, 1]")
    if N < 1:
        raise ValueError("N must be positive")
    reach = pre_k(sys, scale(X, lam), k=N)
    return contains(reach, X, tol=tol)


def sandwich_bounds(sys: LinearSystem, p: int, p_prime: int,
                    C_max_p_prime: HPolytope, C_max_co: HPolytope):
    """Inner and outer product bounds for the maximal RCIS at preview p.

    inner = C_max_{p'} x D^{p-p'} (itself an RCIS of the p-preview system);
    outer = C_max_{p',co} x D^{p-p'}, the tightest product outer bound.
    """
    if p_prime > p:
        raise ValueError("p' must not exceed p")
    tail = p - p_prime
    inner = C_max_p_prime if tail == 0 else cartesian_product(
        C_max_p_prime, power_product(sys.D, tail))
    co = cmax_p_co(sys, p_prime, C_max_co)
    outer = co if tail == 0 else cartesian_product(co, power_product(sys.D, tail))
    return inner, outer
