"""Backward reachable sets, maximal (robust) controlled invariant sets and
contractiveness checks.
"""

import math
from itertools import islice, repeat

import numpy as np

from .polytope import (
    HPolytope,
    _row_norms,
    _vertex_band,
    contains,
    erode_rows,
    first_violation,
    project,
    remove_redundancy,
    scale,
)
from .solver import FIXED_POINT_MAX_ITER, TAU_SET
from .systems import DeterministicSystem, LinearSystem


def pre(sys, X: HPolytope) -> HPolytope:
    """One-step backward reachable set of X constrained to the safe set.

    {x : exists u with (x,u) in S and A x + B u + E d in X for all d in D};
    the disturbance erosion is skipped for deterministic systems. The result
    is irredundant, whatever the state dimension. Every elimination is
    offered the ball and incidence of the matching reduction of X (see
    project): X's own for the last, and the pairs X keeps from its own
    projection for the others. In a fixed point the previous iterate's
    centers are usually well inside the next ones, and once the iterates
    keep their combinatorial structure each incidence certifies the next
    reduction without a hull.
    """
    S, n = sys.S_xu, sys.n
    if X.dim != n:
        raise ValueError("target set must live in the state space")
    if X.is_empty():
        return HPolytope.empty(n)
    dim = S.dim
    offer = {**(X._offer or {}),
             (dim, tuple(range(n, dim))): (X._cheby, X._incidence)}
    if isinstance(sys, LinearSystem):
        X = erode_rows(X, sys.E, sys.D)
    AB = np.concatenate((sys.A, sys.B), axis=1)
    stacked = HPolytope(np.concatenate((X.H @ AB, S.H)),
                        np.concatenate((X.h, S.h)))
    if dim == n:  # no input to eliminate, so project would not reduce
        return remove_redundancy(stacked)
    stacked._offer = offer
    return project(stacked, n)


def _pre_input(X: HPolytope) -> tuple:
    """X's rows, offsets and carried ball as bytes (see backward_reach)."""
    ball = None if X._cheby is None else (X._cheby[0].tobytes(), X._cheby[1])
    return X.H.shape, X.H.tobytes(), X.h.tobytes(), ball


def backward_reach(sys, X: HPolytope):
    """Yield X, pre(X), pre(pre(X)), ... without end.

    Once pre returns its input's rows, offsets and ball byte for byte, that
    result is yielded from then on without calling pre. The repeat is final:
    pre also reads its input's incidence record, but that record changes
    only which route certifies the facets and the round-off of the vertex
    list, never the rows, offsets or ball. An empty set is such a repeat, so
    no consumer needs an emptiness exit of its own.
    """
    while True:
        yield X
        nxt = pre(sys, X)
        if _pre_input(nxt) == _pre_input(X):
            yield from repeat(nxt)
        X = nxt


def pre_k(sys, X: HPolytope, k: int = 1) -> HPolytope:
    """The k-th set of backward_reach: k steps of pre, each irredundant."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    return next(islice(backward_reach(sys, X), k, None))


def _violation(Q: HPolytope, P: HPolytope, tol):
    """A point of Q outside P widened by tol per row norm, else None."""
    return first_violation(Q, P.H, P.h + tol * _row_norms(P.H))


def _bracketed(X: HPolytope, L: HPolytope, tol) -> bool:
    """Whether the projection of X onto L's coordinates, the first L.dim,
    lies in L widened by tol per row norm, read off X's vertex list alone.

    One matrix product, and no LP: an X without a list, or a row whose
    support lies within the list's round-off band of its bound (see
    first_violation), says no.
    """
    if X._verts is None:
        return False
    V = X._verts[:, :L.dim]
    norms = _row_norms(L.H)
    support = (V @ L.H.T).max(axis=0)
    return bool((support < L.h + tol * norms - _vertex_band(V, norms)).all())


class Prefix:
    """A known iterate of a fixed-point run, the one the run hands on, and
    a bracket that may stop the run early.

    On entry, X is the run's k-th iterate and `stopped` says whether the
    run stops there; X None means nothing is known, and the run starts at
    X_0. max_invariant_set resumes at X and leaves in the prefix its own
    iterate at index `upto`, or the one it stops at if that comes first
    (regret.regret_curve hands it from each preview horizon to the next).
    `stopped` records the inclusion test alone, never the bracket.

    `inner`, if given, is a set L in the first L.dim coordinates that is
    known to lie inside the projection of the run's limit onto them. Every
    iterate contains the limit, so once an iterate's projection lies in L
    widened by tol, that projection P satisfies L ⊆ P ⊆ L + tol and the
    run stops. This is not the inclusion test: P is within tol of L, and
    so of the limit's projection, while the lifted iterate itself may
    still be far from the lifted limit.
    """

    __slots__ = ("upto", "k", "X", "stopped", "inner")

    def __init__(self, upto: int, k: int = 0, X: HPolytope | None = None,
                 stopped: bool = False, inner: HPolytope | None = None):
        self.upto, self.k, self.X, self.stopped = upto, k, X, stopped
        self.inner = inner


def max_invariant_set(sys, max_iter: int = FIXED_POINT_MAX_ITER,
                      tol: float = TAU_SET, prefix: Prefix | None = None):
    """Maximal (robust) controlled invariant set by the outside-in iteration.

    Returns (C, converged). The iterates X_{k+1} = pre(X_k) of
    backward_reach start at X_0 = proj_x(S) and need no intersection with
    X_0: pre already keeps (x, u) in S, so pre(X) ⊆ proj_x(S) for every X,
    and by monotonicity the iterates are nested. The first X_{k+1} that
    contains X_k within tol is returned. Every iterate contains the maximal
    set, so a non-converged result is a certified outer approximation.
    A prefix (see Prefix) resumes the run at a known iterate and takes
    back one of the run's own (see regret.regret_curve); max_iter still
    counts the steps from X_0. A prefix with a bracket set (Prefix.inner)
    also stops the run at the first iterate whose vertex list puts its
    projection inside the bracket widened by tol; such a run returns
    converged=True, and the prefix keeps stopped=False, so a run that
    resumes from it iterates on. A tol that is not finite or is negative
    raises ValueError, because an infinite or NaN one passes every
    inclusion test and a negative one passes none; so does a negative
    max_iter.
    """
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"tol must be finite and nonnegative, got {tol}")
    if max_iter < 0:
        raise ValueError(f"max_iter must be nonnegative, got {max_iter}")
    inner = None if prefix is None else prefix.inner
    if prefix is not None and prefix.X is not None:
        if prefix.X.dim != sys.n:
            raise ValueError("the prefix must live in the state space")
        k, X, converged = prefix.k, prefix.X, prefix.stopped
    else:
        S = sys.S_xu
        k, X, converged = 0, project(HPolytope(S.H, S.h), sys.n), False
    iterates = backward_reach(sys, X)
    next(iterates)
    while not converged and k < max_iter:
        X_prev, X = X, next(iterates)
        k += 1
        converged = _violation(X_prev, X, tol) is None
        if prefix is not None and k <= prefix.upto:
            prefix.k, prefix.X, prefix.stopped = k, X, converged
        if inner is not None and not converged:
            converged = _bracketed(X, inner, tol)
    return X, converged


def rcis_violation_witness(sys, C: HPolytope, tol=TAU_SET):
    """None if C is an RCIS, else a point of C that cannot stay in C: one
    that breaks a row of Pre(C) widened by tol (see _violation)."""
    return _violation(C, pre(sys, C), tol)


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
