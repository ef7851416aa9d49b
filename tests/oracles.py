"""Reference sets of the tests, built from the primitives the pipeline uses:
one max_invariant_set run from X_0, and pre_k on the delay form."""

from functools import reduce

from preview_regret.invariance import max_invariant_set, pre_k
from preview_regret.polytope import cartesian_product, project
from preview_regret.regret import _preview_gap
from preview_regret.solver import PREVIEW_MAX_ITER
from preview_regret.systems import augment, collaborative


def power(D, k):
    """D^k, the k-fold Cartesian product (k >= 1)."""
    return reduce(cartesian_product, [D] * k)


def proj_p(sys, p, tol=1e-8):
    """State-space projection of the maximal p-preview RCIS, from a fixed
    point that converged."""
    C, converged = max_invariant_set(augment(sys, p),
                                     max_iter=PREVIEW_MAX_ITER, tol=tol)
    assert converged, f"the {p}-preview fixed point did not converge"
    return project(C, sys.n)


def regret_dp(sys, p, C_co, tol=1e-8):
    """The safety regret d_p: the gap from proj_p to the limit set C_co."""
    return _preview_gap(p, proj_p(sys, p, tol), C_co, tol)


def co_p(sys, p, C_co):
    """Maximal CIS of the collaborative p-preview system by the delay form:
    p backward steps from C_co x D^p."""
    if p == 0:
        return C_co
    return pre_k(collaborative(augment(sys, p)),
                 cartesian_product(C_co, power(sys.D, p)), k=p)
