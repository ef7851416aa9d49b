"""Safety-regret certification: exponentially decaying upper bounds on the
Hausdorff gap between the p-preview invariant set's projection and its
infinite-preview limit, plus the ladder method that detects finite-time
convergence.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .ellipsoid import contraction_params, find_contractive_ellipsoid, max_c0, min_c_out
from .invariance import check_contractive, max_invariant_set, pre, pre_k
from .polytope import (
    BudgetExceededError,
    HPolytope,
    NormalFormError,
    containment_ratio,
    containment_ratio_projected,
    contains,
    hausdorff_nested,
    project,
    radius_from_origin,
    scale,
    unit_box,
    vertices,
)
from .solver import is_controllable, project_point
from .systems import (
    AssumptionError,
    Equilibrium,
    LinearSystem,
    augment,
    collaborative,
    equilibrium_margin_at_zero,
    find_forced_equilibrium,
    shift_augmented,
    shift_origin,
    shift_polytope,
)

TRUE_DP_DIM_BUDGET = 8


class NotControllableError(ValueError):
    """The collaborative system is uncontrollable; use the two-phase method."""


@dataclass
class RegretCertificate:
    """Everything needed to evaluate the decay bound on the safety regret.

    The bound is piecewise in j = floor((p - p0) / N): an initial phase
    driven by (lambda0, lam) up to k0, then geometric decay with base a and
    coefficient c. Certificates from the controllable-system method have
    lam = 0, k0 = 0, a = 1 - gamma and c = 1 - lambda0.
    """

    method: str
    lambda0: float
    gamma: float
    N: int
    lam: float
    k0: float  # may be math.inf when lambda0 == 0
    a: float
    c: float
    r_co: float
    p0: int
    shift: Equilibrium
    cmax_exact: bool = True
    contractive_verified: bool | None = None
    ellipsoid: object | None = field(default=None, repr=False)  # audit trail


@dataclass
class ConvergenceReport:
    """Backward-reachable ladder from the p0 projection toward the limit set."""

    p_bar: float  # finite horizon of convergence, or math.inf
    ladder: list
    distances: list
    k_max: int

    @property
    def converged(self) -> bool:
        return math.isfinite(self.p_bar)


def k0_of(lambda0: float, gamma: float, lam: float):
    """Length of the initial bound phase.

    Zero-contraction schedules have no initial phase at all; otherwise a
    vanishing initial factor pushes the phase boundary to infinity.
    """
    if lam <= 0.0:
        return 0
    if lambda0 <= 0.0:
        return math.inf
    val = (math.log(lambda0) - math.log(gamma)) / math.log(lam) - 1.0
    return max(0, math.ceil(val))


def estimate_lambda0(C_max_co: HPolytope, C_max_p0_or_proj: HPolytope,
                     method: str = "exact", eps_star: float | None = None) -> float:
    """Largest lambda with lambda * C_max_co inside the p0 projection.

    baseline: eps_star / r with r the ratio of C_max_co into the unit box --
    guaranteed positive whenever eps_star is, but often loose. exact: the
    containment LP against the projection itself. encoded: the projection-free
    certificate LP against the lifted set (a lower estimate).
    """
    if method == "baseline":
        if eps_star is None:
            raise ValueError("baseline estimate needs the equilibrium margin")
        if eps_star <= 0.0:
            return 0.0
        r = containment_ratio(C_max_co, unit_box(C_max_co.dim))
        return float(min(1.0, eps_star / r))
    if method == "exact":
        r = containment_ratio(C_max_co, C_max_p0_or_proj)
        return float(min(1.0, 1.0 / r))
    if method == "encoded":
        r = containment_ratio_projected(C_max_co, C_max_p0_or_proj)
        if not np.isfinite(r) or r <= 0.0:
            return 0.0
        return float(min(1.0, 1.0 / r))
    raise ValueError(f"unknown method {method!r}")


def _shift_problem(sys, proj, C_max_p0, p0, require_interior_projection):
    """Steps shared by the certification methods: find a forced equilibrium
    with the needed interiority, then move the origin onto it."""
    eps0 = equilibrium_margin_at_zero(sys, proj, require_interior_projection)
    if eps0 > 0.0:
        eq = Equilibrium(np.zeros(sys.n), np.zeros(sys.m), np.zeros(sys.l),
                         margin=eps0)
        return sys, proj, C_max_p0, eq
    eq = find_forced_equilibrium(sys, proj, require_interior_projection)
    if eq.margin <= 1e-12:
        raise AssumptionError(
            "forced equilibrium exists only on the constraint boundary; "
            "the interiority assumptions cannot be verified")
    sys_s = shift_origin(sys, eq)
    proj_s = shift_polytope(proj, eq.x_e)
    C_p0_s = None
    if C_max_p0 is not None:
        C_p0_s = shift_augmented(C_max_p0, eq, sys.n, p0)
    return sys_s, proj_s, C_p0_s, eq


def _projection_of(sys, C_max_p0, p0, proj):
    if proj is not None:
        return proj
    if C_max_p0 is None:
        raise ValueError("need the p0 invariant set or its projection")
    if p0 == 0:
        return C_max_p0
    return project(C_max_p0, sys.n)


def _finish_certificate(method, lambda0, gamma, N, lam, r_co, p0, eq,
                        cmax_exact, verified):
    k0 = k0_of(lambda0, gamma, lam)
    a = (1.0 - gamma) / (1.0 - gamma * lam)
    if math.isinf(k0):
        c = 1.0
    else:
        c = (1.0 - lambda0 / lam ** k0) * a ** (-k0) if k0 else (1.0 - lambda0)
    return RegretCertificate(method=method, lambda0=float(lambda0),
                             gamma=float(gamma), N=int(N), lam=float(lam),
                             k0=k0, a=float(a), c=float(c), r_co=float(r_co),
                             p0=int(p0), shift=eq, cmax_exact=cmax_exact,
                             contractive_verified=verified)


def algorithm1(sys: LinearSystem, C_max_co: HPolytope,
               C_max_p0: HPolytope | None = None, p0: int = 0,
               refine: bool = False, proj: HPolytope | None = None,
               cmax_exact: bool = True) -> RegretCertificate:
    """Two-phase decay certificate from a contractive-ellipsoid schedule.

    Needs a forced equilibrium interior to both the safe set and the p0
    projection. With refine=True (and an exact C_max_co) the schedule is
    re-anchored on the N-step backward reachable set, which never loosens
    the bound.
    """
    proj = _projection_of(sys, C_max_p0, p0, proj)
    sys_s, proj_s, C_p0_s, eq = _shift_problem(
        sys, proj, C_max_p0, p0, require_interior_projection=True)
    C_co_s = shift_polytope(C_max_co, eq.x_e)
    if not C_co_s.in_normal_form:
        raise AssumptionError("equilibrium is not interior to the limit set")

    lambda0 = estimate_lambda0(C_co_s, None, "baseline", eps_star=eq.margin)
    lambda0 = max(lambda0, estimate_lambda0(C_co_s, proj_s, "exact"))

    co_s = collaborative(sys_s)
    ell = find_contractive_ellipsoid(sys_s)
    c0 = max_c0(ell, sys_s.S_xu, sys_s.D)
    if c0 <= 0.0:
        raise AssumptionError("contractive ellipsoid has no room inside the "
                              "safe set at the chosen equilibrium")
    c_out = min_c_out(C_co_s, ell.Q)
    params = contraction_params(c0, c_out, ell.lam_a)
    gamma, N, lam = params.gamma, params.N, params.lam
    method = "alg1"
    if refine:
        if not cmax_exact:
            raise AssumptionError("refinement needs an exact limit set")
        C_N = pre_k(co_s, scale(C_co_s, lam * gamma), k=N)
        gamma_star = min(1.0, 1.0 / containment_ratio(C_co_s, C_N))
        lam = lam * gamma / gamma_star
        gamma = gamma_star
        method = "alg1_refined"
    verified = check_contractive(co_s, scale(C_co_s, gamma), N=N, lam=lam,
                                 tol=1e-7)
    r_co = radius_from_origin(C_co_s)
    cert = _finish_certificate(method, lambda0, gamma, N, lam, r_co, p0, eq,
                               cmax_exact, verified)
    cert.ellipsoid = ell
    return cert


def algorithm2(sys: LinearSystem, C_max_co: HPolytope,
               C_max_p0: HPolytope | None = None, p0: int = 0,
               N: int | None = None, proj: HPolytope | None = None,
               cmax_exact: bool = True) -> RegretCertificate:
    """Single-phase certificate for controllable collaborative systems.

    gamma_max is the largest scaling of the limit set inside the N-step
    backward reachable set of the origin; N >= n guarantees it is positive.
    The initial factor may be zero here without breaking the decay.
    """
    if not is_controllable(sys.A, np.hstack([sys.B, sys.E])):
        raise NotControllableError(
            "collaborative dynamics are not controllable; algorithm1 applies")
    if N is None:
        N = sys.n
    if N < 1:
        raise ValueError("N must be positive")
    proj = _projection_of(sys, C_max_p0, p0, proj)
    sys_s, proj_s, C_p0_s, eq = _shift_problem(
        sys, proj, C_max_p0, p0, require_interior_projection=False)
    C_co_s = shift_polytope(C_max_co, eq.x_e)
    if not C_co_s.in_normal_form:
        raise AssumptionError("equilibrium is not interior to the limit set")

    try:
        lambda0 = estimate_lambda0(C_co_s, proj_s, "exact")
    except NormalFormError:
        # the equilibrium may sit on the projection's boundary here; the
        # decay survives a vanishing initial factor
        lambda0 = 0.0
    origin = HPolytope(np.vstack([np.eye(sys.n), -np.eye(sys.n)]),
                       np.zeros(2 * sys.n))
    co_s = collaborative(sys_s)
    C_N = pre_k(co_s, origin, k=N)
    try:
        gamma_max = min(1.0, 1.0 / containment_ratio(C_co_s, C_N))
    except NormalFormError as exc:
        raise ValueError(
            "the N-step backward set of the origin is degenerate; "
            "choose N >= the state dimension") from exc
    r_co = radius_from_origin(C_co_s)
    return _finish_certificate("alg2", lambda0, gamma_max, N, 0.0, r_co, p0,
                               eq, cmax_exact, None)


def bound_dp(cert: RegretCertificate, p: int) -> float:
    """Certified upper bound on the safety regret at preview horizon p."""
    if p < cert.p0:
        raise ValueError("bound only valid for p >= p0")
    j = (p - cert.p0) // cert.N
    if j <= cert.k0:
        rho = cert.lambda0 * cert.lam ** (-j) if j else cert.lambda0
        val = 1.0 - rho
    else:
        val = cert.c * cert.a ** j
    return float(max(val, 0.0) * cert.r_co)


def bound_marginal(cert: RegretCertificate, p: int) -> float:
    """Upper bound on the marginal value of N more preview steps at p."""
    if p < cert.p0:
        raise ValueError("bound only valid for p >= p0")
    j = (p - cert.p0) // cert.N
    if math.isfinite(cert.k0) and j >= cert.k0 + 1:
        return float(cert.c * (1.0 + cert.a) * cert.a ** j * cert.r_co)
    return bound_dp(cert, p) + bound_dp(cert, p + cert.N)


def algorithm3(sys: LinearSystem, C_max_co: HPolytope,
               proj_C_max_p0: HPolytope, p0: int = 0, k_max: int = 50,
               eq_tol: float = 0.0) -> ConvergenceReport:
    """Ladder detection of finite-time convergence of the projections.

    Iterates one-step backward reachable sets of the p0 projection under the
    collaborative dynamics. Set equality against the limit is declared only
    when support gaps close within eq_tol (default: exactly), so a finite
    result is a certificate and an infinite one is merely inconclusive. The
    ladder distances are valid regret upper bounds at matching horizons,
    measured from the limit set's vertices.
    """
    co = collaborative(sys)
    ladder = [proj_C_max_p0]
    p_bar = math.inf
    if contains(ladder[0], C_max_co, tol=eq_tol):
        p_bar = p0
    k = 0
    while k < k_max and math.isinf(p_bar):
        k += 1
        nxt = pre(co, ladder[-1])
        ladder.append(nxt)
        if contains(nxt, C_max_co, tol=eq_tol):
            p_bar = p0 + k
    anchors = vertices(C_max_co)
    distances = [max(float(project_point(v, C_k)[1]) for v in anchors)
                 for C_k in ladder]
    return ConvergenceReport(p_bar=p_bar, ladder=ladder, distances=distances,
                             k_max=k_max)


def _cmax_p(sys: LinearSystem, p: int, tol: float) -> HPolytope:
    """Maximal invariant set of the p-preview system, converged or raising."""
    C, conv = max_invariant_set(augment(sys, p) if p else sys, tol=tol,
                                max_iter=400)
    if not conv:
        raise BudgetExceededError("fixed point did not converge")
    return C


def _preview_gap(sys: LinearSystem, p: int, C_p: HPolytope,
                 C_max_co: HPolytope) -> float:
    """Hausdorff gap between the state-space projection of C_p, the maximal
    p-preview invariant set, and the limit set.

    The projection is exact (Fourier-Motzkin) at every p, and the gap is
    the largest distance from a vertex of the limit set to it. An empty C_p
    has no gap to measure and raises AssumptionError.
    """
    if C_p.is_empty():
        raise AssumptionError(f"the {p}-preview system has an empty maximal "
                              "invariant set; its regret is not defined")
    return hausdorff_nested(project(C_p, sys.n), C_max_co)


def true_dp(sys: LinearSystem, p: int, C_max_co: HPolytope,
            tol: float = 1e-8, dim_budget: int = TRUE_DP_DIM_BUDGET) -> float:
    """The actual safety regret at horizon p, by direct computation.

    Builds the maximal invariant set of the p-preview system (up to the
    fixed-point tolerance), then measures the Hausdorff gap between its
    state-space projection and the limit set (see _preview_gap).
    """
    n_aug = sys.n + p * sys.l
    if n_aug > dim_budget:
        raise BudgetExceededError(
            f"true regret at p={p} needs dimension {n_aug} > budget {dim_budget}")
    return _preview_gap(sys, p, _cmax_p(sys, p, tol), C_max_co)


def proj_cmax_p(sys: LinearSystem, p: int, tol: float = 1e-8) -> HPolytope:
    """State-space projection of the maximal p-preview invariant set."""
    C = _cmax_p(sys, p, tol)
    if p == 0 or C.is_empty():
        return C if p == 0 else HPolytope.empty(sys.n)
    return project(C, sys.n)
