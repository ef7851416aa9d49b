"""Safety-regret certification: exponentially decaying upper bounds on the
Hausdorff gap between the p-preview invariant set's projection and its
infinite-preview limit, plus the ladder method that detects finite-time
convergence.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .ellipsoid import contraction_params, find_contractive_ellipsoid, max_c0, min_c_out
from .invariance import check_contractive, max_invariant_set, pre, pre_k
from .polytope import (
    BudgetExceededError,
    HPolytope,
    NormalFormError,
    containment_ratio,
    contains,
    hausdorff_nested,
    project,
    radius_from_origin,
    scale,
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
    coefficient c. k0, a and c are derived from (lambda0, gamma, lam), so a
    certificate stores only its inputs. Certificates from the
    controllable-system method have lam = 0, k0 = 0, a = 1 - gamma and
    c = 1 - lambda0.
    """

    method: str
    lambda0: float
    gamma: float
    N: int
    lam: float
    r_co: float
    p0: int
    shift: Equilibrium
    cmax_exact: bool = True
    contractive_verified: bool | None = None
    ellipsoid: object | None = field(default=None, repr=False)  # audit trail

    @property
    def k0(self):
        """Length of the initial phase (see k0_of)."""
        return k0_of(self.lambda0, self.gamma, self.lam)

    @property
    def a(self) -> float:
        return (1.0 - self.gamma) / (1.0 - self.gamma * self.lam)

    @property
    def c(self) -> float:
        k0 = self.k0
        if math.isinf(k0):
            return 1.0
        if k0:
            return (1.0 - self.lambda0 / self.lam ** k0) * self.a ** (-k0)
        return 1.0 - self.lambda0


@dataclass
class ConvergenceReport:
    """Backward-reachable ladder from the p0 projection toward the limit set."""

    p_bar: float  # finite horizon of convergence, or math.inf
    ladder: list
    distances: list
    k_max: int


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


def estimate_lambda0(C_max_co: HPolytope, proj: HPolytope) -> float:
    """Largest lambda <= 1 with lambda * C_max_co inside the p0 projection.

    One containment LP into the projection; proj must contain the origin in
    its interior.
    """
    return float(min(1.0, 1.0 / containment_ratio(C_max_co, proj)))


def _shift_problem(sys, proj, C_max_co, require_interior_projection):
    """Steps shared by the certification methods: find a forced equilibrium
    with the needed interiority, then move the origin onto it.

    Returns the shifted system, p0 projection and limit set, and the
    equilibrium.
    """
    eps0 = equilibrium_margin_at_zero(sys, proj, require_interior_projection)
    if eps0 > 0.0:
        eq = Equilibrium(np.zeros(sys.n), np.zeros(sys.m), np.zeros(sys.l),
                         margin=eps0)
        sys_s, proj_s = sys, proj
    else:
        eq = find_forced_equilibrium(sys, proj, require_interior_projection)
        if eq.margin <= 1e-12:
            raise AssumptionError(
                "forced equilibrium exists only on the constraint boundary; "
                "the interiority assumptions cannot be verified")
        sys_s = shift_origin(sys, eq)
        proj_s = shift_polytope(proj, eq.x_e)
    C_co_s = shift_polytope(C_max_co, eq.x_e)
    if not C_co_s.in_normal_form:
        raise AssumptionError("equilibrium is not interior to the limit set")
    return sys_s, proj_s, C_co_s, eq


def algorithm1(sys: LinearSystem, C_max_co: HPolytope, proj: HPolytope,
               p0: int = 0, cmax_exact: bool = True) -> RegretCertificate:
    """Two-phase decay certificate from a contractive-ellipsoid schedule.

    proj is the state-space projection of the maximal p0-preview invariant
    set. Needs a forced equilibrium interior to both the safe set and proj;
    lambda0 is then the containment LP of the limit set into proj. See
    refine_certificate for the re-anchored schedule.
    """
    sys_s, proj_s, C_co_s, eq = _shift_problem(
        sys, proj, C_max_co, require_interior_projection=True)
    lambda0 = estimate_lambda0(C_co_s, proj_s)

    ell = find_contractive_ellipsoid(sys_s)
    c0 = max_c0(ell, sys_s.S_xu, sys_s.D)
    if c0 <= 0.0:
        raise AssumptionError("contractive ellipsoid has no room inside the "
                              "safe set at the chosen equilibrium")
    params = contraction_params(c0, min_c_out(C_co_s, ell.Q), ell.lam_a)
    verified = check_contractive(collaborative(sys_s),
                                 scale(C_co_s, params.gamma), N=params.N,
                                 lam=params.lam, tol=1e-7)
    return RegretCertificate(
        method="alg1", lambda0=float(lambda0), gamma=params.gamma,
        N=params.N, lam=params.lam, r_co=float(radius_from_origin(C_co_s)),
        p0=int(p0), shift=eq, cmax_exact=cmax_exact,
        contractive_verified=verified, ellipsoid=ell)


def refine_certificate(sys: LinearSystem, C_max_co: HPolytope,
                       cert: RegretCertificate) -> RegretCertificate:
    """Re-anchor a plain Algorithm-1 certificate on the N-step backward set.

    gamma becomes the largest scaling of the limit set inside
    C_N = Pre^N(lam * gamma * C_max_co), and lam is rescaled so that
    lam * gamma is unchanged; this never loosens the bound. lambda0, N,
    r_co, p0, the shift and the ellipsoid carry over from cert. Needs an
    exact limit set (cert.cmax_exact).
    """
    if cert.method != "alg1":
        raise ValueError("only a plain alg1 certificate can be refined")
    if not cert.cmax_exact:
        raise AssumptionError("refinement needs an exact limit set")
    co_s = collaborative(shift_origin(sys, cert.shift))
    C_co_s = shift_polytope(C_max_co, cert.shift.x_e)
    C_N = pre_k(co_s, scale(C_co_s, cert.lam * cert.gamma), k=cert.N)
    gamma = float(min(1.0, 1.0 / containment_ratio(C_co_s, C_N)))
    lam = cert.lam * cert.gamma / gamma
    verified = check_contractive(co_s, scale(C_co_s, gamma), N=cert.N,
                                 lam=lam, tol=1e-7)
    return replace(cert, method="alg1_refined", gamma=gamma, lam=lam,
                   contractive_verified=verified)


def algorithm2(sys: LinearSystem, C_max_co: HPolytope, proj: HPolytope,
               p0: int = 0, N: int | None = None,
               cmax_exact: bool = True) -> RegretCertificate:
    """Single-phase certificate for controllable collaborative systems.

    proj is the state-space projection of the maximal p0-preview invariant
    set; it only has to contain the equilibrium.

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
    sys_s, proj_s, C_co_s, eq = _shift_problem(
        sys, proj, C_max_co, require_interior_projection=False)
    try:
        lambda0 = estimate_lambda0(C_co_s, proj_s)
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
    return RegretCertificate(
        method="alg2", lambda0=float(lambda0), gamma=float(gamma_max),
        N=int(N), lam=0.0, r_co=float(radius_from_origin(C_co_s)),
        p0=int(p0), shift=eq, cmax_exact=cmax_exact)


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
               proj: HPolytope, p0: int = 0, k_max: int = 50,
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
    ladder = [proj]
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


def _preview_gap(p: int, proj: HPolytope, C_max_co: HPolytope) -> float:
    """Hausdorff gap between proj, the state-space projection of the maximal
    p-preview invariant set, and the limit set.

    The gap is the largest distance from a vertex of the limit set to proj.
    An empty proj has no gap to measure and raises AssumptionError.
    """
    if proj.is_empty():
        raise AssumptionError(f"the {p}-preview system has an empty maximal "
                              "invariant set; its regret is not defined")
    return hausdorff_nested(proj, C_max_co)


def true_dp(sys: LinearSystem, p: int, C_max_co: HPolytope,
            tol: float = 1e-8, dim_budget: int = TRUE_DP_DIM_BUDGET) -> float:
    """The actual safety regret at horizon p, by direct computation.

    Builds the maximal invariant set of the p-preview system (up to the
    fixed-point tolerance), projects it exactly (Fourier-Motzkin), then
    measures the Hausdorff gap to the limit set (see _preview_gap).
    """
    n_aug = sys.n + p * sys.l
    if n_aug > dim_budget:
        raise BudgetExceededError(
            f"true regret at p={p} needs dimension {n_aug} > budget {dim_budget}")
    return _preview_gap(p, proj_cmax_p(sys, p, tol), C_max_co)


def proj_cmax_p(sys: LinearSystem, p: int, tol: float = 1e-8) -> HPolytope:
    """State-space projection of the maximal p-preview invariant set.

    The fixed point must converge within 400 iterations, else
    BudgetExceededError.
    """
    C, conv = max_invariant_set(augment(sys, p) if p else sys, tol=tol,
                                max_iter=400)
    if not conv:
        raise BudgetExceededError("fixed point did not converge")
    return project(C, sys.n)
