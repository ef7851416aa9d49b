"""Safety-regret certification: exponentially decaying upper bounds on the
Hausdorff gap between the p-preview invariant set's projection and its
infinite-preview limit, plus the ladder method that detects finite-time
convergence, and regret_curve, which sets both next to the directly
computed regret over a range of preview horizons.
"""

import math
from dataclasses import dataclass, field, replace
from itertools import islice

import numpy as np

from .ellipsoid import contraction_params, find_contractive_ellipsoid, max_c0, min_c_out
from .invariance import (Prefix, _pre_input, backward_reach,
                         check_contractive, max_invariant_set, pre_k)
from .polytope import (
    HPolytope,
    NormalFormError,
    NotNestedError,
    _max_distance,
    cartesian_product,
    containment_ratio,
    contains,
    hausdorff_nested,
    project,
    radius_from_origin,
    scale,
    translate,
    unit_box,
    vertices,
)
from .solver import (EQ_MARGIN_TOL, LADDER_K_MAX, PREVIEW_MAX_ITER, TAU_CHECK,
                     TAU_SWEEP, is_controllable)
from .systems import (
    AssumptionError,
    Equilibrium,
    LinearSystem,
    augment,
    collaborative,
    equilibrium_margin_at_zero,
    find_forced_equilibrium,
    shift_origin,
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
        """Length of the initial phase. Zero-contraction schedules have no
        initial phase at all; otherwise a vanishing initial factor pushes
        the phase boundary to infinity."""
        if self.lam <= 0.0:
            return 0
        if self.lambda0 <= 0.0:
            return math.inf
        val = ((math.log(self.lambda0) - math.log(self.gamma))
               / math.log(self.lam) - 1.0)
        return max(0, math.ceil(val))

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


def _anchor(sys, proj, C_max_co, interior):
    """The anchor shared by the certification methods: find a forced
    equilibrium with the needed interiority, move the origin onto it, and
    read lambda0 and r_co there.

    Returns the shifted system, its collaborative system, the shifted limit
    set, the equilibrium, lambda0 (the largest lambda <= 1 with lambda *
    C_max_co inside the p0 projection) and r_co. With interior False the
    equilibrium may sit on the projection's boundary, and lambda0 is then
    0: the controllable-system decay survives a vanishing initial factor.
    """
    eps0 = equilibrium_margin_at_zero(sys, proj, interior)
    if eps0 > 0.0:
        eq = Equilibrium(np.zeros(sys.n), np.zeros(sys.m), np.zeros(sys.l),
                         margin=eps0)
        sys_s, proj_s = sys, proj
    else:
        eq = find_forced_equilibrium(sys, proj, interior)
        if eq.margin <= EQ_MARGIN_TOL:
            raise AssumptionError(
                "forced equilibrium exists only on the constraint boundary; "
                "the interiority assumptions cannot be verified")
        sys_s = shift_origin(sys, eq)
        proj_s = translate(proj, -eq.x_e)
    C_co_s = translate(C_max_co, -eq.x_e)
    if not C_co_s.in_normal_form:
        raise AssumptionError("equilibrium is not interior to the limit set")
    try:
        lambda0 = float(min(1.0, 1.0 / containment_ratio(C_co_s, proj_s)))
    except NormalFormError:
        if interior:
            raise
        lambda0 = 0.0
    return (sys_s, collaborative(sys_s), C_co_s, eq, lambda0,
            float(radius_from_origin(C_co_s)))


def algorithm1(sys: LinearSystem, C_max_co: HPolytope, proj: HPolytope,
               p0: int = 0, cmax_exact: bool = True) -> RegretCertificate:
    """Two-phase decay certificate from a contractive-ellipsoid schedule.

    proj is the state-space projection of the maximal p0-preview invariant
    set. Needs a forced equilibrium interior to both the safe set and proj;
    lambda0 is then the containment ratio of the limit set into proj. See
    refine_certificate for the re-anchored schedule.
    """
    sys_s, co_s, C_co_s, eq, lambda0, r_co = _anchor(
        sys, proj, C_max_co, interior=True)
    ell = find_contractive_ellipsoid(sys_s)
    c0 = max_c0(ell, sys_s.S_xu, sys_s.D)
    if c0 <= 0.0:
        raise AssumptionError("contractive ellipsoid has no room inside the "
                              "safe set at the chosen equilibrium")
    params = contraction_params(c0, min_c_out(C_co_s, ell.Q), ell.lam_a)
    verified = check_contractive(co_s, scale(C_co_s, params.gamma),
                                 N=params.N, lam=params.lam, tol=TAU_CHECK)
    return RegretCertificate(
        method="alg1", lambda0=lambda0, gamma=params.gamma,
        N=params.N, lam=params.lam, r_co=r_co,
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
    C_co_s = translate(C_max_co, -cert.shift.x_e)
    C_N = pre_k(co_s, scale(C_co_s, cert.lam * cert.gamma), k=cert.N)
    gamma = float(min(1.0, 1.0 / containment_ratio(C_co_s, C_N)))
    lam = cert.lam * cert.gamma / gamma
    # lam * gamma is unchanged, so C_N is the N-step set that
    # check_contractive would build for the new schedule
    verified = contains(C_N, scale(C_co_s, gamma), tol=TAU_CHECK)
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
    _, co_s, C_co_s, eq, lambda0, r_co = _anchor(
        sys, proj, C_max_co, interior=False)
    C_N = pre_k(co_s, scale(unit_box(sys.n), 0.0), k=N)
    try:
        gamma_max = min(1.0, 1.0 / containment_ratio(C_co_s, C_N))
    except NormalFormError as exc:
        raise ValueError(
            "the N-step backward set of the origin is degenerate; "
            "choose N >= the state dimension") from exc
    return RegretCertificate(
        method="alg2", lambda0=lambda0, gamma=float(gamma_max),
        N=int(N), lam=0.0, r_co=r_co,
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


def algorithm3(sys: LinearSystem, C_max_co: HPolytope,
               proj: HPolytope, p0: int = 0, k_max: int = LADDER_K_MAX,
               eq_tol: float = 0.0) -> ConvergenceReport:
    """Ladder detection of finite-time convergence of the projections.

    Walks backward_reach from the p0 projection under the collaborative
    dynamics for up to k_max steps. Set equality against the limit is
    declared only when support gaps close within eq_tol (default: exactly),
    so a finite result is a certificate and an infinite one is merely
    inconclusive. A set that repeats its predecessor byte for byte is final
    (see backward_reach) and failed its check, so it pads the ladder to
    k_max + 1 sets. The ladder distances are valid regret upper bounds at
    matching horizons, measured from the limit set's vertices.
    """
    ladder, p_bar = [], math.inf
    steps = islice(backward_reach(collaborative(sys), proj), k_max + 1)
    for k, C_k in enumerate(steps):
        if ladder and _pre_input(C_k) == _pre_input(ladder[-1]):
            break
        ladder.append(C_k)
        if contains(C_k, C_max_co, tol=eq_tol):
            p_bar = p0 + k
            break
    anchors = vertices(C_max_co)
    distances = [_max_distance(anchors, C_k) for C_k in ladder]
    pad = k_max + 1 - len(ladder) if math.isinf(p_bar) else 0
    return ConvergenceReport(p_bar=p_bar, ladder=ladder + ladder[-1:] * pad,
                             distances=distances + distances[-1:] * pad,
                             k_max=k_max)


def _ladder_gap(report: ConvergenceReport, k: int) -> float | None:
    """The regret bound a ladder gives k steps past its anchor: the distance
    at rung k, 0 past a closed ladder (no gap from p_bar on) and None past
    an open one, which says nothing there."""
    if k < len(report.distances):
        return report.distances[k]
    return 0.0 if math.isfinite(report.p_bar) else None


def _preview_gap(p: int, proj: HPolytope, C_max_co: HPolytope,
                 tol: float) -> float:
    """Hausdorff gap between proj, the state-space projection of the maximal
    p-preview invariant set computed at the fixed-point tol, and the limit
    set.

    The gap is the largest distance from a vertex of the limit set to proj.
    proj must lie in the limit set within the larger of TAU_CHECK and tol:
    an outer approximation within tol, such as a projection bracketed by a
    ladder rung (see regret_curve), may stick out of it by about tol. An
    empty proj, or one that sticks out further, has no gap to measure and
    raises AssumptionError.
    """
    if proj.is_empty():
        raise AssumptionError(f"the {p}-preview system has an empty maximal "
                              "invariant set; its regret is not defined")
    tol = max(TAU_CHECK, tol)
    try:
        return hausdorff_nested(proj, C_max_co, tol)
    except NotNestedError:
        raise AssumptionError(
            f"the {p}-preview projection is not inside the limit set within "
            f"{tol:g}; its regret is not defined") from None


def _preview_projection(sys: LinearSystem, p: int, prefix: Prefix,
                        tol: float):
    """(projection, converged): the state-space projection of the maximal
    p-preview invariant set, from one max_invariant_set run of at most
    PREVIEW_MAX_ITER steps that resumes at and hands on prefix (see
    Prefix), and whether that run converged (if not, the projection is an
    outer approximation).
    """
    C, converged = max_invariant_set(augment(sys, p),
                                     max_iter=PREVIEW_MAX_ITER, tol=tol,
                                     prefix=prefix)
    return project(C, sys.n), converged


@dataclass
class RegretCurve:
    """The safety-regret table of one system and what it was built from."""

    C_max_co: HPolytope  # the limit set
    proj: HPolytope  # state-space projection of the maximal p0-preview set
    certs: dict  # method name -> RegretCertificate
    report: ConvergenceReport | None  # the alg3 ladder, when asked for
    failures: dict  # method name -> why it was not certified
    rows: list  # one dict per p in p0..p_max (see serialize.REGRET_FIELDS)


def regret_curve(sys: LinearSystem, p0: int = 1, p_max: int = 8,
                 methods=("alg1", "alg1_refined", "alg2", "alg3"),
                 N: int | None = None, k_max: int = LADDER_K_MAX,
                 tol: float = TAU_SWEEP,
                 dim_budget: int = TRUE_DP_DIM_BUDGET) -> RegretCurve:
    """Safety regret d_p next to the certified bounds, for p0 <= p <= p_max.

    One fixed point gives the limit set, and one more the certificates' p0
    projection (_preview_projection). After the methods, one loop gives the
    true_dp column: it runs each horizon p0 <= p <= p_max with
    n + p l <= dim_budget, and the cell is blank where a fixed point did
    not converge. The p-preview run's first p iterates are the
    (p-1)-preview run's times D, X^(p)_k = X^(p-1)_k x D for k <= p - 1,
    because the last preview slot enters no dynamics within p - 1 steps.
    So each horizon past p0 resumes at iterate min(p - 1, K) of the run
    below, which stopped at step K, and stops at once if K <= p - 1; its
    sets equal those of a run from X_0 (see Prefix).

    When alg3 ran and the p0 run converged, each later run also stops
    once its projection is bracketed by the rung L_p of algorithm3's
    ladder at k = p - p0, or by the last rung past the end of the list (a
    ladder that closed or repeated), at no extra pre: rung k is
    Pre_co^k(proj_p0), by the sandwich C_{p-1} x D ⊆ C_p it lies in
    proj_{p0+k}, and the projections grow with p. Such a run gives a
    projection P with L_p ⊆ P ⊆ L_p + tol and converged=True, although its
    lifted iterate has not passed the inclusion test, and the next horizon
    resumes below it as usual. L_p lies in the true proj_p only given an
    exact p0 projection: the p0 projection is itself an outer
    approximation within tol, so a true_dp cell read from such a run can
    carry the p0 error grown through p - p0 pre steps, an error the
    inclusion test does not add. Without alg3, every run stops by the
    inclusion test only.

    The certificates carry cmax_exact only when both the limit set and the
    p0 fixed point converged. methods runs in order; alg1_refined
    re-anchors alg1 (computed on demand) and shares its failure. A method
    that raises AssumptionError or ValueError is recorded in failures and
    leaves its column blank. bound_alg3 reads the ladder distance at
    p - p0 and is 0 past the end of a closed ladder, blank past an open one
    (_ladder_gap). An empty limit set or p0 projection raises
    AssumptionError.
    """
    C_co, conv_co = max_invariant_set(collaborative(sys), tol=tol)
    if C_co.is_empty():
        raise AssumptionError("the collaborative system has an empty maximal "
                              "invariant set; nothing to certify")
    prefix = Prefix(upto=p0)
    proj, conv_p0 = _preview_projection(sys, p0, prefix, tol)
    if proj.is_empty():
        raise AssumptionError(f"the {p0}-preview system has an empty maximal "
                              "invariant set; try a larger --p0")
    exact = conv_co and conv_p0

    certs = {}
    report = None
    failures = {}
    for name in methods:
        try:
            if name == "alg1":
                certs[name] = algorithm1(sys, C_co, proj, p0=p0,
                                         cmax_exact=exact)
            elif name == "alg1_refined":
                if "alg1" in failures:
                    failures[name] = failures["alg1"]
                    continue
                plain = certs["alg1"] if "alg1" in certs else algorithm1(
                    sys, C_co, proj, p0=p0, cmax_exact=exact)
                certs[name] = refine_certificate(sys, C_co, plain)
            elif name == "alg2":
                certs[name] = algorithm2(sys, C_co, proj, p0=p0, N=N,
                                         cmax_exact=exact)
            elif name == "alg3":
                report = algorithm3(sys, C_co, proj, p0=p0, k_max=k_max)
        except (AssumptionError, ValueError) as exc:
            failures[name] = str(exc)

    ladder = report.ladder if report is not None and conv_p0 else None
    true, P, converged = {}, proj, conv_p0
    for p in range(p0, p_max + 1):
        if sys.n + p * sys.l > dim_budget:
            break
        if p > p0:  # resume below the run of horizon p - 1
            inner = None
            if ladder and not prefix.stopped:
                inner = ladder[min(p - p0, len(ladder) - 1)]
            X = None if prefix.X is None else cartesian_product(prefix.X,
                                                                sys.D)
            prefix = Prefix(p, prefix.k, X, prefix.stopped, inner)
            P, converged = _preview_projection(sys, p, prefix, tol)
        if converged:
            true[p] = _preview_gap(p, P, C_co, tol)

    rows = []
    for p in range(p0, p_max + 1):
        row = {"p": p, "true_dp": true.get(p)}
        for name, cert in certs.items():
            row[f"bound_{name}"] = bound_dp(cert, p)
        if report is not None:
            row["bound_alg3"] = _ladder_gap(report, p - p0)
            row["p_bar"] = float(report.p_bar)
        rows.append(row)
    return RegretCurve(C_co, proj, certs, report, failures, rows)
