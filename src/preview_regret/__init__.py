"""Robust controlled invariant sets for linear systems with disturbance
preview, and certified exponential decay bounds on the safety regret: the
Hausdorff gap between finite-preview and infinite-preview invariant sets.
"""

from .polytope import (
    Box,
    HPolytope,
    containment_ratio,
    hausdorff_nested,
    interval,
    project,
    remove_redundancy,
    unit_box,
    vertices,
)
from .systems import (
    DeterministicSystem,
    Equilibrium,
    LinearSystem,
    augment,
    collaborative,
    collaborative_augmented,
    find_forced_equilibrium,
    shift_origin,
)
from .invariance import (
    check_contractive,
    cmax_p_co,
    max_invariant_set,
    pre,
    pre_k,
    sandwich_bounds,
)
from .ellipsoid import (
    ContractionParams,
    ContractiveEllipsoid,
    contraction_params,
    find_contractive_ellipsoid,
    max_c0,
    min_c_out,
)
from .regret import (
    ConvergenceReport,
    RegretCertificate,
    algorithm1,
    algorithm2,
    algorithm3,
    bound_dp,
    bound_marginal,
    estimate_lambda0,
    k0_of,
    proj_cmax_p,
    refine_certificate,
    true_dp,
)
from .mpc import (
    FeasibleDomain,
    MpcConfig,
    feasible_domain,
    mpc_step,
    simulate_closed_loop,
    terminal_set_certificate,
)
from .models import build_1d, build_2d_random, build_template

__version__ = "0.1.0"

__all__ = [
    "Box", "HPolytope", "containment_ratio", "hausdorff_nested", "interval",
    "project", "remove_redundancy", "unit_box", "vertices",
    "DeterministicSystem", "Equilibrium", "LinearSystem", "augment",
    "collaborative", "collaborative_augmented", "find_forced_equilibrium",
    "shift_origin",
    "check_contractive", "cmax_p_co", "max_invariant_set", "pre", "pre_k",
    "sandwich_bounds",
    "ContractionParams", "ContractiveEllipsoid", "contraction_params",
    "find_contractive_ellipsoid", "max_c0", "min_c_out",
    "ConvergenceReport", "RegretCertificate", "algorithm1", "algorithm2",
    "algorithm3", "bound_dp", "bound_marginal", "estimate_lambda0", "k0_of",
    "proj_cmax_p", "refine_certificate", "true_dp",
    "FeasibleDomain", "MpcConfig", "feasible_domain", "mpc_step",
    "simulate_closed_loop", "terminal_set_certificate",
    "build_1d", "build_2d_random", "build_template",
]
