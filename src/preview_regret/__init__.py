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
    Equilibrium,
    LinearSystem,
    augment,
    collaborative,
    find_forced_equilibrium,
    shift_origin,
)
from .invariance import (
    check_contractive,
    max_invariant_set,
    pre,
    pre_k,
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
    RegretCurve,
    algorithm1,
    algorithm2,
    algorithm3,
    bound_dp,
    refine_certificate,
    regret_curve,
)
from .mpc import (
    FeasibleDomain,
    MpcConfig,
    MpcCurve,
    feasible_domain,
    mpc_curve,
    mpc_step,
    simulate_closed_loop,
    terminal_set_certificate,
)
from .models import build_1d, build_2d_random, build_template

__version__ = "0.1.0"

__all__ = [
    "Box", "HPolytope", "containment_ratio", "hausdorff_nested", "interval",
    "project", "remove_redundancy", "unit_box", "vertices",
    "Equilibrium", "LinearSystem", "augment", "collaborative",
    "find_forced_equilibrium", "shift_origin",
    "check_contractive", "max_invariant_set", "pre", "pre_k",
    "ContractionParams", "ContractiveEllipsoid", "contraction_params",
    "find_contractive_ellipsoid", "max_c0", "min_c_out",
    "ConvergenceReport", "RegretCertificate", "RegretCurve", "algorithm1",
    "algorithm2", "algorithm3", "bound_dp", "refine_certificate",
    "regret_curve",
    "FeasibleDomain", "MpcConfig", "MpcCurve", "feasible_domain", "mpc_curve",
    "mpc_step", "simulate_closed_loop", "terminal_set_certificate",
    "build_1d", "build_2d_random", "build_template",
]
