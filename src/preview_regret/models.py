"""Example systems: the closed-form 1D family, a seeded 2D instance with a
random polytopic safe set, and fixed application templates.

The 1D oracle is the package's ground-truth spine: every set computation can
be checked against its closed forms to high precision.
"""

from dataclasses import dataclass

import numpy as np

from .polytope import Box, HPolytope, interval
from .systems import LinearSystem


@dataclass
class OneDimOracle:
    """Closed forms for x+ = a x + u + d with |x|<=xbar, |u|<=ubar, |d|<=dbar.

    Valid for a > 1 and xbar >= (ubar+dbar)/(a-1); the preview formulas
    additionally need a^(p-1) * ubar >= dbar.
    """

    a: float
    xbar: float
    ubar: float
    dbar: float

    def _check_p(self, p: int):
        if p >= 1 and self.a ** (p - 1) * self.ubar < self.dbar:
            raise ValueError(
                f"closed forms invalid at p={p}: a^(p-1)*ubar < dbar")

    def cmax_co_radius(self) -> float:
        return (self.ubar + self.dbar) / (self.a - 1.0)

    def cmax_co(self) -> HPolytope:
        r = self.cmax_co_radius()
        return interval(-r, r)

    def proj_radius(self, p: int) -> float:
        """Radius of the first-coordinate projection of the maximal
        p-preview invariant set."""
        self._check_p(p)
        return (self.ubar + self.dbar - 2.0 * self.dbar / self.a ** p) / (self.a - 1.0)

    def proj(self, p: int) -> HPolytope:
        r = self.proj_radius(p)
        return interval(-r, r)

    def dp(self, p: int) -> float:
        """Safety regret: decays like 1/a per preview step."""
        self._check_p(p)
        return 2.0 * self.dbar / ((self.a - 1.0) * self.a ** p)

    def cmax_p(self, p: int) -> HPolytope:
        """The maximal p-preview invariant set in (x, d_1..d_p) coordinates:
        a box in the previews and a slab in x + sum d_i / a^i."""
        self._check_p(p)
        r = (self.ubar - self.dbar / self.a ** p) / (self.a - 1.0)
        row = np.r_[1.0, [self.a ** -i for i in range(1, p + 1)]]
        H = [row, -row]
        h = [r, r]
        for i in range(p):
            e = np.zeros(p + 1)
            e[i + 1] = 1.0
            H.extend([e, -e])
            h.extend([self.dbar, self.dbar])
        return HPolytope(np.array(H), np.array(h))


def build_1d(a: float = 2.0, xbar: float = 10.0, ubar: float = 1.0,
             dbar: float = 0.5):
    """The scalar benchmark system plus its closed-form oracle."""
    if a <= 1.0:
        raise ValueError("the oracle needs an unstable pole, a > 1")
    if xbar < (ubar + dbar) / (a - 1.0):
        raise ValueError("state bound too small: xbar < (ubar+dbar)/(a-1)")
    S = Box(np.array([-xbar, -ubar]), np.array([xbar, ubar])).to_polytope()
    sys = LinearSystem([[a]], [[1.0]], [[1.0]], interval(-dbar, dbar), S)
    return sys, OneDimOracle(a=a, xbar=xbar, ubar=ubar, dbar=dbar)


def build_2d_random(seed: int) -> LinearSystem:
    """Planar system with one unstable coupling block and a seeded random
    polytopic safe set.

    The state rows are 10 uniformly random outer normals whose offsets keep
    the unit box inside, plus a fixed outer cap |x_i| <= 6 guaranteeing
    compactness; inputs are boxed at |u| <= 5. Deterministic per seed.
    """
    k = 10
    rng = np.random.default_rng(seed)
    ang = rng.uniform(0.0, 2.0 * np.pi, size=k)
    dirs = np.c_[np.cos(ang), np.sin(ang)]
    inner_support = np.abs(dirs).sum(axis=1)  # support of [-1,1]^2
    offs = inner_support * (1.0 + 2.0 * rng.uniform(size=k))
    H = np.zeros((k + 6, 3))
    h = np.zeros(k + 6)
    H[:k, :2] = dirs
    h[:k] = offs
    H[k:k + 4, :2] = np.vstack([np.eye(2), -np.eye(2)])
    h[k:k + 4] = 6.0
    H[k + 4, 2] = 1.0
    H[k + 5, 2] = -1.0
    h[k + 4:] = 5.0
    S = HPolytope(H, h)
    return LinearSystem([[1.5, 1.0], [0.0, 1.1]], [[0.0], [1.0]],
                        [[1.0], [1.0]], interval(-0.3, 0.3), S)


def _lane_keeping():
    """Linearized lateral dynamics with previewed road curvature.

    Safe-set bounds are published (|y|<=0.9, |v|<=1.2, |yaw|<=0.05,
    |r|<=0.3, |steer|<=pi/2, |curvature|<=0.05); the dynamics are a
    non-calibrated placeholder: a bicycle model at 30 m/s, forward-Euler
    discretized at 0.05 s.
    """
    vx, m, Iz = 30.0, 1500.0, 2500.0
    caf, car, lf, lr = 80_000.0, 80_000.0, 1.2, 1.6
    a22 = -(caf + car) / (m * vx)
    a24 = -vx - (caf * lf - car * lr) / (m * vx)
    a42 = -(caf * lf - car * lr) / (Iz * vx)
    a44 = -(caf * lf ** 2 + car * lr ** 2) / (Iz * vx)
    Ac = np.array([
        [0.0, 1.0, vx, 0.0],
        [0.0, a22, 0.0, a24],
        [0.0, 0.0, 0.0, 1.0],
        [0.0, a42, 0.0, a44],
    ])
    Bc = np.array([[0.0], [caf / m], [0.0], [caf * lf / Iz]])
    Ec = np.array([[0.0], [0.0], [-vx], [0.0]])
    Ts = 0.05
    A = np.eye(4) + Ts * Ac
    B = Ts * Bc
    E = Ts * Ec
    bounds = np.array([0.9, 1.2, 0.05, 0.3])
    S = Box(np.r_[-bounds, -np.pi / 2], np.r_[bounds, np.pi / 2]).to_polytope()
    D = interval(-0.05, 0.05)
    return (LinearSystem(A, B, E, D, S),
            {"bounds": "published", "dynamics": "placeholder"})


def _biped():
    """Lateral center-of-mass dynamics coupled with an uncertain tracking
    reference; the previewed disturbance drives the reference.

    Published rows: the tracking-error row |x + (h/g)*acc - ref| <= 0.1,
    the reference dynamics ref+ = 0.15 ref + d with |d| <= 0.085, and the
    state/input boxes. The triple-integrator discretization uses the
    placeholder values h = 0.8, g = 9.81 and T = 0.1.
    """
    T = 0.1
    A = np.zeros((4, 4))
    A[:3, :3] = [[1.0, T, T * T / 2.0], [0.0, 1.0, T], [0.0, 0.0, 1.0]]
    A[3, 3] = 0.15
    B = np.array([[T ** 3 / 6.0], [T * T / 2.0], [T], [0.0]])
    E = np.array([[0.0], [0.0], [0.0], [1.0]])
    D = interval(-0.085, 0.085)
    zmp = np.array([1.0, 0.0, 0.8 / 9.81, -1.0, 0.0])
    H = [zmp, -zmp]
    h = [0.1, 0.1]
    caps = [(0, 0.1), (1, 10.0), (2, 10.0), (3, 0.1), (4, 100.0)]
    for idx, cap in caps:
        e = np.zeros(5)
        e[idx] = 1.0
        H.extend([e, -e])
        h.extend([cap, cap])
    S = HPolytope(np.array(H), np.array(h))
    return (LinearSystem(A, B, E, D, S),
            {"safe_rows": "published", "reference_dynamics": "published",
             "integrator_params": "placeholder"})


def _wind_turbine():
    """Rotor-speed regulation with previewed wind deviations.

    Published state caps: |speed dev| <= 5, |integral| <= 100,
    pitch in [-4.53, 10.47]. The dynamics (sample time 0.2), the input cap
    |u| <= 5 and the wind-deviation bound |d| <= 1 are placeholders.
    """
    T = 0.2
    A = np.array([[0.95, 0.0, -0.08], [T, 1.0, 0.0], [0.0, 0.0, 1.0]])
    B = np.array([[0.0], [0.0], [1.0]])
    E = np.array([[0.2], [0.0], [0.0]])
    lo = np.array([-5.0, -100.0, -4.53, -5.0])
    hi = np.array([5.0, 100.0, 10.47, 5.0])
    S = Box(lo, hi).to_polytope()
    D = interval(-1.0, 1.0)
    return (LinearSystem(A, B, E, D, S),
            {"state_caps": "published", "dynamics": "placeholder"})


_TEMPLATES = {"lane_keeping": _lane_keeping, "biped": _biped,
              "wind_turbine": _wind_turbine}


def build_template(name: str):
    """Named application template; returns (system, provenance).

    Provenance marks which ingredients are published constraint rows and
    which are placeholder dynamics.
    """
    if name not in _TEMPLATES:
        raise ValueError(
            f"unknown template {name!r}; choose from {tuple(_TEMPLATES)}")
    return _TEMPLATES[name]()
