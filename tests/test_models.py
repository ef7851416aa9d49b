import json
from pathlib import Path

import numpy as np
import pytest

from preview_regret.invariance import max_invariant_set
from preview_regret.models import build_1d, build_2d_random, build_template
from preview_regret.polytope import set_equal, support
from preview_regret.regret import algorithm2, algorithm3, bound_dp
from preview_regret.serialize import system_to_json
from preview_regret.solver import is_stabilizable
from preview_regret.systems import collaborative
from preview_regret.mpc import feasible_domain

from oracles import regret_dp


def test_build_1d_guards():
    with pytest.raises(ValueError):
        build_1d(a=0.9)
    with pytest.raises(ValueError):
        build_1d(a=2.0, xbar=1.0)  # xbar < (ubar+dbar)/(a-1)


def test_oracle_values():
    _, o = build_1d()
    assert support(o.cmax_co(), [1.0]) == pytest.approx(1.5)
    assert o.proj_radius(1) == pytest.approx(1.0)
    assert o.dp(2) == pytest.approx(0.25)


def test_oracle_geometric_ratio():
    _, o = build_1d()
    for p in range(1, 8):
        assert o.dp(p) / o.dp(p + 1) == pytest.approx(o.a)


def test_oracle_refuses_invalid_p():
    _, o = build_1d(a=2.0, xbar=30.0, ubar=0.2, dbar=0.5)
    # a^(p-1) ubar >= dbar fails at p = 1 (0.2 < 0.5) but holds at p = 3
    with pytest.raises(ValueError):
        o.dp(1)
    assert o.dp(3) > 0


def test_oracle_is_ground_truth_for_computations():
    sys, o = build_1d()
    C_co, conv = max_invariant_set(collaborative(sys), tol=1e-11)
    assert conv
    assert support(C_co, [1.0]) == pytest.approx(1.5, abs=1e-9)
    # cross-module spine: invariant sets, certificates, ladders, domains
    assert regret_dp(sys, 2, C_co, tol=1e-11) == pytest.approx(o.dp(2), abs=1e-9)
    cert = algorithm2(sys, C_co, proj=o.proj(1), p0=1, N=1)
    assert bound_dp(cert, 3) == pytest.approx(o.dp(3), abs=1e-9)
    report = algorithm3(sys, C_co, o.proj(1), p0=1, k_max=5)
    assert report.distances[0] == pytest.approx(o.dp(1), abs=1e-9)
    dom = feasible_domain(sys, max_invariant_set(sys, tol=1e-11)[0], p=1)
    assert support(dom.projection, [1.0]) == pytest.approx(o.proj_radius(1),
                                                           abs=1e-9)


def test_oracle_cmax_p_matches_computation():
    sys, o = build_1d()
    from preview_regret.systems import augment

    for p in (1, 2):
        direct, conv = max_invariant_set(augment(sys, p), tol=0.0, max_iter=400)
        assert conv
        assert set_equal(direct, o.cmax_p(p), tol=1e-11)


def test_build_2d_deterministic():
    a = build_2d_random(42)
    b = build_2d_random(42)
    assert np.array_equal(a.S_xu.H, b.S_xu.H)
    assert np.array_equal(a.S_xu.h, b.S_xu.h)
    c = build_2d_random(43)
    assert not np.array_equal(a.S_xu.h, c.S_xu.h)


def test_build_2d_matrices():
    s = build_2d_random(0)
    assert np.allclose(s.A, [[1.5, 1.0], [0.0, 1.1]])
    assert np.allclose(s.B, [[0.0], [1.0]])
    assert np.allclose(s.E, [[1.0], [1.0]])
    assert support(s.D, [1.0]) == pytest.approx(0.3)


def test_build_2d_origin_interior():
    from preview_regret.polytope import max_inscribed_ball_at

    for seed in range(6):
        s = build_2d_random(seed)
        assert max_inscribed_ball_at(s.S_xu, np.zeros(3)) >= 1.0 - 1e-12
        assert is_stabilizable(s.A, np.hstack([s.B, s.E]))


def test_templates_well_formed():
    for name in ("lane_keeping", "biped", "wind_turbine"):
        sys, provenance = build_template(name)
        assert is_stabilizable(sys.A, np.hstack([sys.B, sys.E]))
        from preview_regret.polytope import bounding_box

        bounding_box(sys.S_xu)  # raises if not compact
        bounding_box(sys.D)
        assert any("published" in v for v in provenance.values())
        assert any("placeholder" in v for v in provenance.values())


def _hex_mismatches(got, want, where):
    """Paths at which got, with every float as float.hex, differs from want."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or got.keys() != want.keys():
            return [where]
        return [m for k in want
                for m in _hex_mismatches(got[k], want[k], f"{where}.{k}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [where]
        return [m for i, (g, w) in enumerate(zip(got, want))
                for m in _hex_mismatches(g, w, f"{where}[{i}]")]
    value = got.hex() if isinstance(got, float) else got
    return [] if value == want else [f"{where}: {value} != {want}"]


def test_system_documents_are_pinned_bit_for_bit():
    # every entry of system_to_json, recorded as float.hex in
    # systems_hex.json, so a builder edit that moves any number fails here
    want = json.loads((Path(__file__).parent / "systems_hex.json").read_text())
    systems = {name: build_template(name)[0]
               for name in ("lane_keeping", "biped", "wind_turbine")}
    systems.update({f"2d-{seed}": build_2d_random(seed) for seed in range(4)})
    assert systems.keys() == want.keys()
    for name, system in systems.items():
        assert _hex_mismatches(system_to_json(system), want[name], name) == []


def test_biped_tracking_row():
    sys, _ = build_template("biped")
    ratio = 0.8 / 9.81
    target = np.array([1.0, 0.0, ratio, -1.0, 0.0])
    found = any(np.allclose(row, target) and h == pytest.approx(0.1)
                for row, h in zip(sys.S_xu.H, sys.S_xu.h))
    assert found
    assert sys.A[3, 3] == pytest.approx(0.15)
    assert support(sys.D, [1.0]) == pytest.approx(0.085)


def test_lane_keeping_bounds():
    sys, _ = build_template("lane_keeping")
    for i, cap in enumerate([0.9, 1.2, 0.05, 0.3]):
        e = np.zeros(5)
        e[i] = 1.0
        found = any(np.allclose(row, e) and h == pytest.approx(cap)
                    for row, h in zip(sys.S_xu.H, sys.S_xu.h))
        assert found, f"missing bound row {i}"
    assert support(sys.D, [1.0]) == pytest.approx(0.05)


def test_wind_turbine_caps():
    sys, _ = build_template("wind_turbine")
    assert support(sys.S_xu, [0.0, 0.0, 1.0, 0.0]) == pytest.approx(10.47)
    assert -support(sys.S_xu, [0.0, 0.0, -1.0, 0.0]) == pytest.approx(-4.53)


def test_unknown_template():
    with pytest.raises(ValueError):
        build_template("quadcopter")
