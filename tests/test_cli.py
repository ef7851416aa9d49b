import csv
import json
import math

import numpy as np
import pytest

from preview_regret.cli import main
from preview_regret.models import build_1d, build_2d_random, build_template
from preview_regret.serialize import (
    SchemaError,
    certificate_from_json,
    certificate_to_json,
    load_scenario,
    load_system,
    polytope_from_json,
    polytope_to_json,
    system_from_json,
    system_to_json,
)
from preview_regret.polytope import set_equal, unit_box
from preview_regret.regret import RegretCertificate, bound_dp
from preview_regret.systems import Equilibrium, augment, collaborative

from oracles import co_p, regret_dp


@pytest.fixture()
def system_file(tmp_path):
    sys, _ = build_1d()
    path = tmp_path / "system.json"
    path.write_text(json.dumps(system_to_json(sys)))
    return path


@pytest.fixture()
def system_file_2d(tmp_path):
    sys = build_2d_random(0)
    path = tmp_path / "system2d.json"
    path.write_text(json.dumps(system_to_json(sys)))
    return path


def test_polytope_roundtrip():
    P = unit_box(3)
    Q = polytope_from_json(polytope_to_json(P))
    assert set_equal(P, Q, tol=1e-15)


def test_system_roundtrip():
    sys, _ = build_1d()
    back = system_from_json(system_to_json(sys))
    assert np.allclose(back.A, sys.A)
    assert set_equal(back.S_xu, sys.S_xu, tol=1e-15)


def test_schema_errors_are_precise():
    with pytest.raises(SchemaError, match="S_xu"):
        system_from_json({"A": [[1.0]], "B": [[1.0]], "E": [[1.0]],
                          "D": {"H": [[1.0]], "h": [1.0]}})
    with pytest.raises(SchemaError, match=r"B.*rows"):
        system_from_json({"A": [[1.0]], "B": [[1.0], [0.0]], "E": [[1.0]],
                          "D": {"H": [[1.0]], "h": [1.0]},
                          "S_xu": {"H": [[1.0, 0.0]], "h": [1.0]}})


def test_certificate_roundtrip():
    eq = Equilibrium(np.zeros(1), np.zeros(1), np.zeros(1), 0.5)
    cert = RegretCertificate(method="alg2", lambda0=2 / 3, gamma=0.5, N=1,
                             lam=0.0, r_co=1.5, p0=1, shift=eq)
    back = certificate_from_json(certificate_to_json(cert))
    for p in range(1, 8):
        assert bound_dp(back, p) == pytest.approx(bound_dp(cert, p))
    inf_cert = RegretCertificate(method="alg1", lambda0=0.0, gamma=0.5, N=1,
                                 lam=0.5, r_co=1.0, p0=0, shift=eq)
    doc = certificate_to_json(inf_cert)
    assert doc["k0"] is None
    assert math.isinf(certificate_from_json(doc).k0)


def test_loaded_certificate_derives_its_schedule(system_file, tmp_path):
    out = tmp_path / "c.csv"
    assert main(["regret", str(system_file), "--p-max", "2", "--alg", "all",
                 "--out", str(out)]) == 0
    for name in ("alg1", "alg1_refined", "alg2"):
        doc = json.loads((tmp_path / f"c_{name}.cert.json").read_text())
        back = certificate_from_json(doc)
        assert (back.k0, back.a, back.c) == (doc["k0"], doc["a"], doc["c"])
        # stored copies are neither needed nor trusted
        tampered = {k: v for k, v in doc.items() if k not in ("k0", "c")}
        tampered["a"] = 0.5
        again = certificate_from_json(tampered)
        assert (again.k0, again.a, again.c) == (back.k0, back.a, back.c)


def test_cli_rcis(system_file, tmp_path):
    out = tmp_path / "rcis.json"
    rc = main(["rcis", str(system_file), "--tol", "1e-10", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["schema"] == 1
    assert doc["converged"]
    P = polytope_from_json(doc["polytope"])
    from preview_regret.polytope import support

    assert support(P, [1.0]) == pytest.approx(0.5, abs=1e-9)


def test_cli_rcis_preview_flag_zero_equals_default(system_file, tmp_path):
    out0 = tmp_path / "a.json"
    out1 = tmp_path / "b.json"
    assert main(["rcis", str(system_file), "--out", str(out0)]) == 0
    assert main(["rcis", str(system_file), "--preview", "0",
                 "--out", str(out1)]) == 0
    assert json.loads(out0.read_text())["polytope"] == \
        json.loads(out1.read_text())["polytope"]


def test_cli_rcis_collaborative(system_file, tmp_path):
    out = tmp_path / "co.json"
    rc = main(["rcis", str(system_file), "--collaborative", "--tol", "1e-10",
               "--out", str(out)])
    assert rc == 0
    P = polytope_from_json(json.loads(out.read_text())["polytope"])
    from preview_regret.polytope import support

    assert support(P, [1.0]) == pytest.approx(1.5, abs=1e-9)


@pytest.mark.parametrize("which", ["1d", "2d-1"])
def test_cli_rcis_collaborative_with_preview(which, tmp_path):
    # the maximal CIS of the collaborative 2-preview system is the delay
    # form, 2 backward steps from C_co x D^2, and projects onto C_co
    from preview_regret.invariance import max_invariant_set
    from preview_regret.polytope import TAU_SET, project, support
    from preview_regret.systems import collaborative

    system = build_1d()[0] if which == "1d" else build_2d_random(1)
    path = tmp_path / "system.json"
    path.write_text(json.dumps(system_to_json(system)))
    out = tmp_path / "co.json"
    assert main(["rcis", str(path), "--collaborative", "--preview", "2",
                 "--tol", "1e-10", "--out", str(out)]) == 0
    P = polytope_from_json(json.loads(out.read_text())["polytope"])
    C_co, conv = max_invariant_set(collaborative(system), tol=1e-10)
    assert conv
    assert set_equal(P, co_p(system, 2, C_co), TAU_SET)
    assert set_equal(project(P, system.n), C_co, TAU_SET)
    if which == "1d":
        assert support(P, [1.0, 0.0, 0.0]) == pytest.approx(1.5, abs=1e-9)


def test_cli_rcis_nonconvergence_exit_code(system_file_2d, tmp_path):
    out = tmp_path / "rcis.json"
    rc = main(["rcis", str(system_file_2d), "--max-iter", "2",
               "--out", str(out)])
    assert rc == 4
    assert json.loads(out.read_text())["converged"] is False


def test_cli_rcis_over_the_dimension_budget_exits_4(system_file, tmp_path,
                                                   capsys):
    out = tmp_path / "rcis.json"
    rc = main(["rcis", str(system_file), "--preview", "3", "--dim-budget",
               "3", "--out", str(out)])
    assert rc == 4
    assert "preview 3 needs dimension 4 > budget 3" in capsys.readouterr().err
    assert not out.exists()


def test_cli_rcis_past_the_row_cap_exits_4(system_file_2d, tmp_path,
                                           monkeypatch, capsys):
    import preview_regret.polytope as poly

    monkeypatch.setattr(poly, "ROW_CAP", 20)
    out = tmp_path / "rcis.json"
    rc = main(["rcis", str(system_file_2d), "--preview", "2",
               "--out", str(out)])
    assert rc == 4
    err = capsys.readouterr().err
    assert "budget exceeded: Fourier-Motzkin exceeded the 20-row cap" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_cli_malformed_json(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    out = tmp_path / "out.json"
    rc = main(["rcis", str(bad), "--out", str(out)])
    assert rc == 2
    assert not out.exists()


def test_cli_missing_file(tmp_path):
    rc = main(["rcis", str(tmp_path / "nope.json")])
    assert rc == 2


def test_cli_regret_1d(system_file, tmp_path):
    out = tmp_path / "curve.csv"
    rc = main(["regret", str(system_file), "--p0", "1", "--p-max", "8",
               "--alg", "2", "--N", "1", "--tol", "1e-10", "--out", str(out)])
    assert rc == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 8
    for row in rows:
        p = int(row["p"])
        assert float(row["bound_alg2"]) == pytest.approx(2.0 ** -p, abs=1e-9)
        if row["true_dp"]:
            assert float(row["true_dp"]) == pytest.approx(2.0 ** -p, abs=1e-9)
    cert_doc = json.loads((tmp_path / "curve_alg2.cert.json").read_text())
    assert cert_doc["method"] == "alg2"
    assert cert_doc["lambda0"] == pytest.approx(2 / 3, abs=1e-9)


def test_cli_regret_alg3_ladder(system_file, tmp_path):
    out = tmp_path / "curve.csv"
    rc = main(["regret", str(system_file), "--p0", "1", "--p-max", "6",
               "--alg", "3", "--kmax", "10", "--tol", "1e-10",
               "--out", str(out)])
    assert rc == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:
        p = int(row["p"])
        assert row["p_bar"] == "inf"
        assert float(row["bound_alg3"]) == pytest.approx(2.0 ** -p, abs=1e-8)
    report = json.loads((tmp_path / "curve_alg3.report.json").read_text())
    assert report["p_bar"] is None
    assert len(report["ladder"]) == 11


def test_cli_regret_deterministic(system_file, tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    main(["regret", str(system_file), "--p-max", "4", "--alg", "2", "--N", "1",
          "--out", str(out1)])
    main(["regret", str(system_file), "--p-max", "4", "--alg", "2", "--N", "1",
          "--out", str(out2)])
    assert out1.read_text() == out2.read_text()


def test_cli_regret_assumption_exit(tmp_path):
    # zero-width disturbance set: no interior equilibrium anywhere
    from preview_regret.polytope import Box, HPolytope, interval
    from preview_regret.systems import LinearSystem

    S = Box(np.array([-10.0, -1.0]), np.array([10.0, 1.0])).to_polytope()
    sys = LinearSystem([[2.0]], [[1.0]], [[1.0]], interval(0.0, 0.0), S)
    path = tmp_path / "sys.json"
    path.write_text(json.dumps(system_to_json(sys)))
    rc = main(["regret", str(path), "--alg", "1", "--p0", "0",
               "--out", str(tmp_path / "c.csv")])
    assert rc == 3


def test_cli_regret_empty_p0_set(tmp_path, capsys):
    # a^(p-1) * ubar < dbar at p = 1: the 1-preview set is empty, p = 2 is not
    sys, oracle = build_1d(ubar=0.4, dbar=0.5)
    path = tmp_path / "sys.json"
    path.write_text(json.dumps(system_to_json(sys)))
    out = tmp_path / "curve.csv"
    rc = main(["regret", str(path), "--p-max", "4", "--out", str(out)])
    assert rc == 3
    err = capsys.readouterr().err
    assert "1-preview system has an empty maximal invariant set" in err
    assert "Traceback" not in err
    rc = main(["regret", str(path), "--p0", "2", "--p-max", "4",
               "--out", str(out)])
    assert rc == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert [int(r["p"]) for r in rows] == [2, 3, 4]
    for row in rows:
        assert float(row["true_dp"]) == pytest.approx(
            oracle.dp(int(row["p"])), abs=1e-8)


@pytest.mark.parametrize("p0", [0, 1])
def test_cli_regret_reuses_the_p0_fixed_point(p0, system_file, tmp_path,
                                              monkeypatch):
    # one fixed point for C_co, one for C_p0 (whose gap is then measured
    # directly) and one per horizon above p0
    import preview_regret.invariance as inv
    import preview_regret.regret as reg

    calls = []
    real = inv.max_invariant_set

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    for mod in (inv, reg):
        monkeypatch.setattr(mod, "max_invariant_set", counting)
    out = tmp_path / "curve.csv"
    p_max = 4
    rc = main(["regret", str(system_file), "--p0", str(p0), "--p-max",
               str(p_max), "--out", str(out)])
    assert rc == 0
    assert len(calls) == 2 + (p_max - p0)
    oracle = build_1d()[1]
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert [int(r["p"]) for r in rows] == list(range(p0, p_max + 1))
    for row in rows:
        assert float(row["true_dp"]) == pytest.approx(
            oracle.dp(int(row["p"])), abs=1e-8)


def test_cli_regret_refined_certificate_is_one_path(system_file, tmp_path,
                                                    monkeypatch):
    # the refined certificate re-anchors the plain one, so each run makes
    # one ellipsoid search, counted at regret's binding
    import preview_regret.regret as reg
    from preview_regret.invariance import max_invariant_set
    from preview_regret.polytope import project
    from preview_regret.regret import algorithm1, refine_certificate

    calls = []
    real = reg.find_contractive_ellipsoid

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(reg, "find_contractive_ellipsoid", counting)
    docs = {}
    for alg in ("all", "1r"):
        calls.clear()
        out = tmp_path / f"{alg}.csv"
        assert main(["regret", str(system_file), "--p-max", "2", "--alg", alg,
                     "--out", str(out)]) == 0
        assert len(calls) == 1
        docs[alg] = [(tmp_path / f"{alg}_alg1_refined.{kind}.json").read_text()
                     for kind in ("cert", "ellipsoid")]
    assert docs["1r"] == docs["all"]
    system = load_system(system_file)
    C_co, _ = max_invariant_set(collaborative(system), tol=1e-8)
    proj = project(max_invariant_set(augment(system, 1), tol=1e-8)[0], 1)
    cert = refine_certificate(system, C_co,
                              algorithm1(system, C_co, proj, p0=1))
    assert json.loads(json.dumps(certificate_to_json(cert))) == \
        json.loads(docs["all"][0])


def test_cli_regret_ladder_gap_is_zero_past_convergence(system_file,
                                                        tmp_path):
    from preview_regret.polytope import Box, interval
    from preview_regret.systems import LinearSystem

    S = Box(np.array([-2.0, -1.0]), np.array([2.0, 1.0])).to_polytope()
    stable = LinearSystem([[0.5]], [[1.0]], [[1.0]], interval(-0.1, 0.1), S)
    path = tmp_path / "stable.json"
    path.write_text(json.dumps(system_to_json(stable)))
    out = tmp_path / "curve.csv"
    rc = main(["regret", str(path), "--p0", "0", "--p-max", "4",
               "--out", str(out)])
    assert rc == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    # the ladder closes at p_bar = 0, so the gap is zero at every horizon
    assert [r["p_bar"] for r in rows] == ["0.0"] * 5
    assert [r["bound_alg3"] for r in rows] == ["0.0"] * 5
    # a ladder cut off by --kmax says nothing past its last rung
    rc = main(["regret", str(system_file), "--p-max", "5", "--alg", "3",
               "--kmax", "2", "--out", str(out)])
    assert rc == 0
    with open(out) as fh:
        cells = [r["bound_alg3"] for r in csv.DictReader(fh)]
    assert all(cells[:3]) and cells[3:] == ["", ""]


def test_cli_mpc(system_file, tmp_path):
    prefix = tmp_path / "mpc"
    rc = main(["mpc", str(system_file), "--terminal", "auto", "--p", "1",
               "--simulate", "10", "--streams", "2", "--seed", "1",
               "--tol", "1e-10", "--out", str(prefix)])
    assert rc == 0
    dom = json.loads((tmp_path / "mpc_domain.json").read_text())
    P = polytope_from_json(dom["projection"])
    from preview_regret.polytope import support

    assert support(P, [1.0]) == pytest.approx(1.0, abs=1e-8)
    with open(tmp_path / "mpc_bounds.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert float(rows[1]["bound_dp"]) == pytest.approx(0.5, abs=1e-8)
    _, oracle = build_1d()
    assert [int(r["p"]) for r in rows] == list(range(11))
    for r in rows:
        assert float(r["measured_gap"]) == pytest.approx(
            oracle.dp(int(r["p"])), abs=1e-7)
    with open(tmp_path / "mpc_traj_000.csv") as fh:
        traj = list(csv.DictReader(fh))
    assert len(traj) == 10
    assert all(r["feasible"] == "1" for r in traj)


def test_cli_mpc_gap_is_zero_past_convergence(tmp_path):
    from preview_regret.polytope import Box, interval
    from preview_regret.systems import LinearSystem

    S = Box(np.array([-2.0, -1.0]), np.array([2.0, 1.0])).to_polytope()
    stable = LinearSystem([[0.5]], [[1.0]], [[0.0]], interval(-0.1, 0.1), S)
    path = tmp_path / "stable.json"
    path.write_text(json.dumps(system_to_json(stable)))
    term = tmp_path / "terminal.json"
    term.write_text(json.dumps(polytope_to_json(interval(-0.5, 0.5))))
    rc = main(["mpc", str(path), "--terminal", str(term), "--p", "1",
               "--out", str(tmp_path / "m")])
    assert rc == 0
    with open(tmp_path / "m_bounds.csv") as fh:
        gaps = [float(r["measured_gap"]) for r in csv.DictReader(fh)]
    # the ladder from the terminal set reaches the limit [-2, 2] in one step
    assert gaps[0] == pytest.approx(1.5, abs=1e-9)
    assert gaps[1:] == [0.0] * 10


def _unconverged(monkeypatch, which):
    """Make max_invariant_set report an iteration limit on the systems that
    `which` selects, at invariance's binding (the auto terminal set) and at
    mpc's (the limit set of mpc_curve)."""
    import preview_regret.invariance as invariance
    import preview_regret.mpc as mpc

    real = invariance.max_invariant_set

    def fake(sys, *args, **kwargs):
        C, conv = real(sys, *args, **kwargs)
        return C, conv and not which(sys)

    for mod in (invariance, mpc):
        monkeypatch.setattr(mod, "max_invariant_set", fake)


def test_cli_mpc_marks_unconverged_limit_set(system_file, tmp_path,
                                             monkeypatch):
    # the collaborative system has no disturbance channel
    _unconverged(monkeypatch, lambda sys: sys.l == 0)
    rc = main(["mpc", str(system_file), "--p", "1", "--curve-max", "2",
               "--out", str(tmp_path / "m")])
    assert rc == 0
    cert = json.loads((tmp_path / "m_cert.json").read_text())
    assert cert["cmax_exact"] is False
    assert "outer approximation" in cert["note"]


def test_cli_mpc_auto_terminal_unconverged(system_file, tmp_path, monkeypatch,
                                           capsys):
    _unconverged(monkeypatch, lambda sys: sys.l > 0)
    rc = main(["mpc", str(system_file), "--p", "1",
               "--out", str(tmp_path / "m")])
    assert rc == 4
    assert "iteration limit hit" in capsys.readouterr().err
    assert not (tmp_path / "m_cert.json").exists()


def test_cli_mpc_exits_3_without_a_robust_invariant_set(system_file_2d,
                                                       tmp_path, capsys):
    # build_2d_random(0) has no RCIS at preview 0: no automatic terminal set
    rc = main(["mpc", str(system_file_2d), "--out", str(tmp_path / "m")])
    assert rc == 3
    assert "no robust invariant set in the safe set" in \
        capsys.readouterr().err
    assert not (tmp_path / "m_domain.json").exists()


@pytest.mark.parametrize("which", ["1d", "2d-1"])
def test_cli_mpc_computes_the_automatic_terminal_set_below_the_check_tol(
        which, tmp_path, capsys):
    # at a --tol looser than the invariance check's 1e-7, the automatic
    # terminal set is still a fixed point at TAU_SWEEP: it passes the check,
    # and the feasible domain is the default run's
    system = build_1d()[0] if which == "1d" else build_2d_random(1)
    path = tmp_path / "system.json"
    path.write_text(json.dumps(system_to_json(system)))
    for tol, out in (("1e-6", "loose"), ("1e-8", "default")):
        assert main(["mpc", str(path), "--tol", tol, "--p", "2",
                     "--simulate", "20", "--streams", "3",
                     "--out", str(tmp_path / out)]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert out.count("infeasible steps: 0") == 2
    assert ((tmp_path / "loose_domain.json").read_text()
            == (tmp_path / "default_domain.json").read_text())


def test_cli_mpc_rejects_bad_terminal(system_file, tmp_path):
    bad = tmp_path / "terminal.json"
    bad.write_text(json.dumps(polytope_to_json(unit_box(1))))  # not invariant
    rc = main(["mpc", str(system_file), "--terminal", str(bad), "--p", "1",
               "--out", str(tmp_path / "m")])
    assert rc == 2


def test_cli_mpc_rejects_empty_terminal(system_file, tmp_path, capsys):
    empty = tmp_path / "terminal.json"
    empty.write_text(json.dumps({"H": [[1.0], [-1.0]], "h": [-1.0, 0.5]}))
    rc = main(["mpc", str(system_file), "--terminal", str(empty), "--p", "1",
               "--out", str(tmp_path / "m")])
    assert rc == 2
    assert "terminal set is empty" in capsys.readouterr().err
    assert not (tmp_path / "m_domain.json").exists()


def test_cli_mpc_rejects_unbounded_terminal(system_file, tmp_path, capsys):
    half_line = tmp_path / "terminal.json"
    half_line.write_text(json.dumps({"H": [[1.0]], "h": [0.5]}))
    rc = main(["mpc", str(system_file), "--terminal", str(half_line),
               "--p", "1", "--out", str(tmp_path / "m")])
    assert rc == 2
    assert "terminal set is unbounded" in capsys.readouterr().err
    assert not (tmp_path / "m_domain.json").exists()
    assert not (tmp_path / "m_cert.json").exists()


def test_cli_mpc_rejects_a_terminal_set_of_another_dimension(
        system_file, tmp_path, capsys):
    planar = tmp_path / "terminal.json"
    planar.write_text(json.dumps(polytope_to_json(unit_box(2))))
    rc = main(["mpc", str(system_file), "--terminal", str(planar),
               "--p", "1", "--out", str(tmp_path / "m")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "terminal set has dimension 2, the state space 1" in err
    assert "Traceback" not in err
    assert not (tmp_path / "m_domain.json").exists()


def test_cli_mpc_names_the_check_tolerance_of_a_terminal_file(
        tmp_path, capsys):
    # rcis stops at its --tol 1e-6, looser than mpc's invariance check at
    # 1e-7; the message names the check and the remedy, which passes it
    system = tmp_path / "planar.json"
    system.write_text(json.dumps(system_to_json(build_2d_random(1))))
    for tol in ("1e-6", "1e-8"):
        out = tmp_path / f"rcis_{tol}.json"
        assert main(["rcis", str(system), "--tol", tol,
                     "--out", str(out)]) == 0
        terminal = tmp_path / f"terminal_{tol}.json"
        doc = json.loads(out.read_text())
        terminal.write_text(json.dumps(doc["polytope"]))
        capsys.readouterr()
        rc = main(["mpc", str(system), "--terminal", str(terminal), "--p", "2",
                   "--curve-max", "2", "--out", str(tmp_path / f"m_{tol}")])
        err = capsys.readouterr().err
        if tol == "1e-6":
            assert rc == 2
            assert ("terminal set is not robustly invariant at the check "
                    "tolerance 1e-7") in err
            assert "rcis --tol 1e-8" in err
            assert not (tmp_path / f"m_{tol}_domain.json").exists()
        else:
            assert rc == 0, err


@pytest.mark.parametrize("which", ["system", "scenario", "terminal"])
def test_cli_mpc_reports_malformed_json_with_line_and_column(
        which, system_file, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"H": [[1.0], [-1.0]],\n "h": [0.5 0.5]}')
    files = {"system": str(system_file), "scenario": None, "terminal": "auto"}
    files[which] = str(bad)
    argv = ["mpc", files["system"], "--terminal", files["terminal"],
            "--p", "1", "--out", str(tmp_path / "m")]
    if files["scenario"]:
        argv += ["--simulate", "5", "--scenario", files["scenario"]]
    rc = main(argv)
    assert rc == 2
    err = capsys.readouterr().err
    assert f"input error: {bad}: invalid JSON at line 2, column 12" in err
    assert "Traceback" not in err
    assert not (tmp_path / "m_domain.json").exists()


def test_cli_demo(monkeypatch, capsys):
    # one regret_curve run: the limit set plus one fixed point per horizon
    # p = 1..6, and no contractive-ellipsoid method
    import preview_regret.invariance as inv
    import preview_regret.regret as reg

    calls = []
    real = inv.max_invariant_set

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    def forbidden(*args, **kwargs):
        raise AssertionError("demo-1d ran algorithm1")

    for mod in (inv, reg):
        monkeypatch.setattr(mod, "max_invariant_set", counting)
    monkeypatch.setattr(reg, "algorithm1", forbidden)
    assert main(["demo-1d"]) == 0
    assert len(calls) == 7
    out = capsys.readouterr().out
    assert "certified bound meets the exact regret" in out


@pytest.mark.parametrize("quantity, row", [
    ("dp", "p=1 true d_p"), ("cmax_co_radius", "limit set radius")])
def test_cli_demo_exits_3_when_a_closed_form_is_missed(quantity, row,
                                                       monkeypatch, capsys):
    # demo-1d checks every number it prints against the closed forms; an
    # oracle off by 1e-6 fails the first row it reads, before any output
    from preview_regret.models import OneDimOracle

    real = getattr(OneDimOracle, quantity)
    monkeypatch.setattr(OneDimOracle, quantity,
                        lambda self, *a: real(self, *a) + 1e-6)
    assert main(["demo-1d"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert f"assumptions unverifiable: demo-1d: {row} is " in err
    assert "they differ by more than 1e-09" in err


def test_scenario_loader(tmp_path):
    from preview_regret.polytope import interval

    D = interval(-0.5, 0.5)
    explicit = tmp_path / "scenario.json"
    explicit.write_text(json.dumps(
        {"schema": 1, "streams": [[[0.1], [0.2]], [[0.0], [-0.3]]]}))
    rng = np.random.default_rng(0)
    streams = load_scenario(str(explicit), D, T=2, count=5, rng=rng)
    assert len(streams) == 2
    assert streams[0].shape == (2, 1)
    # a scenario file leaves the generator where it was
    assert rng.bit_generator.state == \
        np.random.default_rng(0).bit_generator.state
    sampled = load_scenario(None, D, T=4, count=3,
                            rng=np.random.default_rng(9))
    again = load_scenario(None, D, T=4, count=3,
                          rng=np.random.default_rng(9))
    assert len(sampled) == 3
    assert all(np.array_equal(a, b) for a, b in zip(sampled, again))
    assert all(np.all(np.abs(s) <= 0.5) for s in sampled)


def test_cli_mpc_on_a_disturbance_set_with_no_interior_exits_2(tmp_path):
    # sampling streams from d1 = d2 used to loop forever; run it in a
    # subprocess so that a regression fails at the timeout instead
    import os
    import subprocess
    import sys
    from pathlib import Path

    import preview_regret
    from preview_regret.polytope import HPolytope
    from preview_regret.systems import LinearSystem

    base = build_2d_random(1)
    D = HPolytope([[1.0, -1.0], [-1.0, 1.0], [1.0, 0.0], [-1.0, 0.0]],
                  [0.0, 0.0, 0.1, 0.1])
    flat = LinearSystem(base.A, base.B, np.c_[base.E, base.E], D, base.S_xu)
    path = tmp_path / "flat.json"
    path.write_text(json.dumps(system_to_json(flat)))
    src = str(Path(preview_regret.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run(
        [sys.executable, "-m", "preview_regret", "mpc", str(path),
         "--simulate", "5", "--out", str(tmp_path / "flat_mpc")],
        capture_output=True, text=True, env=env, timeout=60)
    assert run.returncode == 2
    assert "no interior" in run.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == ["flat.json"]


def test_cli_regret_alg1_writes_ellipsoid(system_file, tmp_path):
    out = tmp_path / "c.csv"
    rc = main(["regret", str(system_file), "--p0", "1", "--p-max", "3",
               "--alg", "1", "--tol", "1e-9", "--out", str(out)])
    assert rc == 0
    ell = json.loads((tmp_path / "c_alg1.ellipsoid.json").read_text())
    assert set(ell) == {"schema", "Q", "R1", "R2", "lambda_a"}
    assert 0.0 < ell["lambda_a"] < 1.0
    Q = np.asarray(ell["Q"])
    assert np.all(np.linalg.eigvalsh(Q) > 0)


def test_regret_csv_header_is_stable(system_file, tmp_path):
    out = tmp_path / "c.csv"
    main(["regret", str(system_file), "--p-max", "2", "--alg", "2",
          "--N", "1", "--out", str(out)])
    header = out.read_text().splitlines()[0]
    assert header == ("p,true_dp,bound_alg1,bound_alg1_refined,"
                      "bound_alg2,bound_alg3,p_bar")


def test_trajectory_csv_header_is_stable(system_file, tmp_path):
    prefix = tmp_path / "m"
    main(["mpc", str(system_file), "--p", "1", "--simulate", "3",
          "--streams", "1", "--out", str(prefix)])
    header = (tmp_path / "m_traj_000.csv").read_text().splitlines()[0]
    assert header == "t,x0,u0,d0,feasible,cost"


def test_trajectory_csv_cells_are_python_floats(tmp_path):
    # NumPy scalars are written as repr(float); an infeasible step leaves
    # its u cells empty
    from preview_regret.serialize import write_trajectory_csv

    x, d = np.array([0.1, -0.2]), np.array([0.05])
    log = [{"t": 0, "x": x, "u": np.array([0.3]), "d": d, "feasible": True,
            "cost": 0.14},
           {"t": 1, "x": x, "u": None, "d": d, "feasible": False,
            "cost": np.nan}]
    path = tmp_path / "traj.csv"
    write_trajectory_csv(path, log, 2, 1, 1)
    assert path.read_bytes() == (b"t,x0,x1,u0,d0,feasible,cost\r\n"
                                 b"0,0.1,-0.2,0.3,0.05,1,0.14\r\n"
                                 b"1,0.1,-0.2,,0.05,0,nan\r\n")


def test_cli_mpc_walks_the_collaborative_ladder_once(tmp_path, monkeypatch):
    # the domain at --p 2 is rung 2 of the ladder that gives the gap curve;
    # a second walk from the terminal set would add two pre calls
    import preview_regret.invariance as inv

    calls = []
    real = inv.pre

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(inv, "pre", counting)
    path = tmp_path / "planar_1.json"
    path.write_text(json.dumps(system_to_json(build_2d_random(1))))
    assert main(["mpc", str(path), "--p", "2",
                 "--out", str(tmp_path / "m")]) == 0
    assert len(calls) == 37


def test_cli_mpc_writes_the_domain_of_a_closed_ladder_before_exit_3(
        tmp_path, capsys):
    # D = {0}: the ladder from [-0.5, 0.5] closes at rung 1, so the domain
    # at p = 3 continues it, and the only forced equilibrium has no margin
    from preview_regret.polytope import Box, HPolytope, interval
    from preview_regret.systems import LinearSystem

    S = Box(np.array([-2.0, -1.0]), np.array([2.0, 1.0])).to_polytope()
    stable = LinearSystem([[0.5]], [[1.0]], [[0.0]],
                          HPolytope([[1.0], [-1.0]], [0.0, 0.0]), S)
    path = tmp_path / "stable.json"
    path.write_text(json.dumps(system_to_json(stable)))
    term = tmp_path / "terminal.json"
    term.write_text(json.dumps(polytope_to_json(interval(-0.5, 0.5))))
    rc = main(["mpc", str(path), "--terminal", str(term), "--p", "3",
               "--out", str(tmp_path / "m")])
    assert rc == 3
    assert "forced equilibrium exists only on the constraint boundary" in \
        capsys.readouterr().err
    dom = json.loads((tmp_path / "m_domain.json").read_text())
    assert dom["p"] == 3
    assert dom["projection"] == {"H": [[1.0], [-1.0]], "h": [2.0, 2.0]}
    assert not (tmp_path / "m_cert.json").exists()
    assert not (tmp_path / "m_bounds.csv").exists()


def test_cli_rejects_unbounded_safe_set(tmp_path):
    doc = {
        "schema": 1,
        "A": [[2.0]], "B": [[1.0]], "E": [[1.0]],
        "D": {"H": [[1.0], [-1.0]], "h": [0.5, 0.5]},
        "S_xu": {"H": [[1.0, 0.0], [0.0, 1.0], [0.0, -1.0]],
                 "h": [10.0, 1.0, 1.0]},  # no lower bound on x
    }
    path = tmp_path / "ub.json"
    path.write_text(json.dumps(doc))
    rc = main(["rcis", str(path), "--out", str(tmp_path / "o.json")])
    assert rc == 2


@pytest.mark.parametrize("name", ["D", "S_xu"])
@pytest.mark.parametrize("command", ["rcis", "regret", "mpc"])
def test_cli_rejects_an_empty_input_set(name, command, tmp_path, capsys):
    doc = system_to_json(build_1d()[0])
    n = len(doc[name]["H"][0])
    doc[name]["H"] = [[1.0] + [0.0] * (n - 1), [-1.0] + [0.0] * (n - 1)]
    doc[name]["h"] = [-0.5, -0.5]  # x <= -0.5 and x >= 0.5
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(doc))
    rc = main([command, str(path), "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"{name} must be a nonempty polytope" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command, flag, value", [
    ("rcis", "--preview", "-1"), ("rcis", "--max-iter", "-1"),
    ("regret", "--p0", "-1"), ("regret", "--p-max", "-3"),
    ("regret", "--kmax", "-1"), ("regret", "--N", "0"), ("regret", "--N", "-2"),
    ("mpc", "--p", "0"), ("mpc", "--p", "-2"), ("mpc", "--streams", "-1"),
    ("mpc", "--simulate", "-2"), ("mpc", "--curve-max", "-3"),
    ("regret", "--p-max", "0"),  # below the default --p0 of 1
    ("rcis", "--dim-budget", "0"), ("rcis", "--dim-budget", "-1"),
    ("regret", "--dim-budget", "0"), ("regret", "--dim-budget", "-3"),
])
def test_cli_rejects_an_out_of_range_count(command, flag, value, system_file,
                                           tmp_path, capsys, monkeypatch):
    import preview_regret.invariance as inv

    def no_fixed_point(*args, **kwargs):
        raise AssertionError("a fixed point ran")

    monkeypatch.setattr(inv, "max_invariant_set", no_fixed_point)
    rc = main([command, str(system_file), flag, value,
               "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"{flag} must be at least" in err
    assert "Traceback" not in err
    assert [p.name for p in tmp_path.iterdir()] == [system_file.name]


@pytest.mark.parametrize("budget, calls", [(None, 4), ("2", 2)])
def test_cli_regret_runs_one_fixed_point_per_horizon(
        budget, calls, system_file, tmp_path, monkeypatch):
    # the collaborative run plus one per horizon p = 1..3; under a budget
    # of 2 only p = 1 fits, and no horizon past it is computed
    import preview_regret.invariance as inv
    import preview_regret.regret as regret

    seen = []
    real = inv.max_invariant_set

    def counting(*args, **kwargs):
        seen.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(inv, "max_invariant_set", counting)
    monkeypatch.setattr(regret, "max_invariant_set", counting)
    out = tmp_path / "r.csv"
    argv = ["regret", str(system_file), "--p0", "1", "--p-max", "3",
            "--out", str(out)]
    assert main(argv + (["--dim-budget", budget] if budget else [])) == 0
    assert len(seen) == calls
    with open(out, newline="") as fh:
        filled = [row["p"] for row in csv.DictReader(fh) if row["true_dp"]]
    assert filled == (["1", "2", "3"] if budget is None else ["1"])


def test_cli_regret_certifies_from_the_converged_p0_set(tmp_path):
    # the p = 1 fixed point converges at step 244: the certificates read
    # that set, the same one the p = 1 true_dp cell measures
    from preview_regret.polytope import Box, interval
    from preview_regret.systems import LinearSystem

    S = Box(np.array([-10.0, -1.0]), np.array([10.0, 1.0])).to_polytope()
    s = LinearSystem([[1.07]], [[1.0]], [[1.0]], interval(-0.5, 0.5), S)
    path = tmp_path / "a107.json"
    path.write_text(json.dumps(system_to_json(s)))
    out = tmp_path / "r.csv"
    assert main(["regret", str(path), "--p-max", "2", "--alg", "2",
                 "--out", str(out)]) == 0
    cert = json.loads((tmp_path / "r_alg2.cert.json").read_text())
    assert cert["cmax_exact"] is True
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["p"] for row in rows] == ["1", "2"]
    for row in rows:
        assert float(row["bound_alg2"]) >= float(row["true_dp"]) - 1e-9


@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
@pytest.mark.parametrize("command", ["rcis", "regret", "mpc"])
def test_cli_rejects_a_tol_that_is_not_finite_and_nonnegative(
        command, value, system_file, tmp_path, capsys):
    rc = main([command, str(system_file), "--tol", value,
               "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "--tol must be a finite number at least 0" in err
    assert "Traceback" not in err
    assert [p.name for p in tmp_path.iterdir()] == [system_file.name]


def test_cli_regret_at_a_loose_tol_checks_nesting_at_that_tol(tmp_path):
    # at --tol 1e-6 the ladder bracket stops 2d-5's horizon 3 with a
    # projection about 2.8e-7 outside the limit set, past the check
    # tolerance 1e-7 but within the sweep's own tol
    system = tmp_path / "planar_5.json"
    system.write_text(json.dumps(system_to_json(build_2d_random(5))))
    out = tmp_path / "regret.csv"
    assert main(["regret", str(system), "--p-max", "4", "--tol", "1e-6",
                 "--out", str(out)]) == 0
    rows = list(csv.DictReader(out.open()))
    assert [row["p"] for row in rows] == ["1", "2", "3", "4"]
    for row in rows:
        for col in (c for c in row if c.startswith("bound_")):
            assert float(row[col]) >= float(row["true_dp"]) - 1e-6


def test_cli_regret_without_a_disturbance_channel(tmp_path):
    # E has no column, so a horizon costs no dimension and every one is
    # within the budget; previewing nothing has no value, so d_p = 0
    doc = {"A": [[1.2]], "B": [[1.0]], "E": [[]],
           "D": {"H": [[]], "h": [1.0]},
           "S_xu": {"H": [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]],
                    "h": [1.0, 1.0, 0.5, 0.5]}}
    path, out = tmp_path / "sys.json", tmp_path / "r.csv"
    path.write_text(json.dumps(doc))
    assert main(["regret", str(path), "--p-max", "4", "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [int(row["p"]) for row in rows] == [1, 2, 3, 4]
    for row in rows:
        cols = ["true_dp"] + [c for c in row if c.startswith("bound_")]
        assert len(cols) == 5 and all(float(row[c]) == 0.0 for c in cols)


def test_cli_mpc_simulates_a_system_without_input(tmp_path, capsys):
    doc = {"A": [[0.5]], "B": [[]], "E": [[1.0]],
           "D": {"H": [[1.0], [-1.0]], "h": [0.1, 0.1]},
           "S_xu": {"H": [[1.0], [-1.0]], "h": [1.0, 1.0]}}
    path = tmp_path / "sys.json"
    path.write_text(json.dumps(doc))
    assert main(["mpc", str(path), "--simulate", "3", "--streams", "1",
                 "--out", str(tmp_path / "m")]) == 0
    assert "infeasible steps: 0" in capsys.readouterr().out


@pytest.mark.parametrize("which", ["1d", "2d-1"])
def test_cli_regret_sweep_matches_true_dp_per_horizon(which, tmp_path):
    # regret_curve resumes each horizon's fixed point from the one below; a
    # true_dp run alone, and on 1-D the closed form, give the same column
    from preview_regret.invariance import max_invariant_set
    from preview_regret.systems import collaborative

    system, oracle = build_1d() if which == "1d" else (build_2d_random(1),
                                                       None)
    path = tmp_path / "system.json"
    path.write_text(json.dumps(system_to_json(system)))
    out = tmp_path / "r.csv"
    assert main(["regret", str(path), "--p-max", "5", "--alg", "3",
                 "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    C_co, conv = max_invariant_set(collaborative(system), tol=1e-8)
    assert conv and [int(row["p"]) for row in rows] == [1, 2, 3, 4, 5]
    for row in rows:
        p, got = int(row["p"]), float(row["true_dp"])
        assert abs(got - regret_dp(system, p, C_co)) <= 1e-12
        if oracle is not None:
            assert abs(got - oracle.dp(p)) <= 1e-8


def test_cli_mpc_exits_3_on_a_non_stabilizable_system(tmp_path, capsys):
    # x1 <- 2 x1 whatever u and d do: neither method can certify
    doc = {
        "schema": 1,
        "A": [[2.0, 0.0], [0.0, 0.5]], "B": [[0.0], [1.0]],
        "E": [[0.0], [1.0]],
        "D": {"H": [[1.0], [-1.0]], "h": [0.1, 0.1]},
        "S_xu": {"H": np.vstack([np.eye(3), -np.eye(3)]).tolist(),
                 "h": [1.0] * 6},
    }
    path = tmp_path / "sys.json"
    path.write_text(json.dumps(doc))
    rc = main(["mpc", str(path), "--out", str(tmp_path / "m")])
    assert rc == 3
    err = capsys.readouterr().err
    assert "assumptions unverifiable: collaborative system is not " \
        "stabilizable" in err
    assert not (tmp_path / "m_cert.json").exists()
    rc = main(["regret", str(path), "--p-max", "2",
               "--out", str(tmp_path / "r.csv")])
    assert rc == 0
    assert "alg1: not certified" in capsys.readouterr().err


@pytest.mark.parametrize("field, value, where", [
    ("D.h", [0.5, "x"], "D.h[1]"),
    ("D.h", [0.5, float("nan")], "D.h[1]"),
    ("D.h", [[0.5], 0.5], "D.h[0]"),
    ("A", [[None]], "A[0][0]"),
    ("A", [[10 ** 400]], "A[0][0]"),
    ("terminal", {"H": [[1.0], [-1.0]], "h": [0.5, "x"]}, "terminal.h[1]"),
])
def test_cli_rejects_a_malformed_number(field, value, where, tmp_path,
                                        capsys):
    doc = system_to_json(build_1d()[0])
    argv = ["rcis"]
    if field == "terminal":
        terminal = tmp_path / "terminal.json"
        terminal.write_text(json.dumps(value))
        argv = ["mpc", "--terminal", str(terminal)]
    elif field == "D.h":
        doc["D"]["h"] = value
    else:
        doc[field] = value
    path = tmp_path / "sys.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    rc = main(argv + [str(path), "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"input error: {where}: expected a finite number" in err
    assert "Traceback" not in err
    assert not any(p.name.startswith("out") for p in tmp_path.iterdir())


@pytest.mark.parametrize("scenario, where", [
    ([[[0.1]]], "expected a JSON object"),
    ({"streams": {"0": [[0.1]]}}, "streams: expected an array"),
    ({"streams": [[[0.1], [0.2]]]}, "streams[0]: has 2 steps, needs at "
                                    "least 7"),
    ({"streams": [[[0.1], ["x"]]]}, "streams[0][1][0]: expected a finite"),
    ({"seed": 0, "count": 1, "T": 7}, "missing field 'streams'"),
])
def test_cli_mpc_rejects_a_bad_scenario_before_any_output(
        scenario, where, system_file, tmp_path, capsys):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    rc = main(["mpc", str(system_file), "--p", "2", "--simulate", "5",
               "--scenario", str(path), "--out", str(tmp_path / "m")])
    assert rc == 2
    err = capsys.readouterr().err
    assert where in err
    assert "Traceback" not in err
    assert not (tmp_path / "m_domain.json").exists()


@pytest.mark.parametrize("scenario, where", [
    ([[[0.1]]], "expected a JSON object"),
    ({"streams": [[[0.1]]]}, "streams[0]: has 1 steps, needs at least 2"),
    ({"seed": 0, "count": 1, "T": 7}, "missing field 'streams'"),
    (None, "No such file or directory"),
])
def test_cli_mpc_checks_a_scenario_without_simulate(
        scenario, where, system_file, tmp_path, capsys):
    # --scenario is read whenever it is given, with or without --simulate
    path = tmp_path / "scenario.json"
    if scenario is not None:
        path.write_text(json.dumps(scenario))
    rc = main(["mpc", str(system_file), "--p", "2", "--scenario", str(path),
               "--out", str(tmp_path / "m")])
    assert rc == 2
    err = capsys.readouterr().err
    assert where in err
    assert "Traceback" not in err
    assert not (tmp_path / "m_domain.json").exists()


def test_cli_mpc_accepts_a_good_scenario_without_simulate(system_file,
                                                          tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"streams": [[[0.1], [-0.1]]]}))
    rc = main(["mpc", str(system_file), "--p", "2", "--scenario", str(path),
               "--out", str(tmp_path / "m")])
    assert rc == 0
    assert (tmp_path / "m_cert.json").exists()
    assert not (tmp_path / "m_traj_000.csv").exists()


def test_cli_mpc_initial_states_do_not_reuse_the_stream_draws(tmp_path,
                                                              monkeypatch):
    # on 2d-1, D = [-0.3, 0.3]: a second generator with the same seed drew
    # the raw initial states of streams 0-2 as stream 0's first six
    # disturbances divided by 0.3
    import preview_regret.mpc as mpc
    import preview_regret.solver as solver

    system = build_2d_random(1)
    assert np.array_equal(system.D.H, [[1.0], [-1.0]])
    assert np.array_equal(system.D.h, [0.3, 0.3])
    path = tmp_path / "system.json"
    path.write_text(json.dumps(system_to_json(system)))
    raw, streams = [], []
    real_project, real_simulate = solver.project_point, mpc.simulate_closed_loop

    def spy_project(x, P):
        raw.append(np.array(x))
        return real_project(x, P)

    def spy_simulate(sys, cfg, x0, stream, T):
        streams.append(np.array(stream))
        return real_simulate(sys, cfg, x0, stream, T)

    monkeypatch.setattr(solver, "project_point", spy_project)
    monkeypatch.setattr(mpc, "simulate_closed_loop", spy_simulate)
    assert main(["mpc", str(path), "--p", "2", "--simulate", "6",
                 "--streams", "3", "--seed", "0",
                 "--out", str(tmp_path / "m")]) == 0
    assert len(raw) == 3 and len(streams) == 3
    draws = np.concatenate(raw)
    assert draws.shape == (6,)
    assert not np.allclose(draws, streams[0][:6, 0] / 0.3)


@pytest.mark.parametrize("which", ["2d-1", "wind_turbine"])
@pytest.mark.parametrize("P", [0, 1, 2])
def test_a_collaborative_system_is_a_system_file(which, P, tmp_path):
    # rcis on the written collaborative P-preview system gives the set of
    # rcis --collaborative --preview P on the system itself
    system = (build_2d_random(1) if which == "2d-1"
              else build_template(which)[0])
    own, co = tmp_path / "system.json", tmp_path / "co.json"
    own.write_text(json.dumps(system_to_json(system)))
    co.write_text(json.dumps(system_to_json(collaborative(augment(system,
                                                                  P)))))
    loaded = load_system(co)
    assert loaded.l == 0 and loaded.n == system.n + P * system.l
    assert main(["rcis", str(co), "--tol", "1e-10",
                 "--out", str(tmp_path / "file.json")]) == 0
    assert main(["rcis", str(own), "--collaborative", "--preview", str(P),
                 "--tol", "1e-10", "--out", str(tmp_path / "flag.json")]) == 0
    file_doc = json.loads((tmp_path / "file.json").read_text())
    flag_doc = json.loads((tmp_path / "flag.json").read_text())
    assert file_doc["polytope"] == flag_doc["polytope"]


@pytest.mark.parametrize("which", ["1d", "2d-1"])
def test_regret_curve_rows_are_the_regret_csv(which, tmp_path):
    from preview_regret.regret import regret_curve
    from preview_regret.serialize import REGRET_FIELDS, write_rows_csv

    system = build_1d()[0] if which == "1d" else build_2d_random(1)
    path = tmp_path / "system.json"
    path.write_text(json.dumps(system_to_json(system)))
    cli_csv, own_csv = tmp_path / "cli.csv", tmp_path / "own.csv"
    assert main(["regret", str(path), "--p0", "1", "--p-max", "4",
                 "--out", str(cli_csv)]) == 0
    write_rows_csv(own_csv, REGRET_FIELDS,
                   regret_curve(system, p0=1, p_max=4).rows)
    with open(cli_csv, newline="") as fh:
        want = list(csv.reader(fh))
    with open(own_csv, newline="") as fh:
        assert list(csv.reader(fh)) == want
    assert len(want) == 5 and all(all(row) for row in want)


@pytest.mark.parametrize("value, cell", [(float("-inf"), "-inf"),
                                         (float("inf"), "inf")])
def test_an_infinite_cell_keeps_its_sign(value, cell, tmp_path):
    from preview_regret.serialize import write_rows_csv

    path = tmp_path / "rows.csv"
    write_rows_csv(path, ["a"], [{"a": value}])
    with open(path, newline="") as fh:
        assert list(csv.reader(fh)) == [["a"], [cell]]
