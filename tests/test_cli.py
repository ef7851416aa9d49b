import csv
import json
import math

import numpy as np
import pytest

from preview_regret.cli import main
from preview_regret.models import build_1d, build_2d_random
from preview_regret.serialize import (
    SchemaError,
    certificate_from_json,
    certificate_to_json,
    load_scenario,
    polytope_from_json,
    polytope_to_json,
    system_from_json,
    system_to_json,
)
from preview_regret.polytope import set_equal, unit_box
from preview_regret.regret import RegretCertificate, bound_dp
from preview_regret.systems import Equilibrium


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


def test_cli_rcis_nonconvergence_exit_code(system_file_2d, tmp_path):
    out = tmp_path / "rcis.json"
    rc = main(["rcis", str(system_file_2d), "--max-iter", "2",
               "--out", str(out)])
    assert rc == 4
    assert json.loads(out.read_text())["converged"] is False


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
    from preview_regret.serialize import load_system
    from preview_regret.systems import augment, collaborative

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


def _unconverged(monkeypatch, kind):
    """Make max_invariant_set report an iteration limit on systems of `kind`."""
    import preview_regret.invariance as invariance

    real = invariance.max_invariant_set

    def fake(sys, *args, **kwargs):
        C, conv = real(sys, *args, **kwargs)
        return C, conv and not isinstance(sys, kind)

    monkeypatch.setattr(invariance, "max_invariant_set", fake)


def test_cli_mpc_marks_unconverged_limit_set(system_file, tmp_path,
                                             monkeypatch):
    from preview_regret.systems import DeterministicSystem

    _unconverged(monkeypatch, DeterministicSystem)
    rc = main(["mpc", str(system_file), "--p", "1", "--curve-max", "2",
               "--out", str(tmp_path / "m")])
    assert rc == 0
    cert = json.loads((tmp_path / "m_cert.json").read_text())
    assert cert["cmax_exact"] is False
    assert "outer approximation" in cert["note"]


def test_cli_mpc_auto_terminal_unconverged(system_file, tmp_path, monkeypatch,
                                           capsys):
    from preview_regret.systems import LinearSystem

    _unconverged(monkeypatch, LinearSystem)
    rc = main(["mpc", str(system_file), "--p", "1",
               "--out", str(tmp_path / "m")])
    assert rc == 4
    assert "iteration limit hit" in capsys.readouterr().err
    assert not (tmp_path / "m_cert.json").exists()


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


def test_cli_demo(capsys):
    assert main(["demo-1d"]) == 0
    out = capsys.readouterr().out
    assert "certified bound meets the exact regret" in out


def test_scenario_loader(tmp_path):
    from preview_regret.polytope import interval

    D = interval(-0.5, 0.5)
    explicit = tmp_path / "scenario.json"
    explicit.write_text(json.dumps(
        {"schema": 1, "streams": [[[0.1], [0.2]], [[0.0], [-0.3]]]}))
    streams = load_scenario(str(explicit), D, T=2, count=5, seed=0)
    assert len(streams) == 2
    assert streams[0].shape == (2, 1)
    sampled = load_scenario(None, D, T=4, count=3, seed=9)
    again = load_scenario(None, D, T=4, count=3, seed=9)
    assert len(sampled) == 3
    assert all(np.array_equal(a, b) for a, b in zip(sampled, again))
    assert all(np.all(np.abs(s) <= 0.5) for s in sampled)


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
