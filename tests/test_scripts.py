"""The example scripts under scripts/, run in-process."""

import csv
import importlib.util
import sys
from pathlib import Path

import pytest

import preview_regret
import preview_regret.invariance as inv
import preview_regret.regret as reg

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _spy_fixed_points(monkeypatch, modules):
    """Record the state dimension of every max_invariant_set call made
    through any of modules."""
    dims = []
    real = inv.max_invariant_set

    def spy(system, *args, **kwargs):
        dims.append(system.n)
        return real(system, *args, **kwargs)

    for mod in modules:
        if getattr(mod, "max_invariant_set", None) is real:
            monkeypatch.setattr(mod, "max_invariant_set", spy)
    return dims


def test_bounds_2d_certifies_and_measures_one_p1_set(tmp_path, monkeypatch):
    script = _load("bounds_2d")
    dims = _spy_fixed_points(monkeypatch, (inv, reg, preview_regret, script))
    out = tmp_path / "b.csv"
    monkeypatch.setattr(sys, "argv", ["bounds_2d.py", "--p-max", "2",
                                      "--out", str(out)])
    script.main()
    system = preview_regret.build_2d_random(0)
    # the limit set, then one fixed point per horizon p = 1, 2
    assert dims == [system.n, system.n + system.l, system.n + 2 * system.l]
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["p"] for row in rows] == ["1", "2"]
    # the p = 1 regret and the first ladder rung measure the same set
    assert rows[0]["true_dp"] == rows[0]["bound_alg3"]
    for row in rows:
        for col in ("bound_alg1", "bound_alg1_refined", "bound_alg2",
                    "bound_alg2_N8", "bound_alg3"):
            assert float(row[col]) >= float(row["true_dp"]) - 1e-9


def test_spine_1d_meets_the_closed_form(tmp_path, monkeypatch):
    script = _load("spine_1d")
    out = tmp_path / "s.csv"
    monkeypatch.setattr(sys, "argv", ["spine_1d.py", "--p-max", "3",
                                      "--out", str(out)])
    script.main()
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["p"] for row in rows] == ["1", "2", "3"]
    for row in rows:
        assert float(row["true_dp"]) == pytest.approx(
            float(row["oracle_dp"]), abs=1e-8)


def test_mpc_horizon_sweep_walks_one_ladder(monkeypatch, capsys):
    # the p = 1 domain, the certificate and the gap column come from one
    # mpc_curve run, so one ladder of p_max rungs is walked from C
    script = _load("mpc_horizon_sweep")
    calls = []
    real = inv.pre

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(inv, "pre", counting)
    monkeypatch.setattr(sys, "argv", ["mpc_horizon_sweep.py", "--p-max", "4"])
    script.main()
    assert capsys.readouterr().out.splitlines() == [
        "terminal anchor: lambda0=0.4530 gamma=0.6239 N=2",
        " p | measured gap | certified bound",
        " 1 | 0.27294750   | 1.37130503",
        " 2 | 0.07125701   | 0.51575670",
        " 3 | 0.00000000   | 0.51575670",
        " 4 | 0.00000000   | 0.19397943",
    ]
    assert len(calls) == 40
