"""Batch front-end: exit codes, file layout, determinism."""
import inspect
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import garzfv
from garzfv import cli, iteration, verify
from garzfv.cli import main
from garzfv.config import (config_from_scenario, dump_config_text,
                           parse_config_text)
from garzfv.scenarios import scenario


def run(tmp_path, *argv) -> int:
    return main(list(argv) + ["--seed-dir", str(tmp_path)])


def read_csv(path):
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        body = np.loadtxt(fh, delimiter=",")
    return header, body


def test_solve_writes_run_directory(tmp_path):
    code = run(tmp_path, "solve", "--scenario", "shock",
               "--t-final", "0.25", "--n-cells", "96", "--n-output", "5")
    assert code == 0
    out = tmp_path / "solve-shock"
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["grid"]["n_cells"] == 96
    # n_output intervals, so endpoints included
    assert manifest["n_snapshots"] == 6
    assert manifest["checks_passed"] is True
    assert manifest["output_times"] == pytest.approx(
        [0.05 * i for i in range(6)])
    snaps = sorted((out / "snapshots").glob("*.csv"))
    assert [p.name for p in snaps] == [f"{i:04d}.csv" for i in range(6)]
    header, body = read_csv(snaps[0])
    assert header == ["x_center", "rho", "u", "z", "psi", "v", "w"]
    assert body.shape == (96, 7)
    assert (out / "report.csv").exists()
    assert (out / "plot" / "tv.dat").exists()


def test_verify_reports_without_snapshots(tmp_path):
    code = run(tmp_path, "verify", "--scenario", "constant",
               "--t-final", "0.5", "--n-cells", "64")
    assert code == 0
    out = tmp_path / "verify-constant"
    assert (out / "report.csv").exists()
    assert (out / "report.json").exists()
    assert not (out / "snapshots").exists()
    rows = (out / "report.csv").read_text().strip().split("\n")
    assert rows[0] == "check,worst_violation,tol,pass"
    assert all(r.endswith(",pass") for r in rows[1:])


def test_riemann_stationary_shock_profile(tmp_path):
    code = run(tmp_path, "riemann", "--rho-left", "0.2",
               "--rho-right", "0.8", "--u", "1", "--t", "0.5")
    assert code == 0
    header, body = read_csv(tmp_path / "riemann" / "exact.csv")
    assert header == ["x_center", "rho"]
    x, rho = body[:, 0], body[:, 1]
    # equal flux on both sides: the jump does not move
    assert np.all(rho[x < 0.0] == pytest.approx(0.2))
    assert np.all(rho[x > 0.0] == pytest.approx(0.8))


def test_output_root_from_environment(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("GARZFV_OUTPUT_ROOT", str(tmp_path / "env"))
    solve = ["solve", "--scenario", "constant", "--t-final", "0.25",
             "--n-cells", "32", "--n-output", "2"]
    riemann = ["riemann", "--rho-left", "0.2", "--rho-right", "0.8",
               "--u", "1", "--t", "0.5", "--n-cells", "16"]
    assert main(solve) == 0 and main(riemann) == 0
    assert (tmp_path / "env" / "solve-constant" / "manifest.json").exists()
    assert (tmp_path / "env" / "riemann" / "exact.csv").exists()
    # --seed-dir wins over the environment
    assert run(tmp_path / "flag", *solve) == 0
    assert run(tmp_path / "flag", *riemann) == 0
    assert (tmp_path / "flag" / "solve-constant" / "manifest.json").exists()
    assert (tmp_path / "flag" / "riemann" / "exact.csv").exists()
    assert sorted(p.name for p in (tmp_path / "env").iterdir()) \
        == ["riemann", "solve-constant"]
    assert not (tmp_path / "runs").exists()


def test_validate_model_exit_codes(capsys):
    assert main(["validate-model"]) == 0
    assert main(["validate-model", "--model", "power", "--gamma", "2"]) == 0
    out = capsys.readouterr().out
    assert "[ok  ]" in out and "jam_velocity_zero" in out
    # V'' = 0.75 u (1 - rho)^-0.5 is unbounded at rho = 1
    assert main(["validate-model", "--model", "power", "--gamma", "1.5"]) == 1
    assert "[FAIL] smooth_c2" in capsys.readouterr().out


def test_greenshields_with_gamma_exits_2(tmp_path, capsys):
    # a closure the configuration cannot build is a configuration error
    cfg_path = tmp_path / "gsh.ini"
    cfg_path.write_text(dump_config_text(config_from_scenario(
        scenario("constant"))).replace("gamma = 1", "gamma = 2"))
    assert run(tmp_path, "verify", "--config", str(cfg_path)) == 2
    assert run(tmp_path, "riemann", "--rho-left", "0.8", "--rho-right",
               "0.2", "--u", "1", "--t", "0.5", "--model", "greenshields",
               "--gamma", "2") == 2
    assert main(["validate-model", "--model", "greenshields",
                 "--gamma", "2"]) == 2
    assert capsys.readouterr().err.count("greenshields") == 3
    assert not (tmp_path / "riemann").exists()
    assert not (tmp_path / "verify-gsh").exists()


@pytest.mark.parametrize("flag, value, message", [
    ("--cfl", "2", "cfl must be in (0, 1]"),
    ("--n-cells", "1", "n_cells must be >= 2"),
    ("--n-output", "0", "n_output must be >= 1"),
    ("--t-final", "nan", "t_final must be positive"),
    ("--t-final", "inf", "t_final must be positive"),
    ("--tol-phi", "nan", "tol_phi must be positive"),
    ("--tol-phi", "inf", "tol_phi must be positive"),
    # [initial] keys: the datum is built with the grid
    ("rho_pieces", "-4 0 1.5 ; 0 4 0.2",
     "rho0 piece value must be in [0, 1], got 1.5"),
    ("rho_pieces", "-4 0.5 0.3 ; 0 4 0.2",
     "overlapping pieces at [-4.0,0.5] and [0.0,4.0]"),
    ("u_inf", "-1", "u_inf must be finite and >= 0, got -1.0"),
])
def test_rejected_run_values_exit_2(tmp_path, capsys, flag, value, message):
    # every config value the solver would reject fails before any solve,
    # with the solver's own message
    if flag.startswith("--"):
        source = ["--scenario", "constant", flag, value]
    else:
        ini = tmp_path / "datum.ini"
        ini.write_text(f"[initial]\n{flag} = {value}\n")
        source = ["--config", str(ini)]
    out = tmp_path / "runs"
    for command in ("solve", "verify", "dump-config"):
        argv = [command] + source
        if command != "dump-config":
            argv += ["--seed-dir", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and message in err
    assert not out.exists()


def test_rejected_grid_ladder_exits_2(tmp_path, capsys):
    assert run(tmp_path, "convergence", "--scenario", "shock",
               "--grids", "64,1") == 2
    assert "n_cells must be >= 2" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["riemann", "--rho-left", "1.5", "--rho-right", "0.2", "--u", "1",
      "--t", "0.5"], "rho_left must be in [0, 1], got 1.5"),
    (["riemann", "--rho-left", "0.5", "--rho-right", "0.2", "--u", "-1",
      "--t", "0.5"], "u_bar must be finite and >= 0, got -1.0"),
    (["riemann", "--rho-left", "0.5", "--rho-right", "0.2", "--u", "inf",
      "--t", "0.5"], "u_bar must be finite and >= 0, got inf"),
    (["riemann", "--rho-left", "0.5", "--rho-right", "0.2", "--u", "1",
      "--t", "-1"], "t must be finite and >= 0, got -1.0"),
    (["riemann", "--rho-left", "0.5", "--rho-right", "0.2", "--u", "1",
      "--t", "nan"], "t must be finite and >= 0, got nan"),
    (["uniqueness", "--scenario", "constant", "--seeds", "1"],
     "seeds must be >= 2, got 1"),
    (["convergence", "--scenario", "shock", "--grids", "64,128"],
     "need a ladder of at least 3 grids"),
    (["convergence", "--scenario", "shock", "--grids", "64,100,200"],
     "ladder must halve h between rungs"),
    (["convergence", "--scenario", "rarefaction", "--grids", "64,128,256",
      "--window=100,200"],
     "window [100.0, 200.0] holds no cell centre of the 64-cell grid"),
    (["convergence", "--scenario", "rarefaction", "--grids", "64,128,256",
      "--window=1,-1"], "window x_hi must be finite and >= 1.0, got -1.0"),
    (["convergence", "--scenario", "rarefaction", "--grids", "64,128,256",
      "--window=nan,1"], "window x_lo must be finite, got nan"),
    (["stability", "--scenario", "smoke", "--du-inf", "nan"],
     "du_inf must be finite, got nan"),
    (["stability", "--scenario", "smoke", "--du-inf", "inf"],
     "du_inf must be finite, got inf"),
    (["stability", "--scenario", "smoke", "--du-inf", "-5"],
     "u_inf + du_inf must be finite and >= 0, got -4.0"),
    # the shift re-covers the left edge: both data average to 0.4
    (["stability", "--scenario", "constant", "--shift-cells", "3"],
     "initial data coincide"),
])
def test_rejected_argument_values_exit_2(no_march, tmp_path, capsys, argv,
                                         message):
    # argument values the computation would reject fail before it runs
    assert run(tmp_path, *argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and message in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, message", [
    (["--n-samples", "1"], "n_samples must be >= 2"),
    (["--u-max", "-1"], "u_max must be finite and >= 0, got -1.0"),
    (["--u-max", "nan"], "u_max must be finite and >= 0, got nan"),
    (["--u-max", "inf"], "u_max must be finite and >= 0, got inf"),
])
def test_validate_model_rejects_its_arguments(capsys, argv, message):
    assert main(["validate-model"] + argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("configuration error: ")
    assert message in captured.err


@pytest.mark.parametrize("command, study, result", [
    ("uniqueness", "uniqueness_check",
     verify.UniquenessResult(gap=0.0, tol=1.0, settings=[])),
    ("convergence", "convergence_study", verify.ConvergenceTable(rows=[])),
])
def test_n_output_reaches_the_study(tmp_path, monkeypatch, command, study,
                                    result):
    # the flag, else [output] n_output, sets the study's output intervals
    real = getattr(verify, study)
    seen = []

    def capture(*args, **kwargs):
        bound = inspect.signature(real).bind(*args, **kwargs)
        seen.append(bound.arguments["n_output"])
        return result

    monkeypatch.setattr(cli, study, capture)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "ladder.ini").write_text(LADDER_INI
                                         + "[output]\nn_output = 5\n")
    argv = [command, "--config", "ladder.ini"]
    assert run(tmp_path, *argv) == 0
    assert run(tmp_path, *argv, "--n-output", "7") == 0
    assert seen == [5, 7]


def test_dump_config_keeps_literal_values(tmp_path, capsys):
    cfg_path = tmp_path / "pct.ini"
    cfg_path.write_text("[output]\ndir = 50%\n")
    assert main(["dump-config", "--config", str(cfg_path)]) == 0
    assert "dir = 50%" in capsys.readouterr().out
    cfg_path.write_text("[slab]\ntau0 = 0.1\n")
    assert main(["dump-config", "--config", str(cfg_path)]) == 2
    capsys.readouterr()


def test_dump_config_round_trips(capsys):
    assert main(["dump-config", "--scenario", "smoke"]) == 0
    text = capsys.readouterr().out
    assert parse_config_text(text) == config_from_scenario(scenario("smoke"))


def test_bad_arguments_exit_2(tmp_path, capsys):
    assert main(["solve"]) == 2
    assert main(["no-such-command"]) == 2
    assert main(["riemann", "--rho-left", "0.2"]) == 2
    cfg_path = tmp_path / "a.ini"
    cfg_path.write_text("[grid]\nn_cells = twelve\n")
    assert main(["solve", "--config", str(cfg_path)]) == 2
    assert main(["solve", "--scenario", "shock",
                 "--config", str(cfg_path)]) == 2
    capsys.readouterr()


def test_divergent_solve_exits_1_with_trace(tmp_path, capsys):
    cfg = config_from_scenario(scenario("smoke"))
    cfg.n_cells = 64
    cfg.t_final = 0.2
    cfg.tol_phi = 1e-30
    cfg.max_picard_iters = 2
    cfg_path = tmp_path / "divergent.ini"
    cfg_path.write_text(dump_config_text(cfg))
    code = run(tmp_path, "solve", "--config", str(cfg_path))
    assert code == 1
    err = capsys.readouterr().err
    assert "solver failure" in err
    assert "iterate" in err


def test_solve_outputs_are_deterministic(tmp_path):
    args = ("solve", "--scenario", "smoke", "--t-final", "0.3",
            "--n-cells", "96", "--n-output", "3")
    for sub in ("a", "b"):
        assert run(tmp_path / sub, *args) == 0
    a, b = (tmp_path / sub / "solve-smoke" for sub in ("a", "b"))
    rels = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    assert rels == sorted(p.relative_to(b) for p in b.rglob("*")
                          if p.is_file())
    assert Path("report.json") in rels and Path("plot/phi.dat") in rels
    for rel in rels:
        assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel


def test_solve_tables_match_the_row_formula(tmp_path, monkeypatch):
    # rebuild every snapshot and per-field plot file from the run's own
    # states with the per-row %.17g formula the column formatter replaced
    trajs = []
    real = cli.solve_global

    def kept(*args):
        trajs.append(real(*args))
        return trajs[-1]

    monkeypatch.setattr(cli, "solve_global", kept)
    assert run(tmp_path, "solve", "--scenario", "smoke", "--n-cells", "96",
               "--n-output", "3") == 0
    out = tmp_path / "solve-smoke"
    (traj,) = trajs

    def table(cols, sep, header=None):
        row = sep.join(["%.17g"] * len(cols))
        lines = [sep.join(header)] if header else []
        lines += [row % r for r in zip(*(c.tolist() for c in cols))]
        return ("\n".join(lines) + "\n").encode()

    assert len(traj.states) == 4
    x = traj.grid.centers()
    for i, s in enumerate(traj.states):
        assert (out / "snapshots" / f"{i:04d}.csv").read_bytes() == table(
            (x, s.rho.values, s.u.values, s.z.values, s.psi.values,
             s.v.values, s.w.values), ",",
            ("x_center", "rho", "u", "z", "psi", "v", "w"))
    # one file per field, one block per state: gnuplot's `index i` is
    # state i, and numpy reads the blocks as (states, cells, 2)
    assert sorted(p.name for p in (out / "plot").iterdir()) == [
        "mass.dat", "phi.dat", "rho.dat", "tv.dat", "u.dat", "z.dat"]
    for name in ("rho", "u", "z"):
        fields = [getattr(s, name).values for s in traj.states]
        path = out / "plot" / f"{name}.dat"
        assert path.read_bytes() == b"\n\n".join(
            table((x, f), " ") for f in fields)
        blocks = np.loadtxt(path).reshape(len(fields), len(x), 2)
        for block, f in zip(blocks, fields):
            assert block[:, 0].tobytes() == x.tobytes()
            assert block[:, 1].tobytes() == f.tobytes()


@pytest.mark.parametrize("name", ["smoke", "shock"])
def test_partial_run_directories_hold_the_default_bytes(tmp_path, name):
    # snapshots and plots come from one text pass over the states; with
    # either switched off, every file the run writes has the default
    # run's bytes, and the manifest differs only in its config echo
    base = dict(n_cells=96, n_output=3, t_final=0.3)
    layouts = {"all": {}, "snapshots": dict(write_plot=False),
               "plots": dict(write_snapshots=False)}
    for layout, switches in layouts.items():
        ini = write_config(tmp_path / f"{layout}.ini", name, **base,
                           **switches, out_dir=layout)
        assert run(tmp_path, "solve", "--config", ini) == 0

    def files(layout):
        root = tmp_path / layout
        return {p.relative_to(root).as_posix(): p.read_bytes()
                for p in root.rglob("*") if p.is_file()}

    def without_config(manifest):
        return {k: v for k, v in json.loads(manifest).items()
                if k != "config"}

    full = files("all")
    for layout, dropped in (("snapshots", "plot/"), ("plots", "snapshots/")):
        part = files(layout)
        assert sorted(part) == sorted(
            rel for rel in full if not rel.startswith(dropped))
        assert without_config(part.pop("manifest.json")) == without_config(
            full["manifest.json"])
        for rel, data in part.items():
            assert data == full[rel], (layout, rel)


def test_rerun_leaves_only_its_own_outputs(tmp_path):
    # a run directory holds one run: a rerun deletes the outputs of the
    # earlier run that it does not write itself, and no other file
    args = ("solve", "--scenario", "shock", "--n-cells", "64")
    assert run(tmp_path, *args, "--n-output", "8") == 0
    out = tmp_path / "solve-shock"
    # writer names of an earlier layout and of a longer run go; the
    # user's files stay, whatever they resemble
    stale = [out / "plot" / "rho_0003.dat", out / "snapshots" / "12345.csv"]
    user = [out / "notes.txt", out / "plot" / "user.dat",
            out / "snapshots" / "0001.csv.bak", out / "report.txt"]
    for path in stale + user:
        path.write_text("kept\n")

    def files():
        return sorted(p.relative_to(out).as_posix() for p in out.rglob("*")
                      if p.is_file())

    assert run(tmp_path, *args, "--n-output", "4") == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["n_snapshots"] == 5
    run_files = (["manifest.json", "report.csv", "report.json"]
                 + [f"plot/{n}.dat" for n in ("rho", "u", "z", "tv", "mass",
                                              "phi")]
                 + [f"snapshots/{i:04d}.csv" for i in range(5)])
    kept = sorted(p.relative_to(out).as_posix() for p in user)
    assert files() == sorted(run_files + kept)
    assert all(p.read_text() == "kept\n" for p in user)
    # the audit, snapshots and plots off: only the manifest is the run's
    cfg = replace(config_from_scenario(scenario("shock")), n_cells=64,
                  audit=False, write_snapshots=False, write_plot=False,
                  out_dir="solve-shock")
    ini = tmp_path / "quiet.ini"
    ini.write_text(dump_config_text(cfg))
    assert run(tmp_path, "solve", "--config", str(ini)) == 0
    assert files() == sorted(["manifest.json"] + kept)


def test_nan_entropy_residual_fails_the_audit(tmp_path, monkeypatch):
    # a NaN residual at one level in one step must fail the audit and be
    # named; a Python max merge drops it and the run passed with 1.7e-14.
    # The kernel audits a batch of steps per call, the steps' cells end to
    # end: the NaN goes into the fifth step's dV/du at level k = 0.4
    real = iteration.entropy_residual_maxima
    calls = [0]

    def maxima(steps, levels, h, model, workspace):
        calls[0] += 1
        if calls[0] != 1:
            return real(steps, levels, h, model, workspace)
        sizes = [len(rho_new) for _, rho_new, _ in steps]
        first = sum(sizes[:4])

        class Poisoned(type(model)):
            def d_u_levels(self, levels, u):
                out = np.broadcast_to(model.d_u_levels(levels, u),
                                      (len(levels), len(u))).copy()
                out[4, first:first + sizes[4]] = np.nan
                return out

        return real(steps, levels, h, Poisoned(), workspace)

    monkeypatch.setattr(iteration, "entropy_residual_maxima", maxima)
    assert run(tmp_path, "solve", "--scenario", "smoke", "--t-final", "0.25",
               "--n-cells", "96") == 1
    report = json.loads(
        (tmp_path / "solve-smoke" / "report.json").read_text())
    check = next(c for c in report["checks"]
                 if c["name"] == "entropy_residual")
    assert check["passed"] is False
    assert check["detail"].endswith("k-levels [0.4]")
    assert np.isnan(report["entropy_table"]["0.4"])
    assert all(np.isfinite(r) for k, r in report["entropy_table"].items()
               if k != "0.4")


def test_shock_tv_series_is_flat(tmp_path):
    assert run(tmp_path, "solve", "--scenario", "shock",
               "--t-final", "0.5", "--n-cells", "128") == 0
    tv = np.loadtxt(tmp_path / "solve-shock" / "plot" / "tv.dat")
    assert tv.shape[1] == 2
    # monotone datum under a monotone scheme: variation stays put
    assert np.ptp(tv[:, 1]) < 1e-12


def test_stability_cli(tmp_path):
    code = run(tmp_path, "stability", "--scenario", "smoke",
               "--n-cells", "96", "--t-final", "0.3",
               "--shift-cells", "2", "--du-inf", "0.01")
    assert code == 0
    out = tmp_path / "stability-smoke"
    payload = json.loads((out / "stability.json").read_text())
    assert payload["k_measured"] >= 1.0
    assert payload["within_envelope"] is True
    assert (out / "plot" / "stability_ratio.dat").exists()


def test_stability_requires_a_perturbation(tmp_path, capsys):
    code = run(tmp_path, "stability", "--scenario", "smoke",
               "--n-cells", "64", "--t-final", "0.2")
    assert code == 2
    assert "perturbation" in capsys.readouterr().err


def test_stability_config2_excludes_the_perturbation_flags(tmp_path,
                                                          capsys):
    cfg1 = write_config(tmp_path / "one.ini", "smoke", n_cells=64,
                        t_final=0.2)
    cfg2 = write_config(tmp_path / "two.ini", "smoke", n_cells=64,
                        t_final=0.2, z_inf=0.1)
    assert run(tmp_path, "stability", "--config", cfg1, "--config2", cfg2,
               "--shift-cells", "5", "--du-inf", "0.3") == 2
    assert "--shift-cells, --du-inf" in capsys.readouterr().err
    assert run(tmp_path, "stability", "--config", cfg1, "--config2", cfg2,
               "--du-inf", "0.3") == 2
    err = capsys.readouterr().err
    assert "--du-inf" in err and "--shift-cells" not in err
    assert not (tmp_path / "stability-one").exists()


def test_uniqueness_cli(tmp_path):
    code = run(tmp_path, "uniqueness", "--scenario", "constant",
               "--t-final", "0.5", "--n-cells", "64", "--seeds", "2")
    assert code == 0
    payload = json.loads(
        (tmp_path / "uniqueness-constant" / "uniqueness.json").read_text())
    assert payload["passed"] is True
    assert payload["gap"] <= payload["tol"]


def test_convergence_cli(tmp_path):
    # Greenshields, then a power law with an inflection in (0, 1)
    for stem, model in (("ladder", ""),
                        ("power3", "[model]\nname = power\ngamma = 3\n")):
        cfg_path = tmp_path / f"{stem}.ini"
        cfg_path.write_text(
            model + "[initial]\n"
            "rho_pieces = -4 0 0.3 ; 0 4 0.8428571428571429\n"
            "u_inf = 1\n"
            "[slab]\n"
            "t_final = 0.8\n")
        code = run(tmp_path, "convergence", "--config", str(cfg_path),
                   "--grids", "64,128,256", "--window=-0.6,0.4")
        assert code == 0, stem
        payload = json.loads((tmp_path / f"convergence-{stem}"
                              / "convergence.json").read_text())
        errors = [row["error"] for row in payload["rows"]]
        assert len(errors) == 3, stem
        assert errors[0] > errors[1] > errors[2], stem
        assert payload["window"] == [-0.6, 0.4]


def test_riemann_profile_of_a_non_concave_closure(tmp_path):
    # rho (1 - rho)^2: a shock from 0.8 meets at speed -0.32 the fan
    # (2 - sqrt(1 + 3 xi)) / 3 from 0.6 down to 0.2
    code = run(tmp_path, "riemann", "--rho-left", "0.8", "--rho-right",
               "0.2", "--u", "1", "--t", "0.5", "--model", "power",
               "--gamma", "2")
    assert code == 0
    _, body = read_csv(tmp_path / "riemann" / "exact.csv")
    x, rho = body[:, 0], body[:, 1]
    assert np.all(np.diff(rho) <= 0.0)
    assert rho[0] == 0.8 and rho[-1] == 0.2
    fan = (rho < 0.8) & (rho > 0.2)
    xi = x[fan] / 0.5
    assert fan.sum() > 10 and np.abs(xi).max() < 0.32
    assert np.abs(rho[fan] - (2.0 - np.sqrt(1.0 + 3.0 * xi)) / 3.0).max() \
        < 1e-12


def test_convergence_rejects_marker_data(no_march, tmp_path, capsys):
    # a marker datum, and two pieces that leave [-4, -2] and [2, 4] empty:
    # the exact solution would be that of another datum
    partial = tmp_path / "partial.ini"
    partial.write_text("[initial]\nrho_pieces = -2 0 0.8 ; 0 2 0.2\n")
    for source, grids in ((["--scenario", "smoke"], "64,128"),
                          (["--config", str(partial)], "128,256,512")):
        code = run(tmp_path, "convergence", *source, "--grids", grids)
        assert code == 2
        assert "constant-marker" in capsys.readouterr().err
    assert not (tmp_path / "convergence-partial").exists()


def test_module_entry_point(tmp_path):
    # the child imports the same package as this process
    src = str(Path(garzfv.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "garzfv", "solve", "--scenario", "constant",
         "--t-final", "0.2", "--n-cells", "32",
         "--seed-dir", str(tmp_path)],
        capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0
    assert "solved to t=0.2" in proc.stdout
    assert (tmp_path / "solve-constant" / "manifest.json").exists()


LADDER_INI = ("[initial]\n"
              "rho_pieces = -4 0 0.3 ; 0 4 0.8428571428571429\n"
              "u_inf = 1\n"
              "[slab]\n"
              "t_final = 0.8\n")


def assert_same_tree(a: Path, b: Path):
    """The two directories hold the same relative paths, each with the same
    bytes."""
    rels = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    assert rels == sorted(p.relative_to(b) for p in b.rglob("*")
                          if p.is_file())
    for rel in rels:
        assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel


def write_config(path: Path, name: str, **fields) -> str:
    path.write_text(dump_config_text(replace(
        config_from_scenario(scenario(name)), **fields)))
    return str(path)


RUN_COMMANDS = {
    "verify": ("verify-smoke", "verify", "--scenario", "smoke",
               "--n-cells", "64", "--t-final", "0.3"),
    "stability": ("stability-smoke", "stability", "--scenario", "smoke",
                  "--n-cells", "64", "--t-final", "0.3", "--shift-cells",
                  "2", "--du-inf", "0.01"),
    "uniqueness": ("uniqueness-smoke", "uniqueness", "--scenario", "smoke",
                   "--n-cells", "64", "--t-final", "0.3", "--seeds", "2"),
    "convergence": ("convergence-ladder", "convergence", "--config",
                    "ladder.ini", "--grids", "64,128,256",
                    "--window=-0.6,0.4"),
    "riemann": ("riemann", "riemann", "--rho-left", "0.3", "--rho-right",
                "0.8", "--u", "1", "--t", "0.5", "--n-cells", "64"),
}


@pytest.mark.parametrize("command", sorted(RUN_COMMANDS))
def test_run_commands_are_deterministic(tmp_path, monkeypatch, command):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "ladder.ini").write_text(LADDER_INI)
    run_dir, *argv = RUN_COMMANDS[command]
    for sub in ("a", "b"):
        assert run(tmp_path / sub, *argv) == 0
    assert_same_tree(tmp_path / "a" / run_dir, tmp_path / "b" / run_dir)


@pytest.mark.parametrize("name", ["shock", "smoke"])
def test_verify_writes_exactly_the_solve_reports(tmp_path, capsys, name):
    argv = ("--scenario", name, "--n-cells", "64", "--t-final", "0.3",
            "--n-output", "3")
    assert run(tmp_path, "solve", *argv) == 0
    solve_out = capsys.readouterr().out
    assert run(tmp_path, "verify", *argv) == 0
    verify_out = capsys.readouterr().out
    # verify prints the audit summary alone; solve prints it after its line
    assert solve_out.startswith("solved to t=0.3 in ")
    assert solve_out.split("\n", 1)[1] == verify_out
    solve_dir = tmp_path / f"solve-{name}"
    verify_dir = tmp_path / f"verify-{name}"
    files = ["manifest.json", "report.csv", "report.json"]
    assert sorted(p.name for p in verify_dir.rglob("*")) == files
    for f in files:
        assert (verify_dir / f).read_bytes() == (solve_dir / f).read_bytes()


@pytest.mark.parametrize("levels", [11, 13, 21])
def test_report_json_keeps_every_entropy_level(tmp_path, monkeypatch,
                                               levels):
    real = cli.audit_trajectory
    reports = []

    def audit(traj):
        reports.append(real(traj))
        return reports[-1]

    monkeypatch.setattr(cli, "audit_trajectory", audit)
    cfg_path = write_config(tmp_path / "levels.ini", "smoke", n_cells=96,
                            t_final=0.25, entropy_levels=levels)
    assert run(tmp_path, "verify", "--config", cfg_path) == 0
    table = json.loads(
        (tmp_path / "verify-levels" / "report.json").read_text())[
            "entropy_table"]
    assert len(table) == levels
    expected = sorted(reports[0].entropy_table.items())
    assert len(expected) == levels
    written = sorted((float(key), r) for key, r in table.items())
    for (k_written, r_written), (k, r) in zip(written, expected,
                                              strict=True):
        assert k_written == pytest.approx(k, abs=1e-12)
        assert r_written == r
    if levels == 11:
        assert sorted(table) == [f"{i / 10:.1f}" for i in range(11)]


def _count_entropy_kernel_calls(monkeypatch) -> list:
    real = iteration.entropy_residual_maxima
    calls = [0]

    def counted(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(iteration, "entropy_residual_maxima", counted)
    return calls


@pytest.mark.parametrize("command", ["solve", "stability", "convergence"])
def test_unaudited_runs_skip_the_entropy_kernel(tmp_path, monkeypatch,
                                                command):
    # these runs read no entropy table, so their solves must not audit;
    # putting the default 11-level audit back must not move a written byte
    monkeypatch.chdir(tmp_path)
    (tmp_path / "ladder.ini").write_text(LADDER_INI)
    write_config(tmp_path / "quiet.ini", "smoke", n_cells=96, t_final=0.3,
                 n_output=3, audit=False)
    run_dir, *argv = {
        "solve": ("solve-quiet", "solve", "--config", "quiet.ini"),
        "stability": RUN_COMMANDS["stability"],
        "convergence": RUN_COMMANDS["convergence"],
    }[command]
    calls = _count_entropy_kernel_calls(monkeypatch)
    assert run(tmp_path / "plain", *argv) == 0
    assert calls[0] == 0
    module = cli if command == "solve" else verify
    real = module.solve_global

    def audited(*args):
        args = list(args)
        args[4] = replace(args[4], entropy_levels=11)
        return real(*args)

    monkeypatch.setattr(module, "solve_global", audited)
    assert run(tmp_path / "audited", *argv) == 0
    assert calls[0] > 0
    assert_same_tree(tmp_path / "plain" / run_dir,
                     tmp_path / "audited" / run_dir)


def test_stability_config2_takes_the_flags(tmp_path):
    # the pair may differ in [initial] and [output]; the flags apply to both
    cfg1 = write_config(tmp_path / "one.ini", "smoke")
    cfg2 = write_config(tmp_path / "two.ini", "smoke", z_inf=0.1,
                        out_dir="elsewhere", n_output=4)
    assert run(tmp_path, "stability", "--config", cfg1, "--config2", cfg2,
               "--n-cells", "64", "--t-final", "0.2") == 0
    payload = json.loads(
        (tmp_path / "stability-one" / "stability.json").read_text())
    assert payload["lhs0"] > 0.0
    assert payload["times"][-1] == 0.2
    assert not (tmp_path / "elsewhere").exists()


def test_stability_config2_rejects_other_settings(tmp_path, capsys):
    cfg1 = write_config(tmp_path / "one.ini", "smoke", n_cells=64,
                        t_final=0.2)
    cfg2 = write_config(tmp_path / "two.ini", "smoke", n_cells=64,
                        model_name="power", gamma=3.0, t_final=0.05,
                        u_inf=1.01)
    assert run(tmp_path, "stability", "--config", cfg1,
               "--config2", cfg2) == 2
    err = capsys.readouterr().err
    assert "[model] name, [model] gamma, [slab] t_final" in err
    assert "u_inf" not in err
    assert not (tmp_path / "stability-one").exists()
