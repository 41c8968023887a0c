"""Batch front-end: exit codes, file layout, determinism."""
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import garzfv
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
    for rel in ("manifest.json", "report.csv", "snapshots/0000.csv",
                "snapshots/0002.csv", "plot/tv.dat", "plot/mass.dat"):
        b1 = (tmp_path / "a" / "solve-smoke" / rel).read_bytes()
        b2 = (tmp_path / "b" / "solve-smoke" / rel).read_bytes()
        assert b1 == b2, rel


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


def test_uniqueness_cli(tmp_path):
    code = run(tmp_path, "uniqueness", "--scenario", "constant",
               "--t-final", "0.5", "--n-cells", "64", "--seeds", "2")
    assert code == 0
    payload = json.loads(
        (tmp_path / "uniqueness-constant" / "uniqueness.json").read_text())
    assert payload["passed"] is True
    assert payload["gap"] <= payload["tol"]


def test_convergence_cli(tmp_path):
    cfg_path = tmp_path / "ladder.ini"
    cfg_path.write_text(
        "[initial]\n"
        "rho_pieces = -4 0 0.3 ; 0 4 0.8428571428571429\n"
        "u_inf = 1\n"
        "[slab]\n"
        "t_final = 0.8\n")
    code = run(tmp_path, "convergence", "--config", str(cfg_path),
               "--grids", "64,128,256", "--window=-0.6,0.4")
    assert code == 0
    payload = json.loads(
        (tmp_path / "convergence-ladder" / "convergence.json").read_text())
    errors = [row["error"] for row in payload["rows"]]
    assert len(errors) == 3
    assert errors[0] > errors[1] > errors[2]
    assert payload["window"] == [-0.6, 0.4]


def test_convergence_rejects_marker_data(tmp_path, capsys):
    code = run(tmp_path, "convergence", "--scenario", "smoke",
               "--grids", "64,128")
    assert code == 2
    assert "constant-marker" in capsys.readouterr().err


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
