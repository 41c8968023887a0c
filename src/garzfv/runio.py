"""Deterministic run outputs.

Layout under a run directory:

    manifest.json      config echo, constants, per-slab diagnostics
    snapshots/NNNN.csv one row per cell: x_center,rho,u,z,psi,v,w
    report.csv         one row per check: check,worst_violation,tol,pass
    report.json        full report with entropy table and notes
    plot/*.dat         two-column plain text, plot-ready

Identical inputs produce bit-identical bytes: floats print as %.17g, JSON
keys are sorted, and nothing timestamps itself.
"""

from __future__ import annotations

import json
import os

import numpy as np

from .config import RunConfig, dump_config_text, format_number
from .iteration import Trajectory
from .verify import RunReport, StabilityResult, reported_constants

SNAPSHOT_COLUMNS = ("x_center", "rho", "u", "z", "psi", "v", "w")


def _fmt(x) -> str:
    return format_number(float(x))


def _write_text(path: str, text: str) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _json_ready(obj):
    if isinstance(obj, dict):
        return {str(k): _json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_ready(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_json_ready(v) for v in obj.tolist()]
    return obj


def write_json(path: str, payload: dict) -> None:
    text = json.dumps(_json_ready(payload), sort_keys=True, indent=1,
                      separators=(",", ": "))
    _write_text(path, text + "\n")


def snapshot_csv_text(state) -> str:
    x = state.grid.centers()
    cols = (x, state.rho.values, state.u.values, state.z.values,
            state.psi.values, state.v.values, state.w.values)
    lines = [",".join(SNAPSHOT_COLUMNS)]
    for row in zip(*cols):
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def trajectory_manifest(traj: Trajectory, cfg: RunConfig | None = None,
                        report: RunReport | None = None) -> dict:
    ctx = traj.context
    slabs = []
    for s in traj.slabs:
        slabs.append({
            "t0": s.t0, "t1": s.t1, "n_steps": s.n_steps,
            "max_cfl": s.max_cfl,
            "iterations": s.trace.iterations,
            "converged": s.trace.converged,
            "phi_history": s.trace.phi_history(),
            "stop_reason": s.trace.stop_reason,
        })
    manifest = {
        "constants": {**reported_constants(ctx),
                      "constant_u": ctx.constant_u},
        "grid": {
            "x_min": traj.grid.x_min, "x_max": traj.grid.x_max,
            "n_cells": traj.grid.n_cells, "h": traj.grid.h,
        },
        "output_times": traj.output_times,
        "slabs": slabs,
        "n_snapshots": len(traj.states),
    }
    if cfg is not None:
        manifest["config"] = dump_config_text(cfg)
    if report is not None:
        manifest["checks_passed"] = report.passed
    return manifest


def report_csv_text(report: RunReport) -> str:
    lines = ["check,worst_violation,tol,pass"]
    for c in report.checks:
        lines.append(f"{c.name},{_fmt(c.worst)},{_fmt(c.tol)},"
                     f"{'pass' if c.passed else 'fail'}")
    return "\n".join(lines) + "\n"


def report_payload(report: RunReport) -> dict:
    return {
        "passed": report.passed,
        "checks": [{
            "name": c.name, "passed": c.passed, "worst": c.worst,
            "tol": c.tol, "detail": c.detail,
        } for c in report.checks],
        "entropy_table": {f"{k:.1f}": v
                          for k, v in sorted(report.entropy_table.items())},
        "constants": report.constants,
        "notes": report.notes,
    }


def two_column_text(xs, ys) -> str:
    lines = [f"{_fmt(a)} {_fmt(b)}" for a, b in zip(xs, ys)]
    return "\n".join(lines) + "\n"


def write_trajectory(out_dir: str, traj: Trajectory,
                     cfg: RunConfig | None = None,
                     report: RunReport | None = None,
                     write_snapshots: bool = True) -> None:
    write_json(os.path.join(out_dir, "manifest.json"),
               trajectory_manifest(traj, cfg, report))
    if write_snapshots:
        for i, state in enumerate(traj.states):
            _write_text(os.path.join(out_dir, "snapshots", f"{i:04d}.csv"),
                        snapshot_csv_text(state))


def write_report(out_dir: str, report: RunReport) -> None:
    _write_text(os.path.join(out_dir, "report.csv"), report_csv_text(report))
    write_json(os.path.join(out_dir, "report.json"), report_payload(report))


def emit_plotdata(out_dir: str, traj: Trajectory | None = None,
                  stability: StabilityResult | None = None) -> None:
    """Write plot-ready two-column files for a run and/or a stability pair."""
    plot = os.path.join(out_dir, "plot")
    if traj is not None:
        for i, state in enumerate(traj.states):
            x = state.grid.centers()
            _write_text(os.path.join(plot, f"rho_{i:04d}.dat"),
                        two_column_text(x, state.rho.values))
            _write_text(os.path.join(plot, f"u_{i:04d}.dat"),
                        two_column_text(x, state.u.values))
            _write_text(os.path.join(plot, f"z_{i:04d}.dat"),
                        two_column_text(x, state.z.values))
        _write_text(os.path.join(plot, "tv.dat"),
                    two_column_text(traj.series_times, traj.tv_series))
        _write_text(os.path.join(plot, "mass.dat"),
                    two_column_text(traj.series_times, traj.mass_series))
        phi_t = []
        phi_v = []
        for s in traj.slabs:
            for rec in s.trace.records:
                phi_t.append(s.t1)
                phi_v.append(rec.phi_mixed)
        _write_text(os.path.join(plot, "phi.dat"),
                    two_column_text(phi_t, phi_v))
    if stability is not None:
        _write_text(os.path.join(plot, "stability_ratio.dat"),
                    two_column_text(stability.times,
                                    stability.ratio_series))
