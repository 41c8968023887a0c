"""Deterministic run outputs.

Layout under a run directory:

    manifest.json      config echo, constants, per-slab diagnostics
    snapshots/NNNN.csv one row per cell: x_center,rho,u,z,psi,v,w
    report.csv         one row per check: check,worst_violation,tol,pass
    report.json        full report with entropy table and notes
    plot/rho.dat       per output state one two-column block x,rho;
    plot/u.dat         blocks are separated by two blank lines, so
    plot/z.dat         gnuplot's `index i` is snapshot i
    plot/{tv,mass,phi}.dat  two-column time series

Identical inputs produce bit-identical bytes: floats print as %.17g, JSON
keys are sorted, and nothing timestamps itself.  A run directory holds one
run: before a run writes, remove_stale_outputs deletes the files with
these names that the run will not write, and no other file.

Table text is built column by column with format_column, which formats
each distinct bit pattern of a column once: the solutions are plateaus,
fans and piecewise-constant markers, so most values a run writes repeat.
Each writer formats the grid-centre column once for all its files.
"""

from __future__ import annotations

import json
import os
import re

import numpy as np

from .config import RunConfig, dump_config_text, format_number
from .iteration import Trajectory
from .verify import RunReport, reported_constants

SNAPSHOT_COLUMNS = ("x_center", "rho", "u", "z", "psi", "v", "w")
# every path in a run directory, except manifest.json, that a writer here
# names, and the per-state plot files of the earlier rho_NNNN.dat layout
_OUTPUT_PATH = re.compile(r"snapshots/\d{4,}\.csv|report\.(csv|json)"
                          r"|plot/((rho|u|z)(_\d{4,})?|tv|mass|phi)\.dat")


def _open_text(path: str):
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    return open(path, "w", encoding="utf-8", newline="\n")


def _write_text(path: str, text: str) -> None:
    with _open_text(path) as fh:
        fh.write(text)


def _json_default(obj):
    """json hook for the numpy values payloads carry; np.float64 is already
    a float and prints as one."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def write_json(path: str, payload: dict) -> None:
    text = json.dumps(payload, sort_keys=True, indent=1,
                      separators=(",", ": "), default=_json_default)
    _write_text(path, text + "\n")


def format_column(values) -> list[str]:
    """%.17g text of each float in a 1-D column, formatting each distinct
    bit pattern once.  Patterns, not values, are deduplicated: -0.0 == 0.0
    but they print "-0" and "0"."""
    a = np.ascontiguousarray(values, dtype=float)
    _, first, inverse = np.unique(a.view(np.int64), return_index=True,
                                  return_inverse=True)
    text = np.array(["%.17g" % x for x in a[first].tolist()], dtype=object)
    return text.take(inverse).tolist()


def _table_text(columns, sep: str, header=None) -> str:
    """Equal-length text columns (lists of str, see format_column), one
    row per line, after an optional header row of column names."""
    lines = [sep.join(header)] if header else []
    lines += map(sep.join, zip(*columns))
    return "\n".join(lines) + "\n"


def write_table(path: str, columns, sep: str, header=None) -> None:
    _write_text(path, _table_text(columns, sep, header))


def trajectory_manifest(traj: Trajectory, cfg: RunConfig | None = None,
                        report: RunReport | None = None) -> dict:
    ctx = traj.context
    slabs = []
    for s in traj.slabs:
        slabs.append({
            "t0": s.trace.t0, "t1": s.trace.t1, "n_steps": s.n_steps,
            "max_cfl": s.max_cfl,
            "iterations": s.trace.iterations,
            "converged": s.trace.converged,
            "phi_history": s.trace.phi,
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
        lines.append(f"{c.name},{format_number(c.worst)},"
                     f"{format_number(c.tol)},"
                     f"{'pass' if c.passed else 'fail'}")
    return "\n".join(lines) + "\n"


def report_payload(report: RunReport) -> dict:
    return {
        "passed": report.passed,
        "checks": [{
            "name": c.name, "passed": c.passed, "worst": c.worst,
            "tol": c.tol, "detail": c.detail,
        } for c in report.checks],
        # rounding to 12 places keeps the default ladder's "0.1"-style keys
        # and gives distinct levels of any finer ladder distinct keys
        "entropy_table": {str(round(k, 12)): v
                          for k, v in report.entropy_table.items()},
        "constants": report.constants,
        "notes": report.notes,
    }


def write_trajectory(out_dir: str, traj: Trajectory,
                     cfg: RunConfig | None = None,
                     report: RunReport | None = None,
                     write_snapshots: bool = True) -> None:
    write_json(os.path.join(out_dir, "manifest.json"),
               trajectory_manifest(traj, cfg, report))
    if write_snapshots:
        x = format_column(traj.grid.centers())
        for i, state in enumerate(traj.states):
            cols = [x] + [format_column(f.values) for f in
                          (state.rho, state.u, state.z, state.psi, state.v,
                           state.w)]
            write_table(os.path.join(out_dir, "snapshots", f"{i:04d}.csv"),
                        cols, ",", SNAPSHOT_COLUMNS)


def write_report(out_dir: str, report: RunReport) -> None:
    _write_text(os.path.join(out_dir, "report.csv"), report_csv_text(report))
    write_json(os.path.join(out_dir, "report.json"), report_payload(report))


def remove_stale_outputs(out_dir: str, n_snapshots: int, plots: bool,
                         report: bool) -> None:
    """Delete the files in out_dir that carry a writer's name here but
    that a run writing n_snapshots snapshots (0: none), the plot files
    when plots and the report when report will not write.  Every other
    file stays."""
    keep = {f"snapshots/{i:04d}.csv" for i in range(n_snapshots)}
    if plots:
        keep.update(f"plot/{name}.dat"
                    for name in ("rho", "u", "z", "tv", "mass", "phi"))
    if report:
        keep.update(("report.csv", "report.json"))
    for sub in ("", "snapshots", "plot"):
        try:
            names = os.listdir(os.path.join(out_dir, sub))
        except FileNotFoundError:
            continue
        for name in names:
            rel = f"{sub}/{name}" if sub else name
            path = os.path.join(out_dir, rel)
            if (rel not in keep and _OUTPUT_PATH.fullmatch(rel)
                    and os.path.isfile(path)):
                os.remove(path)


def emit_plotdata(out_dir: str, traj: Trajectory) -> None:
    """Write a run's plot-ready files: per field one file holding a
    two-column block per output state, and the time series."""
    plot = os.path.join(out_dir, "plot")
    x = format_column(traj.grid.centers())
    for name in ("rho", "u", "z"):
        # block by block: the joined text of all states is not held
        with _open_text(os.path.join(plot, f"{name}.dat")) as fh:
            for i, state in enumerate(traj.states):
                if i:
                    fh.write("\n\n")
                fh.write(_table_text(
                    (x, format_column(getattr(state, name).values)), " "))
    t = format_column(traj.series_times)
    write_table(os.path.join(plot, "tv.dat"),
                (t, format_column(traj.tv_series)), " ")
    write_table(os.path.join(plot, "mass.dat"),
                (t, format_column(traj.mass_series)), " ")
    phi_t = [s.trace.t1 for s in traj.slabs for _ in s.trace.phi]
    phi_v = [phi for s in traj.slabs for phi in s.trace.phi]
    write_table(os.path.join(plot, "phi.dat"),
                (format_column(phi_t), format_column(phi_v)), " ")
