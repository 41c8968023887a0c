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

Tables are built column by column.  _column formats each run of equal
bit patterns in a column once: the solutions are plateaus, fans and
piecewise-constant markers, so most values repeat next to each other.
Trailing columns that each hold one text, such as the markers of a
constant-marker run, join the line end rather than every row.  One pass
over the output states formats each state once and writes its snapshot
and its rho, u and z plot blocks from that text; the grid centres are
formatted once per run.
"""

from __future__ import annotations

import contextlib
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


def _column(values) -> tuple[list[str], str | None]:
    """%.17g text of each float in a 1-D column, and the one text every
    cell holds (None unless the column is one run).  Each run of equal
    bit patterns is formatted once: a repeat that is not adjacent is
    formatted again, to the same text.  Patterns, not values, are
    compared: -0.0 == 0.0 but they print "-0" and "0"."""
    a = np.ascontiguousarray(values, dtype=float)
    n = a.size
    if n == 0:
        return [], None
    bits = a.view(np.int64)
    starts = np.flatnonzero(bits[1:] != bits[:-1]) + 1
    if starts.size == 0:
        one = "%.17g" % float(a[0])
        return [one] * n, one
    if starts.size == n - 1:
        return ["%.17g" % x for x in a.tolist()], None
    starts = np.concatenate(([0], starts))
    text = np.array(["%.17g" % x for x in a[starts].tolist()], dtype=object)
    return text.repeat(np.diff(starts, append=n)).tolist(), None


def _write_table(fh, columns, sep: str, header=None) -> None:
    """Write equal-length columns of (texts, one) pairs from _column to
    the open file fh, one row per line, after an optional header row of
    column names.  The trailing columns that each hold one text, after
    the first column, join the line end rather than every row."""
    k = len(columns)
    while k > 1 and columns[k - 1][1] is not None:
        k -= 1
    end = "".join(sep + one for _, one in columns[k:]) + "\n"
    if header:
        fh.write(sep.join(header) + "\n")
    if columns and columns[0][0]:
        fh.write(end.join(columns[0][0] if k == 1 else map(
            sep.join, zip(*(texts for texts, _ in columns[:k])))))
        fh.write(end)
    elif not header:  # no lines at all: the table is one empty line
        fh.write("\n")


def write_table(path: str, columns, sep: str, header=None) -> None:
    """Write equal-length 1-D float columns, each formatted by _column."""
    with _open_text(path) as fh:
        _write_table(fh, [_column(c) for c in columns], sep, header)


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
                     write_snapshots: bool = True,
                     write_plot: bool = False) -> None:
    """Write a run's manifest, its report when one is given, and its
    snapshots and plot files as asked, all from one text pass over the
    output states."""
    write_json(os.path.join(out_dir, "manifest.json"),
               trajectory_manifest(traj, cfg, report))
    if report is not None:
        _write_report(out_dir, report)
    _write_states(out_dir, traj, write_snapshots, write_plot)


def write_report(out_dir: str, report: RunReport) -> None:
    _write_text(os.path.join(out_dir, "report.csv"), report_csv_text(report))
    write_json(os.path.join(out_dir, "report.json"), report_payload(report))


# writers reach each other only through private names, so a span tracer
# that rebinds the public ones never nests one writer's span in another's
_write_report = write_report


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
    _write_states(out_dir, traj, False, True)


def _write_states(out_dir: str, traj: Trajectory, snapshots: bool,
                  plots: bool) -> None:
    """The one text pass: format each output state's fields once, write
    its snapshot from them when snapshots, and append its rho, u and z
    blocks to the plot files, open for the pass, when plots.  The grid
    centres are formatted once, and one state's text is held at a time."""
    if not (snapshots or plots):
        return
    x = _column(traj.grid.centers())
    names = ("rho", "u", "z", "psi", "v", "w") if snapshots else \
        ("rho", "u", "z")
    plot = os.path.join(out_dir, "plot")
    with contextlib.ExitStack() as stack:
        blocks = [stack.enter_context(
            _open_text(os.path.join(plot, f"{name}.dat")))
            for name in ("rho", "u", "z")] if plots else []
        for i, state in enumerate(traj.states):
            cols = [_column(getattr(state, name).values) for name in names]
            if snapshots:
                with _open_text(os.path.join(out_dir, "snapshots",
                                             f"{i:04d}.csv")) as snap:
                    _write_table(snap, [x] + cols, ",", SNAPSHOT_COLUMNS)
            for fh, col in zip(blocks, cols):
                if i:
                    fh.write("\n\n")
                _write_table(fh, (x, col), " ")
    if not plots:
        return
    write_table(os.path.join(plot, "tv.dat"),
                (traj.series_times, traj.tv_series), " ")
    write_table(os.path.join(plot, "mass.dat"),
                (traj.series_times, traj.mass_series), " ")
    phi_t = [s.trace.t1 for s in traj.slabs for _ in s.trace.phi]
    phi_v = [phi for s in traj.slabs for phi in s.trace.phi]
    write_table(os.path.join(plot, "phi.dat"), (phi_t, phi_v), " ")
