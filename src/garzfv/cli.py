"""Batch front-end.

Subcommands: solve, verify, stability, uniqueness, convergence, riemann,
validate-model.  Runs are configured by an INI file (--config) or a shipped
scenario name (--scenario); individual flags override config fields.  Exit
codes: 0 all requested work passed, 1 solver or check failure, 2 bad
configuration or arguments.

Output root resolution: --seed-dir flag, else GARZFV_OUTPUT_ROOT, else
./runs.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields

import numpy as np

from . import runio
from .config import (RunConfig, apply_overrides, config_from_scenario,
                     dump_config_text, parse_config)
from .core import Grid
from .errors import ConfigError, GarzError, PicardDivergenceError
from .iteration import solve_global
from .model import make_model, validate_model
from .oracle import lwr_riemann_exact
from .scenarios import SCENARIO_NAMES, perturb_data, scenario
from .verify import (audit_trajectory, convergence_study, measure_stability,
                     uniqueness_check)


def _add_run_source(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="INI run configuration")
    p.add_argument("--scenario", choices=SCENARIO_NAMES,
                   help="shipped scenario name")
    p.add_argument("--t-final", type=float, dest="t_final")
    p.add_argument("--n-cells", type=int, dest="n_cells")
    p.add_argument("--cfl", type=float, dest="cfl")
    p.add_argument("--tol-phi", type=float, dest="tol_phi")
    p.add_argument("--n-output", type=int, dest="n_output")
    p.add_argument("--out", dest="out_dir", help="run directory name")


def _add_output_root(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed-dir", help="output root directory")


def _load_config(args) -> RunConfig:
    if args.config and args.scenario:
        raise ConfigError("give either --config or --scenario, not both")
    if args.config:
        cfg = parse_config(args.config)
    elif args.scenario:
        cfg = config_from_scenario(scenario(args.scenario))
    else:
        raise ConfigError("one of --config or --scenario is required")
    # the run-source flags store under their RunConfig field names
    overrides = {f.name: getattr(args, f.name, None)
                 for f in fields(RunConfig)}
    return apply_overrides(cfg, overrides)


def _output_root(args) -> str:
    return getattr(args, "seed_dir", None) \
        or os.environ.get("GARZFV_OUTPUT_ROOT") or "runs"


def _out_dir(args, cfg: RunConfig, command: str) -> str:
    if cfg.out_dir:
        name = cfg.out_dir
    elif args.scenario:
        name = f"{command}-{args.scenario}"
    elif args.config:
        stem = os.path.splitext(os.path.basename(args.config))[0]
        name = f"{command}-{stem}"
    else:
        name = command
    return os.path.join(_output_root(args), name)


def _run_solve(cfg: RunConfig):
    return solve_global(cfg.data(), cfg.grid(), cfg.t_final, cfg.model(),
                        cfg.slab(), cfg.n_output)


def cmd_solve(args) -> int:
    cfg = _load_config(args)
    traj = _run_solve(cfg)
    report = audit_trajectory(traj) if cfg.audit else None
    out = _out_dir(args, cfg, "solve")
    runio.write_trajectory(out, traj, cfg, report,
                           write_snapshots=cfg.write_snapshots)
    if report is not None:
        runio.write_report(out, report)
    if cfg.write_plot:
        runio.emit_plotdata(out, traj)
    print(f"solved to t={cfg.t_final:g} in {len(traj.slabs)} slab(s); "
          f"outputs in {out}")
    if report is not None:
        print(report.summary())
        if not report.passed:
            return 1
    return 0


def cmd_verify(args) -> int:
    cfg = _load_config(args)
    traj = _run_solve(cfg)
    report = audit_trajectory(traj)
    out = _out_dir(args, cfg, "verify")
    runio.write_trajectory(out, traj, cfg, report, write_snapshots=False)
    runio.write_report(out, report)
    print(report.summary())
    return 0 if report.passed else 1


def cmd_stability(args) -> int:
    cfg = _load_config(args)
    grid = cfg.grid()
    data1 = cfg.data()
    if args.config2:
        cfg2 = parse_config(args.config2)
        if cfg2.grid() != grid:
            raise ConfigError("stability pair must share the grid")
        data2 = cfg2.data()
    else:
        if args.shift_cells == 0 and args.du_inf == 0.0:
            raise ConfigError(
                "give --config2 or a perturbation "
                "(--shift-cells / --du-inf)")
        data2 = perturb_data(data1, grid, args.shift_cells, args.du_inf)
    result = measure_stability(data1, data2, grid, cfg.t_final, cfg.model(),
                               cfg.slab(), cfg.n_output)
    out = _out_dir(args, cfg, "stability")
    runio.write_json(os.path.join(out, "stability.json"), {
        "k_measured": result.k_measured,
        "c_hat": result.c_hat,
        "lhs0": result.lhs0,
        "within_envelope": result.within_envelope,
        "times": result.times,
        "lhs_series": result.lhs_series,
        "ratio_series": result.ratio_series,
        "envelope_series": result.envelope_series,
        "note": result.note,
    })
    runio.emit_plotdata(out, stability=result)
    print(f"K_measured = {result.k_measured:.6g} "
          f"(empirical lower bound on any valid constant); "
          f"advisory envelope rate c_hat = {result.c_hat:.6g}")
    ok = bool(np.isfinite(result.k_measured)) and result.within_envelope
    return 0 if ok else 1


def cmd_uniqueness(args) -> int:
    cfg = _load_config(args)
    result = uniqueness_check(cfg.data(), cfg.grid(), cfg.t_final,
                              cfg.model(), cfg.slab(), args.seeds)
    out = _out_dir(args, cfg, "uniqueness")
    runio.write_json(os.path.join(out, "uniqueness.json"), {
        "gap": result.gap, "tol": result.tol, "passed": result.passed,
        "settings": result.settings,
    })
    print(f"max pairwise gap {result.gap:.3e} vs tol {result.tol:.3e}: "
          f"{'pass' if result.passed else 'FAIL'}")
    return 0 if result.passed else 1


def _exact_from_config(cfg: RunConfig):
    """Exact-solution closure for constant-marker two-piece Riemann data."""
    data = cfg.data()
    if data.psi_pieces or data.z_inf != 0.0:
        raise ConfigError(
            "convergence needs a constant-marker datum (no psi pieces, "
            "z_inf = 0)")
    pieces = data.rho_pieces
    if len(pieces) != 2 or pieces[0].x_right != pieces[1].x_left \
            or pieces[0].x_right != 0.0 \
            or pieces[0].v_left != pieces[0].v_right \
            or pieces[1].v_left != pieces[1].v_right:
        raise ConfigError(
            "convergence needs a two-piece Riemann datum with the jump "
            "at x = 0")
    rho_l = pieces[0].v_left
    rho_r = pieces[1].v_left
    model = cfg.model()

    def exact(t, x):
        return lwr_riemann_exact(rho_l, rho_r, data.u_inf, model, t, x)

    return exact


def cmd_convergence(args) -> int:
    cfg = _load_config(args)
    exact = _exact_from_config(cfg)
    try:
        sizes = [int(s) for s in args.grids.split(",")]
    except ValueError as exc:
        raise ConfigError(f"bad --grids list {args.grids!r}") from exc
    grids = [Grid(cfg.x_min, cfg.x_max, n) for n in sizes]
    window = None
    if args.window:
        try:
            lo, hi = (float(s) for s in args.window.split(","))
        except ValueError as exc:
            raise ConfigError(f"bad --window {args.window!r}") from exc
        window = (lo, hi)
    table = convergence_study(cfg.data(), cfg.t_final, grids, cfg.model(),
                              exact, cfg.slab(), window)
    out = _out_dir(args, cfg, "convergence")
    runio.write_json(os.path.join(out, "convergence.json"), {
        "rows": [{"h": r.h, "error": r.error, "order": r.order}
                 for r in table.rows],
        "window": list(window) if window else None,
    })
    print("h, L1 error, observed order")
    for r in table.rows:
        order = "-" if r.order is None else f"{r.order:.3f}"
        print(f"{r.h:.6g}, {r.error:.6e}, {order}")
    # runs that already sit at roundoff (e.g. a grid-aligned stationary
    # shock is resolved exactly) cannot show orders
    at_roundoff = all(e <= 1e-12 for e in table.errors())
    return 0 if table.monotone() or at_roundoff else 1


def cmd_riemann(args) -> int:
    model = make_model(args.model, {"gamma": args.gamma}
                       if args.model == "power" else {})
    grid = Grid(args.x_min, args.x_max, args.n_cells)
    x = grid.centers()
    rho = lwr_riemann_exact(args.rho_left, args.rho_right, args.u_bar,
                            model, args.t, x)
    out = os.path.join(_output_root(args), "riemann")
    lines = ["x_center,rho"]
    for xi, ri in zip(x, rho):
        lines.append(f"{xi:.17g},{ri:.17g}")
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, "exact.csv")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"exact profile at t={args.t:g} written to {path}")
    return 0


def cmd_validate_model(args) -> int:
    model = make_model(args.model, {"gamma": args.gamma}
                       if args.model == "power" else {})
    report = validate_model(model, args.u_max, args.n_samples)
    print(report.summary())
    return 0 if report.passed else 1


def cmd_dump_config(args) -> int:
    cfg = _load_config(args)
    sys.stdout.write(dump_config_text(cfg))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="garzfv",
        description="finite-volume solver kit for a 2x2 traffic system "
                    "with density-slaved marker transport")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="run one solve and write outputs")
    _add_run_source(p)
    _add_output_root(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify", help="solve and audit, report only")
    _add_run_source(p)
    _add_output_root(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("stability", help="measure the perturbation ratio")
    _add_run_source(p)
    _add_output_root(p)
    p.add_argument("--config2", help="second datum configuration")
    p.add_argument("--shift-cells", type=int, default=0,
                   help="shift the datum by this many cells")
    p.add_argument("--du-inf", type=float, default=0.0,
                   help="perturb the left marker boundary value")
    p.set_defaults(func=cmd_stability)

    p = sub.add_parser("uniqueness",
                       help="same data under perturbed solver settings")
    _add_run_source(p)
    _add_output_root(p)
    p.add_argument("--seeds", type=int, default=3)
    p.set_defaults(func=cmd_uniqueness)

    p = sub.add_parser("convergence",
                       help="grid ladder against the exact solution")
    _add_run_source(p)
    _add_output_root(p)
    p.add_argument("--grids", default="256,512,1024",
                   help="comma-separated cell counts, halving h")
    p.add_argument("--window",
                   help="x_lo,x_hi error window (use --window=-0.5,0.5 "
                        "for negative bounds)")
    p.set_defaults(func=cmd_convergence)

    p = sub.add_parser("riemann", help="exact Riemann profile to CSV")
    p.add_argument("--rho-left", "--rhoL", dest="rho_left", type=float,
                   required=True)
    p.add_argument("--rho-right", "--rhoR", dest="rho_right", type=float,
                   required=True)
    p.add_argument("--u", dest="u_bar", type=float, required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--x-min", type=float, default=-4.0)
    p.add_argument("--x-max", type=float, default=4.0)
    p.add_argument("--n-cells", type=int, default=512)
    p.add_argument("--model", default="greenshields")
    p.add_argument("--gamma", type=float, default=1.0)
    _add_output_root(p)
    p.set_defaults(func=cmd_riemann)

    p = sub.add_parser("validate-model", help="closure condition check")
    p.add_argument("--model", default="greenshields")
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--u-max", type=float, default=1.0)
    p.add_argument("--n-samples", type=int, default=101)
    p.set_defaults(func=cmd_validate_model)

    p = sub.add_parser("dump-config",
                       help="print the normalized configuration")
    _add_run_source(p)
    p.set_defaults(func=cmd_dump_config)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except PicardDivergenceError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        trace = exc.trace
        if trace is not None:
            print(f"slab [{trace.t0:g}, {trace.t1:g}], "
                  f"tol {trace.tol_phi:.3e}", file=sys.stderr)
            for rec in trace.records:
                print(f"  iterate {rec.index}: phi {rec.phi_mixed:.6e}",
                      file=sys.stderr)
        return 1
    except GarzError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
