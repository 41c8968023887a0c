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
from contextlib import contextmanager
from dataclasses import asdict, fields, replace

import numpy as np

from . import runio
from .config import (RunConfig, apply_overrides, config_from_scenario,
                     dump_config_text, parse_config)
from .core import Grid, require_count
from .errors import (ConfigError, DegeneratePairError, GarzError,
                     InputRangeError, InvalidDataError, PicardDivergenceError)
from .iteration import check_run_span, solve_global
from .model import make_model, validate_model
from .oracle import lwr_riemann_exact, riemann_initial_data
from .scenarios import SCENARIO_NAMES, perturb_data, scenario
from .verify import (audit_trajectory, check_ladder, check_window,
                     convergence_study, measure_stability, uniqueness_check)


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
    cfg = _apply_flags(cfg, args)
    with _rejected_values():
        cfg.grid()
        cfg.data()
        cfg.slab()
        cfg.model()
        check_run_span(cfg.t_final, cfg.n_output)
    return cfg


@contextmanager
def _rejected_values():
    """A value that building the run's grid, datum, slab settings, closure
    or span, or a command's argument checks, reject is a configuration
    error (exit 2), not a solver failure."""
    try:
        yield
    except (InputRangeError, InvalidDataError) as exc:
        raise ConfigError(str(exc)) from exc


def _apply_flags(cfg: RunConfig, args) -> RunConfig:
    # the run-source flags store under their RunConfig field names
    return apply_overrides(cfg, {f.name: getattr(args, f.name, None)
                                 for f in fields(RunConfig)})


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


def _solve_audit_write(args, cfg: RunConfig, command: str,
                       snapshots: bool, plots: bool, audit: bool):
    """Solve cfg, audit the run if asked, and write the manifest, the
    reports and the asked-for snapshots and plots to the command's run
    directory, after deleting the outputs of an earlier run there that
    this one does not overwrite.  Returns (trajectory, report or None,
    run directory)."""
    slab = cfg.slab() if audit else replace(cfg.slab(), entropy_levels=0)
    traj = solve_global(cfg.data(), cfg.grid(), cfg.t_final, cfg.model(),
                        slab, cfg.n_output)
    report = audit_trajectory(traj) if audit else None
    out = _out_dir(args, cfg, command)
    runio.remove_stale_outputs(out, len(traj.states) if snapshots else 0,
                               plots, report is not None)
    runio.write_trajectory(out, traj, cfg, report, write_snapshots=snapshots,
                           write_plot=plots)
    return traj, report, out


def _report_exit(report) -> int:
    if report is None:
        return 0
    print(report.summary())
    return 0 if report.passed else 1


def cmd_solve(args) -> int:
    cfg = _load_config(args)
    traj, report, out = _solve_audit_write(
        args, cfg, "solve", cfg.write_snapshots, cfg.write_plot, cfg.audit)
    print(f"solved to t={cfg.t_final:g} in {len(traj.slabs)} slab(s); "
          f"outputs in {out}")
    return _report_exit(report)


def cmd_verify(args) -> int:
    cfg = _load_config(args)
    _, report, _ = _solve_audit_write(args, cfg, "verify", snapshots=False,
                                      plots=False, audit=True)
    return _report_exit(report)


def cmd_stability(args) -> int:
    cfg = _load_config(args)
    grid = cfg.grid()
    data1 = cfg.data()
    perturbation = [flag for flag, value in
                    (("--shift-cells", args.shift_cells),
                     ("--du-inf", args.du_inf)) if value != 0]
    if args.config2:
        if perturbation:
            raise ConfigError(
                "give --config2 or a perturbation, not both; --config2 "
                f"would ignore {', '.join(perturbation)}")
        cfg2 = _apply_flags(parse_config(args.config2), args)
        differ = [f"[{f.metadata['section']}] {f.metadata['key'] or f.name}"
                  for f in fields(RunConfig)
                  if f.metadata["section"] not in ("initial", "output")
                  and getattr(cfg2, f.name) != getattr(cfg, f.name)]
        if differ:
            raise ConfigError(
                "stability pair may differ only in [initial] and [output]; "
                f"--config2 differs in {', '.join(differ)}")
        with _rejected_values():
            data2 = cfg2.data()
    else:
        if not perturbation:
            raise ConfigError(
                "give --config2 or a perturbation "
                "(--shift-cells / --du-inf)")
        with _rejected_values():
            data2 = perturb_data(data1, grid, args.shift_cells, args.du_inf)
    result = measure_stability(data1, data2, grid, cfg.t_final, cfg.model(),
                               cfg.slab(), cfg.n_output)
    out = _out_dir(args, cfg, "stability")
    runio.write_json(os.path.join(out, "stability.json"), {
        **asdict(result), "within_envelope": result.within_envelope,
        "note": result.note})
    runio.write_table(os.path.join(out, "plot", "stability_ratio.dat"),
                      (result.times, result.ratio_series), " ")
    print(f"K_measured = {result.k_measured:.6g} "
          f"(empirical lower bound on any valid constant); "
          f"advisory envelope rate c_hat = {result.c_hat:.6g}")
    ok = bool(np.isfinite(result.k_measured)) and result.within_envelope
    return 0 if ok else 1


def cmd_uniqueness(args) -> int:
    cfg = _load_config(args)
    with _rejected_values():
        require_count("seeds", args.seeds, 2)
    result = uniqueness_check(cfg.data(), cfg.grid(), cfg.t_final,
                              cfg.model(), cfg.slab(), args.seeds,
                              cfg.n_output)
    out = _out_dir(args, cfg, "uniqueness")
    runio.write_json(os.path.join(out, "uniqueness.json"),
                     {**asdict(result), "passed": result.passed})
    print(f"max pairwise gap {result.gap:.3e} vs tol {result.tol:.3e}: "
          f"{'pass' if result.passed else 'FAIL'}")
    return 0 if result.passed else 1


def _exact_from_config(cfg: RunConfig):
    """Exact-solution closure for a datum that is riemann_initial_data on
    the configured domain."""
    data = cfg.data()
    pieces = data.rho_pieces
    rho_l, rho_r = (pieces[0].v_left, pieces[-1].v_right) if pieces \
        else (0.0, 0.0)
    if not (cfg.x_min < 0.0 < cfg.x_max and data == riemann_initial_data(
            rho_l, rho_r, data.u_inf, cfg.x_min, cfg.x_max)):
        raise ConfigError(
            "convergence needs a constant-marker Riemann datum: rho_left "
            "on [x_min, 0], rho_right on [0, x_max], no psi pieces, "
            "z_inf = 0")
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
    window = None
    if args.window:
        try:
            lo, hi = (float(s) for s in args.window.split(","))
        except ValueError as exc:
            raise ConfigError(f"bad --window {args.window!r}") from exc
        window = (lo, hi)
    with _rejected_values():
        grids = [Grid(cfg.x_min, cfg.x_max, n) for n in sizes]
        check_ladder(grids)
        if window is not None:
            check_window(window, grids)
    table = convergence_study(cfg.data(), cfg.t_final, grids, cfg.model(),
                              exact, cfg.slab(), window, cfg.n_output)
    out = _out_dir(args, cfg, "convergence")
    runio.write_json(os.path.join(out, "convergence.json"),
                     {**asdict(table), "window": window})
    print("h, L1 error, observed order")
    for r in table.rows:
        order = "-" if r.order is None else f"{r.order:.3f}"
        print(f"{r.h:.6g}, {r.error:.6e}, {order}")
    # runs that already sit at roundoff (e.g. a grid-aligned stationary
    # shock is resolved exactly) cannot show orders
    at_roundoff = all(e <= 1e-12 for e in table.errors())
    return 0 if table.monotone() or at_roundoff else 1


def cmd_riemann(args) -> int:
    with _rejected_values():
        model = make_model(args.model, args.gamma)
        x = Grid(args.x_min, args.x_max, args.n_cells).centers()
        # it range-checks only its arguments, before evaluating anything
        rho = lwr_riemann_exact(args.rho_left, args.rho_right, args.u_bar,
                                model, args.t, x)
    path = os.path.join(_output_root(args), "riemann", "exact.csv")
    runio.write_table(path, (x, rho), ",", ("x_center", "rho"))
    print(f"exact profile at t={args.t:g} written to {path}")
    return 0


def cmd_validate_model(args) -> int:
    with _rejected_values():
        model = make_model(args.model, args.gamma)
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

    def run_command(name, func, summary):
        p = sub.add_parser(name, help=summary)
        _add_run_source(p)
        _add_output_root(p)
        p.set_defaults(func=func)
        return p

    run_command("solve", cmd_solve, "run one solve and write outputs")
    run_command("verify", cmd_verify, "solve and audit, report only")
    p = run_command("stability", cmd_stability,
                    "measure the perturbation ratio")
    p.add_argument("--config2", help="second datum configuration")
    p.add_argument("--shift-cells", type=int, default=0,
                   help="shift the datum by this many cells")
    p.add_argument("--du-inf", type=float, default=0.0,
                   help="perturb the left marker boundary value")
    p = run_command("uniqueness", cmd_uniqueness,
                    "same data under perturbed solver settings")
    p.add_argument("--seeds", type=int, default=3)
    p = run_command("convergence", cmd_convergence,
                    "grid ladder against the exact Riemann solution")
    p.add_argument("--grids", default="256,512,1024",
                   help="comma-separated cell counts, halving h")
    p.add_argument("--window",
                   help="x_lo,x_hi error window (use --window=-0.5,0.5 "
                        "for negative bounds)")

    p = sub.add_parser("riemann", help="exact Riemann profile to CSV, for "
                       "any admissible closure (Osher's formula)")
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
    except (ConfigError, DegeneratePairError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except PicardDivergenceError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        trace = exc.trace
        if trace is not None:
            print(f"slab [{trace.t0:g}, {trace.t1:g}], "
                  f"tol {trace.tol_phi:.3e}", file=sys.stderr)
            for i, phi in enumerate(trace.phi, start=2):
                print(f"  iterate {i}: phi {phi:.6e}", file=sys.stderr)
        return 1
    except GarzError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
