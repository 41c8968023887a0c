"""The benchmark's four workloads: inputs from a seed, one operation, checks.

Every workload is a closed loop: one caller runs one operation at a time.
``setup`` builds the inputs (the part a fresh process pays before its first
operation), ``run`` is the timed operation, and ``check`` runs after the
timer stops: it applies the correctness gates and returns the counts that
must repeat exactly on every repetition.

Seed 0 reproduces the shipped scenarios exactly.  Any other seed scales
each plateau and pulse value of the datum by an independent factor in
[1 - JITTER, 1]; piece edges are untouched, so they stay on the grid and
the data keep their margins.  The factors never exceed 1 because two seed
scenarios sit on an edge that an upward nudge crosses:

* vacuum's growth constant C_tilde is 1.6, just under the 4 ln(3/2) = 1.62
  at which tau0 drops below 1/4; 1.5 % more marker slope adds a fifth slab
  and about 25 % more work to every operation.
* smoke's plateau 0.6 sits on an entropy level.  Any plateau in
  (0.6, 0.62] leaves a level-0.6 residual near 0.08 that does not shrink
  with h, so at n = 1536 the audit (tol 10 h = 0.078) fails.  That is a
  pre-existing defect of the scheme or of the audit, not fixed here;
  README.md gives a reproduction.  Keeping the factors at or below 1
  keeps every benchmark operation off it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import shutil
from dataclasses import dataclass, field, replace
from typing import Any, Callable

import numpy as np

from garzfv import cli, iteration, verify
from garzfv.config import (RunConfig, config_from_scenario, dump_config_text,
                           parse_config)
from garzfv.core import Grid, InitialData, Piece
from garzfv.model import CustomVelocityModel
from garzfv.oracle import lwr_riemann_exact
from garzfv.scenarios import perturb_data, scenario

DEFAULT_SEED = 0
JITTER = 0.02

# cli-io: L1(rho) distance of the final snapshot from the exact rarefaction.
# Seed 0 gives 6.54e-3 at n = 1536 and 3.12e-2 at n = 192, and seeds 1-10
# stay within 3 % of that; the gate allows 25 % above the seed-0 value.
L1_TOL = {1536: 8.2e-3, 192: 3.9e-2}

# verify-custom solves smoke to half its final time: uniqueness_check's
# snapshot cadence, not the grid, sets its step count, and the whole
# horizon made each operation 6 s, too few per run for a steady median
VERIFY_T_FINAL = 0.5


@dataclass
class Outcome:
    """What one operation produced, reduced after the timer stopped."""

    problems: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    values: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    n_cells: int
    n_cells_small: int
    setup: Callable[..., Any]
    run: Callable[[Any], Any]
    check: Callable[[Any, Any], Outcome]


# -- seeded data --------------------------------------------------------------


def _jitter_pieces(pieces, rng):
    out = []
    for p in pieces:
        f = 1.0 - rng.uniform(0.0, JITTER)
        out.append(Piece(p.x_left, p.x_right, p.v_left * f, p.v_right * f))
    return tuple(out)


def seeded_data(data: InitialData, seed: int) -> InitialData:
    if seed == DEFAULT_SEED:
        return data
    rng = np.random.default_rng(seed)
    return InitialData(rho_pieces=_jitter_pieces(data.rho_pieces, rng),
                       psi_pieces=_jitter_pieces(data.psi_pieces, rng),
                       z_inf=data.z_inf, u_inf=data.u_inf)


def _resized(grid: Grid, n_cells: int) -> Grid:
    return Grid(grid.x_min, grid.x_max, n_cells)


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


def _trajectory_counts(traj) -> dict:
    final = traj.final_state()
    return {
        "slabs": len(traj.slabs),
        "iterates": sum(s.trace.iterations for s in traj.slabs),
        "steps": sum(s.n_steps for s in traj.slabs),
        "final_state": _digest(final.rho.values, final.v.values,
                               final.w.values),
    }


# -- solve + audit (smoke-audited, vacuum-march) ------------------------------


@dataclass
class SolveInputs:
    data: InitialData
    grid: Grid
    t_final: float
    model: Any
    cfg: iteration.SlabConfig


def _solve_setup(scenario_name: str, cfg: iteration.SlabConfig):
    def setup(seed: int, n_cells: int, workdir: str) -> SolveInputs:
        sc = scenario(scenario_name)
        inputs = SolveInputs(seeded_data(sc.data, seed),
                             _resized(sc.grid, n_cells), sc.t_final,
                             sc.model(), cfg)
        iteration.make_context(inputs.data, inputs.grid, inputs.t_final,
                               inputs.model, inputs.cfg)
        return inputs
    return setup


def _solve_run(inp: SolveInputs):
    traj = iteration.solve_global(inp.data, inp.grid, inp.t_final, inp.model,
                                  inp.cfg)
    return traj, verify.audit_trajectory(traj)


def _solve_check(inp: SolveInputs, result) -> Outcome:
    traj, report = result
    out = Outcome(counts=_trajectory_counts(traj))
    out.problems = [f"audit {c.name} failed: {c.detail}"
                    for c in report.failures()]
    return out


# -- cli-io -------------------------------------------------------------------


@dataclass
class CliInputs:
    argv: list
    run_dir: str
    cfg: RunConfig


def _cli_setup(seed: int, n_cells: int, workdir: str) -> CliInputs:
    sc = scenario("rarefaction")
    data = seeded_data(sc.data, seed)
    cfg = replace(config_from_scenario(sc), n_cells=n_cells,
                  rho_pieces=data.rho_pieces, psi_pieces=data.psi_pieces,
                  entropy_levels=0, n_output=64)
    ini = os.path.join(workdir, "cli-io.ini")
    os.makedirs(workdir, exist_ok=True)
    with open(ini, "w", encoding="utf-8") as fh:
        fh.write(dump_config_text(cfg))
    cfg = parse_config(ini)
    iteration.make_context(cfg.data(), cfg.grid(), cfg.t_final, cfg.model(),
                           cfg.slab())
    out_root = os.path.join(workdir, "out")
    return CliInputs(
        argv=["solve", "--config", ini, "--seed-dir", out_root],
        run_dir=os.path.join(out_root, "solve-cli-io"), cfg=cfg)


def _cli_run(inp: CliInputs):
    # the command's own report goes to a buffer, not the benchmark's stdout
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(inp.argv)


def _tree_digest(paths, root: str) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(os.path.relpath(path, root).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()[:16]


def l1_err_exact(snapshot_csv: str, cfg: RunConfig) -> float:
    """L1 distance in rho between a snapshot CSV and the exact solution."""
    table = np.loadtxt(snapshot_csv, delimiter=",", skiprows=1)
    x, rho = table[:, 0], table[:, 1]
    left, right = cfg.rho_pieces
    exact = lwr_riemann_exact(left.v_left, right.v_left, cfg.u_inf,
                              cfg.model(), cfg.t_final, x)
    return float(cfg.grid().h * np.abs(rho - exact).sum())


def _cli_check(inp: CliInputs, code) -> Outcome:
    out = Outcome()
    try:
        if code != 0:
            out.problems.append(f"garzfv solve exited with code {code}")
            return out
        files = sorted(os.path.join(d, f)
                       for d, _, names in os.walk(inp.run_dir)
                       for f in names)
        snaps = [f for f in files
                 if os.path.basename(os.path.dirname(f)) == "snapshots"]
        manifest = os.path.join(inp.run_dir, "manifest.json")
        expected_snaps = inp.cfg.n_output + 1
        if len(snaps) != expected_snaps:
            out.problems.append(f"{len(snaps)} snapshots written, "
                                f"expected {expected_snaps}")
            return out
        err = l1_err_exact(snaps[-1], inp.cfg)
        tol = L1_TOL[inp.cfg.n_cells]
        out.values["l1_err_exact"] = err
        if not err <= tol:
            out.problems.append(f"l1_err_exact {err:.4e} above {tol:.1e}")
        with open(manifest, encoding="utf-8") as fh:
            slabs = json.load(fh)["slabs"]
        out.counts = {
            "slabs": len(slabs),
            "iterates": sum(s["iterations"] for s in slabs),
            "steps": sum(s["n_steps"] for s in slabs),
            "runio.files": len(files),
            "runio.bytes": sum(os.path.getsize(f) for f in files),
            "outputs": _tree_digest([manifest] + snaps, inp.run_dir),
        }
        out.values["runio.files"] = out.counts["runio.files"]
        out.values["runio.bytes"] = out.counts["runio.bytes"]
        return out
    finally:
        shutil.rmtree(inp.run_dir, ignore_errors=True)


# -- verify-custom ------------------------------------------------------------


@dataclass
class VerifyInputs:
    data: InitialData
    data2: InitialData
    grid: Grid
    t_final: float
    model: Any
    cfg: iteration.SlabConfig


def custom_greenshields() -> CustomVelocityModel:
    """u (1 - rho) as a user closure: no closed-form critical density, so
    godunov_flux takes the sampled extremum path."""
    return CustomVelocityModel(lambda rho, u: u * (1.0 - rho),
                               name="custom-greenshields")


def _verify_setup(seed: int, n_cells: int, workdir: str) -> VerifyInputs:
    sc = scenario("smoke")
    grid = _resized(sc.grid, n_cells)
    data = seeded_data(sc.data, seed)
    cfg = iteration.SlabConfig(entropy_levels=0)
    model = custom_greenshields()
    iteration.make_context(data, grid, VERIFY_T_FINAL, model, cfg)
    return VerifyInputs(data, perturb_data(data, grid, shift_cells=2,
                                           du_inf=0.01),
                        grid, VERIFY_T_FINAL, model, cfg)


def _verify_run(inp: VerifyInputs):
    uniq = verify.uniqueness_check(inp.data, inp.grid, inp.t_final,
                                   inp.model, inp.cfg, seeds=3)
    stab = verify.measure_stability(inp.data, inp.data2, inp.grid,
                                    inp.t_final, inp.model, inp.cfg)
    return uniq, stab


def _verify_check(inp: VerifyInputs, result) -> Outcome:
    uniq, stab = result
    out = Outcome(counts={"uniqueness_gap": uniq.gap,
                          "k_measured": stab.k_measured})
    if not uniq.passed:
        out.problems.append(f"uniqueness gap {uniq.gap:.3e} above "
                            f"{uniq.tol:.3e}")
    if not (math.isfinite(stab.k_measured) and stab.within_envelope):
        out.problems.append(f"stability ratio {stab.k_measured:.4g} "
                            "outside its envelope")
    return out


# Why each workload was chosen is recorded in BENCHMARK.json and README.md.
WORKLOADS = {w.name: w for w in (
    Workload(
        name="smoke-audited",
        n_cells=1536, n_cells_small=192,
        setup=_solve_setup("smoke", iteration.SlabConfig()),
        run=_solve_run, check=_solve_check),
    Workload(
        name="vacuum-march",
        n_cells=6144, n_cells_small=384,
        setup=_solve_setup("vacuum", iteration.SlabConfig(entropy_levels=0)),
        run=_solve_run, check=_solve_check),
    Workload(
        name="cli-io",
        n_cells=1536, n_cells_small=192,
        setup=_cli_setup, run=_cli_run, check=_cli_check),
    Workload(
        name="verify-custom",
        n_cells=96, n_cells_small=48,
        setup=_verify_setup, run=_verify_run, check=_verify_check),
)}
