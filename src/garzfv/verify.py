"""Measured counterparts of the well-posedness bounds.

audit_trajectory sweeps every stored state of a finished run against the
invariant battery (box bounds, marker domination, mass bookkeeping,
variation envelope, entropy residuals, contraction records).
measure_stability, uniqueness_check and convergence_study each launch a
family of solves and reduce them to one number with a pass criterion.

All audits are read-only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .core import (Grid, InitialData, build_initial_state, c0_distance,
                   l1_distance, require_count, require_real)
from .errors import DegeneratePairError, InputRangeError
from .iteration import (ProblemContext, SlabConfig, Trajectory, make_context,
                        solve_global)
from .model import VelocityModel

ENTROPY_TOL_FACTOR = 10.0


def reported_constants(ctx: ProblemContext) -> dict:
    """The run constants a report and a run manifest echo."""
    return {name: getattr(ctx, name)
            for name in ("m0", "c_tilde", "tau0", "tol_phi", "wave_bound",
                         "u0_sup", "z0_sup", "psi0_sup", "rho0_l1", "tv0")}


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    worst: float
    tol: float
    detail: str = ""

    def row(self) -> tuple:
        return (self.name, self.worst, self.tol, self.passed)


@dataclass
class RunReport:
    checks: list
    entropy_table: dict = field(default_factory=dict)
    constants: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list:
        return [c for c in self.checks if not c.passed]

    def summary(self) -> str:
        lines = []
        for c in self.checks:
            tag = "pass" if c.passed else "FAIL"
            line = f"[{tag}] {c.name}: worst {c.worst:.3e} (tol {c.tol:.3e})"
            if c.detail:
                line += f" -- {c.detail}"
            lines.append(line)
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)


def _bounds_checks(traj: Trajectory, ctx: ProblemContext) -> list:
    rho_lo = math.inf
    rho_hi = -math.inf
    u_lo = math.inf
    u_hi = -math.inf
    z_sup = 0.0
    psi_sup = 0.0
    dom_v = -math.inf
    dom_w = -math.inf
    for st in traj.states:
        rho = st.rho.values
        rho_lo = min(rho_lo, float(rho.min()))
        rho_hi = max(rho_hi, float(rho.max()))
        u_lo = min(u_lo, float(st.u.values.min()))
        u_hi = max(u_hi, float(st.u.values.max()))
        z_sup = max(z_sup, float(np.abs(st.z.values).max()))
        psi_sup = max(psi_sup, float(np.abs(st.psi.values).max()))
        dom_v = max(dom_v, float((np.abs(st.v.values)
                                  - ctx.z0_sup * rho).max()))
        dom_w = max(dom_w, float((np.abs(st.w.values)
                                  - ctx.psi0_sup * rho).max()))
    return [
        CheckResult("rho_in_unit_interval",
                    rho_lo >= -1e-12 and rho_hi <= 1.0 + 1e-12,
                    max(rho_hi - 1.0, -rho_lo, 0.0), 1e-12,
                    f"range [{rho_lo:.6g}, {rho_hi:.6g}]"),
        CheckResult("u_within_initial_sup",
                    u_lo >= -1e-10 and u_hi <= ctx.u0_sup + 1e-10,
                    max(u_hi - ctx.u0_sup, -u_lo, 0.0), 1e-10,
                    f"range [{u_lo:.6g}, {u_hi:.6g}], sup0 {ctx.u0_sup:.6g}"),
        CheckResult("z_within_initial_sup",
                    z_sup <= ctx.z0_sup + 1e-10,
                    max(z_sup - ctx.z0_sup, 0.0), 1e-10,
                    f"sup {z_sup:.6g} vs initial {ctx.z0_sup:.6g}"),
        CheckResult("psi_within_initial_sup",
                    psi_sup <= ctx.psi0_sup + 1e-10,
                    max(psi_sup - ctx.psi0_sup, 0.0), 1e-10,
                    f"sup {psi_sup:.6g} vs initial {ctx.psi0_sup:.6g}"),
        CheckResult("markers_dominated_by_density",
                    dom_v <= 1e-10 and dom_w <= 1e-10,
                    max(dom_v, dom_w, 0.0), 1e-10,
                    "|v| <= sup|z0| rho and |w| <= sup|psi0| rho"),
    ]


def _mass_checks(traj: Trajectory) -> list:
    mass0 = float(traj.mass_series[0])
    scale = max(abs(mass0), 1e-30)
    drift = np.abs(traj.mass_series - mass0 - traj.influx_series) / scale
    worst = float(drift.max())
    checks = [CheckResult(
        "mass_conservation", worst <= 1e-12, worst, 1e-12,
        "relative drift after boundary-influx correction")]
    max_influx = float(np.abs(traj.influx_series).max())
    if max_influx <= 1e-14 * scale:
        excess = float((traj.mass_series - mass0).max()) / scale
        checks.append(CheckResult(
            "l1_norm_non_increasing", excess <= 1e-12, max(excess, 0.0),
            1e-12, "no net boundary influx on this run"))
    else:
        checks.append(CheckResult(
            "l1_norm_non_increasing", True, 0.0, 1e-12,
            f"skipped: net boundary influx {max_influx:.3e} present"))
    return checks


def _tv_checks(traj: Trajectory, ctx: ProblemContext) -> list:
    tv = traj.tv_series
    times = traj.series_times
    checks = []
    if ctx.constant_u:
        worst = float((tv - tv[0]).max())
        checks.append(CheckResult(
            "tv_non_increasing", worst <= 1e-12, max(worst, 0.0), 1e-12,
            "constant marker: Godunov is TVD"))
    else:
        envelope = np.array([ctx.tv_envelope(t) for t in times])
        worst = float((tv - envelope).max())
        checks.append(CheckResult(
            "tv_within_envelope", worst <= 1e-12, max(worst, 0.0), 1e-12,
            f"D(t) = M0 e^(Ct) + (e^(Ct) - 1), M0={ctx.m0:.6g}, "
            f"C={ctx.c_tilde:.6g}"))
    if traj.slabs:
        t1 = traj.slabs[0].trace.t1
        in_first = times <= t1 + 1e-12 * max(1.0, t1)
        worst_first = float((tv[in_first] - ctx.m0).max())
        checks.append(CheckResult(
            "tv_first_slab_budget", worst_first <= 1e-12,
            max(worst_first, 0.0), 1e-12,
            f"TV <= M0 = {ctx.m0:.6g} for t <= {t1:.6g}"))
    return checks


def _entropy_check(traj: Trajectory, ctx: ProblemContext):
    table = {}
    for slab in traj.slabs:
        for k, r in slab.entropy_table().items():
            # np.maximum keeps a NaN residual, which Python's max would drop
            table[k] = float(np.maximum(r, table.get(k, -math.inf)))
    tol = ENTROPY_TOL_FACTOR * ctx.grid.h
    if not table:
        return CheckResult("entropy_residual", True, 0.0, tol,
                           "entropy audit disabled"), table
    bad = [k for k, r in table.items() if not math.isfinite(r)]
    if bad:
        return CheckResult(
            "entropy_residual", False, math.nan, tol,
            f"non-finite residual at k-levels {bad}"), table
    worst = max(table.values())
    return CheckResult(
        "entropy_residual", worst <= tol, worst, tol,
        f"max over {len(table)} k-levels; tol = 10 h"), table


def _phi_check(traj: Trajectory, ctx: ProblemContext):
    worst = 0.0
    all_converged = True
    iters = []
    for slab in traj.slabs:
        tr = slab.trace
        all_converged = all_converged and tr.converged
        iters.append(tr.iterations)
        # a kept slab's trace holds at least one Phi
        worst = max(worst, tr.phi[-1] - ctx.tol_phi)
    return CheckResult(
        "picard_converged", all_converged and worst <= 0.0,
        max(worst, 0.0), ctx.tol_phi,
        f"iterations per slab: {iters}")


def audit_trajectory(traj: Trajectory) -> RunReport:
    """Evaluate the full invariant battery on a finished trajectory.

    Failures become report entries, never exceptions; the report is a pure
    function of the trajectory.
    """
    ctx = traj.context
    checks = []
    checks.extend(_bounds_checks(traj, ctx))
    checks.extend(_mass_checks(traj))
    checks.extend(_tv_checks(traj, ctx))
    entropy_check, table = _entropy_check(traj, ctx)
    checks.append(entropy_check)
    checks.append(_phi_check(traj, ctx))
    notes = [
        "the variation envelope D(t) is one admissible exponential choice; "
        "the underlying bound names no closed form",
    ]
    return RunReport(checks=checks, entropy_table=table,
                     constants=reported_constants(ctx), notes=notes)


@dataclass
class StabilityResult:
    """Empirical stability constant of a perturbation pair.

    k_measured is a lower bound on any constant valid in the continuous
    estimate; it is not itself a proof of the bound.
    """

    k_measured: float
    times: np.ndarray
    lhs_series: np.ndarray
    ratio_series: np.ndarray
    envelope_series: np.ndarray
    c_hat: float
    lhs0: float

    @property
    def within_envelope(self) -> bool:
        return bool(np.all(self.ratio_series
                           <= self.envelope_series * (1.0 + 1e-9)))

    note = ("K_measured is an empirical lower bound on any valid stability "
            "constant for this pair")


def measure_stability(data1: InitialData, data2: InitialData, grid: Grid,
                      t_final: float, model: VelocityModel,
                      cfg: SlabConfig | None = None,
                      n_output: int = 32) -> StabilityResult:
    """Solve both data and measure sup_t LHS(t)/LHS(0) of the C0+L1 gap.

    LHS(t) = max|u1 - u2| + L1|rho1 - rho2| at the shared output times.
    Identical data (LHS(0) below 1e-15) raise DegeneratePairError before
    any solve: use uniqueness_check for same-data reproducibility instead.
    The envelope series exp(c_hat t) uses a growth rate assembled from both
    runs' constants and bounds every ratio in practice; it is advisory.
    """
    # the pair is compared on states only, so neither run is entropy-audited
    cfg = replace(cfg or SlabConfig(), entropy_levels=0)

    def gap(s1, s2):
        return c0_distance(s1.u, s2.u) + l1_distance(s1.rho, s2.rho)

    # the initial states are the bits of each run's first state
    lhs0 = gap(build_initial_state(data1, grid),
               build_initial_state(data2, grid))
    if lhs0 <= 1e-15:
        raise DegeneratePairError(
            "initial data coincide (LHS(0) = 0); the stability ratio is "
            "undefined -- run uniqueness_check for same-data agreement")
    traj1 = solve_global(data1, grid, t_final, model, cfg, n_output)
    traj2 = solve_global(data2, grid, t_final, model, cfg, n_output)
    times = traj1.output_times
    lhs = np.array([gap(s1, s2) for s1, s2 in zip(traj1.states,
                                                  traj2.states)])
    ratio = lhs / lhs0
    c1, c2 = traj1.context, traj2.context
    c_hat = max(c1.c_tilde, c2.c_tilde) \
        + c1.bounds.d_u_sup * (1.0 + max(c1.m0, c2.m0))
    envelope = np.exp(c_hat * times)
    return StabilityResult(
        k_measured=float(ratio.max()), times=times, lhs_series=lhs,
        ratio_series=ratio, envelope_series=envelope, c_hat=float(c_hat),
        lhs0=lhs0)


@dataclass
class UniquenessResult:
    gap: float
    tol: float
    settings: list

    @property
    def passed(self) -> bool:
        return self.gap <= self.tol


_UNIQ_CFLS = (0.4, 0.5, 0.8)
_UNIQ_CADENCES = (32, 48, 24)
_UNIQ_TOL_FACTORS = (1.0, 0.5, 0.25)


def uniqueness_check(data: InitialData, grid: Grid, t_final: float,
                     model: VelocityModel, cfg: SlabConfig | None = None,
                     seeds: int = 3, n_output: int = 16) -> UniquenessResult:
    """Same data, perturbed solver settings: max pairwise L1+C0 gap.

    Each seed varies the CFL number, the snapshot cadence and the Phi
    tolerance factor.  The pass threshold is 20x the base Phi tolerance.
    """
    require_count("seeds", seeds, 2)
    base = cfg or SlabConfig()
    tol_base = make_context(data, grid, t_final, model, base)[0].tol_phi
    settings = []
    for i in range(seeds):
        j = i % 3
        factor = _UNIQ_TOL_FACTORS[j] / (2.0 ** (i // 3))
        settings.append(dict(cfl=_UNIQ_CFLS[j],
                             snapshots_per_slab=_UNIQ_CADENCES[j],
                             tol_phi=factor * tol_base))
    trajs = [solve_global(data, grid, t_final, model,
                          replace(base, entropy_levels=0, **s), n_output)
             for s in settings]
    gap = 0.0
    for a in range(len(trajs)):
        for b in range(a + 1, len(trajs)):
            for sa, sb in zip(trajs[a].states, trajs[b].states):
                gap = max(gap, l1_distance(sa.rho, sb.rho)
                          + c0_distance(sa.u, sb.u))
    return UniquenessResult(gap=float(gap), tol=20.0 * tol_base,
                            settings=settings)


@dataclass
class ConvergenceRow:
    h: float
    error: float
    order: float | None


@dataclass
class ConvergenceTable:
    rows: list

    def orders(self) -> list:
        return [r.order for r in self.rows if r.order is not None]

    def errors(self) -> list:
        return [r.error for r in self.rows]

    def monotone(self) -> bool:
        e = self.errors()
        return all(e[i + 1] <= e[i] for i in range(len(e) - 1))


def check_ladder(grids: list) -> None:
    """At least 3 grids, each halving h of the one before."""
    if len(grids) < 3:
        raise InputRangeError("need a ladder of at least 3 grids")
    for g_coarse, g_fine in zip(grids, grids[1:]):
        ratio = g_coarse.h / g_fine.h
        if abs(ratio - 2.0) > 1e-9:
            raise InputRangeError(
                f"ladder must halve h between rungs, got ratio {ratio:g}")


def check_window(window, grids) -> None:
    """An error window (x_lo, x_hi): finite x_lo <= x_hi that hold a cell
    centre of every grid, so no rung's error is 0 for want of cells."""
    lo = require_real("window x_lo", window[0])
    hi = require_real("window x_hi", window[1], lo)
    for grid in grids:
        x = grid.centers()
        if not np.any((x >= lo) & (x <= hi)):
            raise InputRangeError(
                f"window [{lo}, {hi}] holds no cell centre of the "
                f"{grid.n_cells}-cell grid")


def convergence_study(data: InitialData, t_final: float, grids,
                      model: VelocityModel, exact,
                      cfg: SlabConfig | None = None,
                      window: tuple | None = None,
                      n_output: int = 4) -> ConvergenceTable:
    """L1 errors against a reference on a grid ladder, with observed orders.

    data is solved on every grid.  exact is a callable (t, x) -> density
    evaluated at cell centers.  window = (x_lo, x_hi) restricts the error
    integral and must hold a cell centre of every grid.  Orders are
    log2(e_coarse / e_fine) between consecutive rungs.
    """
    grids = list(grids)
    check_ladder(grids)
    if window is not None:
        check_window(window, grids)
    cfg = replace(cfg or SlabConfig(), entropy_levels=0)

    rows = []
    prev_err = None
    for grid in grids:
        final = solve_global(data, grid, t_final, model, cfg,
                             n_output).final_state()
        x = grid.centers()
        ref = np.asarray(exact(t_final, x), dtype=float)
        diff = np.abs(final.rho.values - ref)
        if window is not None:
            lo, hi = window
            mask = (x >= lo) & (x <= hi)
            diff = diff[mask]
        err = float(grid.h * diff.sum())
        if prev_err is None or (err == 0.0 and prev_err == 0.0):
            order = None
        elif err > 0.0 and prev_err > 0.0:
            order = float(math.log2(prev_err / err))
        else:
            order = math.inf if err == 0.0 else -math.inf
        rows.append(ConvergenceRow(h=grid.h, error=err, order=order))
        prev_err = err
    return ConvergenceTable(rows=rows)
