"""Slab-chained fixed-point construction: constants, traces, global solves."""
import dataclasses
import importlib
import inspect
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from garzfv import (
    CustomVelocityModel,
    GreenshieldsModel,
    Grid,
    InitialData,
    InputRangeError,
    InvalidDataError,
    ModelValidationError,
    PicardDivergenceError,
    Piece,
    PowerLawModel,
    SlabConfig,
    VelocityModel,
    audit_trajectory,
    build_initial_state,
    check_margins,
    compute_M0,
    compute_tau0,
    compute_tilde_C,
    convergence_study,
    follow_the_leader,
    l1_distance,
    lwr_riemann_exact,
    make_context,
    perturb_data,
    picard_slab,
    recommended_domain,
    riemann_initial_data,
    scenario,
    solve_global,
    total_variation,
    uniqueness_check,
    validate_model,
)
from garzfv import cli, iteration
from garzfv.core import CellField
from garzfv.scenarios import SCENARIO_NAMES
from garzfv.scalar import entropy_residual_arrays, pad2

GSH = GreenshieldsModel()


def test_tv_budget_formula():
    g = Grid(0.0, 1.0, 40)
    flat = CellField(np.full(40, 0.3), g)
    assert compute_M0(flat) == pytest.approx(4.0)
    # two unit jumps up and down: TV = 2
    two = np.where((np.arange(40) >= 10) & (np.arange(40) < 30), 1.0, 0.0)
    assert compute_M0(CellField(two, g)) == pytest.approx(12.0)
    half = np.where(np.arange(40) < 20, 0.25, 0.75)
    assert compute_M0(CellField(half, g)) == pytest.approx(6.0)


def test_growth_constant_examples():
    b = GSH.sup_bounds(1.0)
    assert compute_tilde_C(b, 0.0, 0.0, 1.0) == 0.0
    # unit sups, unit mass: 1 + 1 + 0 + 1 * (1 + 1)
    assert compute_tilde_C(b, 1.0, 1.0, 1.0) == pytest.approx(4.0, abs=1e-12)
    # with psi = 0 the z-linear terms double when z doubles
    c1 = compute_tilde_C(b, 1.0, 0.0, 1.0)
    c2 = compute_tilde_C(b, 2.0, 0.0, 1.0)
    assert c2 > c1
    lin1 = c1 - compute_tilde_C(b, 0.0, 0.0, 1.0)
    lin2 = c2 - compute_tilde_C(b, 0.0, 0.0, 1.0)
    assert lin2 == pytest.approx(2 * lin1, rel=1e-12)


def test_slab_length_rule():
    assert compute_tau0(0.0) == 0.25
    # independent scans of tau in (0, 1/4]: the rule's condition
    # exp(c tau) - 1 <= 1/2 and the paper's exp(c tau) - 1 <= 2 tau
    grid_tau = np.linspace(1e-6, 0.25, 20001)
    for c in (0.5, 1.0, 1.5, 1.9, 1.99996, 2.0, 4.0, 10.0):
        tau = compute_tau0(c)
        growth = np.expm1(c * grid_tau)
        best = grid_tau[growth <= 0.5].max()
        assert tau == pytest.approx(best, abs=1e-4)
        assert 0.0 < tau <= 0.25
        assert math.expm1(c * tau) <= 0.5 + 1e-9
        # the paper's root (none for c >= 2) is never longer, and both are
        # 1/4 while exp(c / 4) - 1 <= 1/2
        paper = grid_tau[growth <= 2 * grid_tau]
        paper_best = paper.max() if len(paper) else 0.0
        assert paper_best <= tau
        if c <= 4 * math.log(1.5):
            assert paper_best == tau == 0.25
    assert compute_tau0(4.0) == pytest.approx(min(0.25, math.log(1.5) / 4.0),
                                              abs=1e-10)
    # continuous across c = 2: Lipschitz with constant ln(3/2) / c^2 < 0.12
    cs = np.linspace(1.9, 2.1, 2001)
    taus = np.array([compute_tau0(c) for c in cs])
    assert np.abs(np.diff(taus)).max() <= 0.12 * (cs[1] - cs[0])
    assert compute_tau0(1.99996) == pytest.approx(compute_tau0(2.0),
                                                  abs=1e-5)
    for bad in (-1.0, math.nan, math.inf):
        with pytest.raises(InputRangeError):
            compute_tau0(bad)


def test_growth_constant_just_below_two_keeps_long_slabs():
    # V = u (1 - rho)^2 on vacuum: the finite-difference sup bounds put
    # C_tilde just below 2, where the paper's root would be about 2e-5
    sc = scenario("vacuum")
    grid = Grid(sc.grid.x_min, sc.grid.x_max, 96)
    model = CustomVelocityModel(lambda r, u: u * (1 - r) ** 2)
    ctx, _ = make_context(sc.data, grid, sc.t_final, model, SlabConfig())
    assert ctx.c_tilde < 2.0
    assert ctx.tau0 == pytest.approx(compute_tau0(2.0), abs=1e-3)
    traj = solve_global(sc.data, grid, sc.t_final, model)
    assert len(traj.slabs) <= 6
    assert audit_trajectory(traj).passed


def _smoke_context(n=128):
    sc = scenario("smoke")
    grid = Grid(sc.grid.x_min, sc.grid.x_max, n)
    cfg = SlabConfig()
    ctx, st0 = make_context(sc.data, grid, sc.t_final, sc.model(), cfg)
    return sc, grid, cfg, ctx, st0


def _traced_smoke_solve(monkeypatch, cfg, n=192):
    """Solve smoke, recording per slab each march (its iterate, its step
    plan, its arguments, the kernel calls it made), the calls through
    iteration's names of the CFL speed, the density step, the marker step
    and the multi-level entropy kernel, the batches of steps that kernel
    got, and what picard_slab returned."""
    marches, slabs, batches = [], [], []
    calls = {"speed": 0, "step": 0, "marker": 0, "maxima": 0}
    real_march = iteration._march_slab
    real_slab = iteration.picard_slab

    def march(*args):
        before = dict(calls)
        iterate, plan = real_march(*args)
        made = {key: calls[key] - before[key] for key in calls}
        marches.append((iterate, plan, args, made))
        return iterate, plan

    def counted(key, real):
        def call(*args):
            calls[key] += 1
            return real(*args)
        return call

    real_maxima = iteration.entropy_residual_maxima

    def maxima(steps, *args):
        calls["maxima"] += 1
        batches.append(list(steps))
        return real_maxima(steps, *args)

    def slab(*args, **kwargs):
        first, before, audited = len(marches), dict(calls), len(batches)
        result = real_slab(*args, **kwargs)
        slabs.append((marches[first:],
                      {key: calls[key] - before[key] for key in calls},
                      result, batches[audited:]))
        return result

    monkeypatch.setattr(iteration, "_march_slab", march)
    monkeypatch.setattr(iteration, "max_speed",
                        counted("speed", iteration.max_speed))
    monkeypatch.setattr(iteration, "density_step_arrays",
                        counted("step", iteration.density_step_arrays))
    monkeypatch.setattr(iteration, "marker_step_arrays",
                        counted("marker", iteration.marker_step_arrays))
    monkeypatch.setattr(iteration, "entropy_residual_maxima", maxima)
    monkeypatch.setattr(iteration, "picard_slab", slab)
    sc = scenario("smoke")
    grid = Grid(sc.grid.x_min, sc.grid.x_max, n)
    traj = solve_global(sc.data, grid, sc.t_final, sc.model(), cfg)
    return traj, slabs


def _plan_steps(slab_marches) -> int:
    return sum(len(plan) for _, plan, *_ in slab_marches)


def _assert_one_kernel_call_per_step(slab_marches):
    # perfbench/spans.py times the kernels at these bindings: a march
    # step that bypassed one would zero its span without any error
    for _, plan, _, made in slab_marches:
        assert made == {"speed": len(plan), "step": len(plan),
                        "marker": len(plan), "maxima": 0}


def _max_cfl(plan, h) -> float:
    """The largest CFL number dt * speed / h of a step plan, 0.0 when it
    has no step."""
    return max((dt * speed / h for *_, dt, speed in plan), default=0.0)


def _same_iterate(a, b):
    for name in ("rho", "v", "w"):
        for x, y in zip(getattr(a, name), getattr(b, name), strict=True):
            if x.tobytes() != y.tobytes():
                return False
    return (a.times.tobytes() == b.times.tobytes()
            and a.influx.tobytes() == b.influx.tobytes())


def test_entropy_audit_runs_once_per_step_of_converged_iterate(monkeypatch):
    # every Picard march runs unaudited (auditing each would cost n_steps x
    # (iterates - 1) kernel calls per slab) and no march runs after the one
    # that converged: the audit replays the kept march's density steps, one
    # density step per step of its plan, each step's cells reaching the
    # audit kernel exactly once, in batches of AUDIT_BATCH_CELLS cells, and
    # records what an audit done inline during the full-width march of the
    # same slab inputs records, bit for bit.  The call counts are the ones
    # the span tracer in perfbench/spans.py reads.
    budget = iteration.AUDIT_BATCH_CELLS
    traj, slabs = _traced_smoke_solve(monkeypatch, SlabConfig())
    assert len(slabs) == len(traj.slabs) >= 2
    for slab_marches, calls, (iterate, trace, record), batches in slabs:
        assert trace.iterations >= 3
        assert len(slab_marches) == trace.iterations - 1
        kept, plan, args, _ = slab_marches[-1]
        assert kept is iterate
        _assert_one_kernel_call_per_step(slab_marches)
        # the replay steps the density only: no speed and no marker step
        assert calls["step"] == _plan_steps(slab_marches) + len(plan)
        assert calls["speed"] == calls["marker"] == _plan_steps(slab_marches)
        assert calls["maxima"] == len(batches) < len(plan) == record.n_steps
        # the steps reach the kernel once each, in plan order, each with
        # the cells of its window and the padded windows of its own copies
        steps = [step for batch in batches for step in batch]
        assert [len(rho_new) for _, rho_new, _ in steps] \
            == [b - a for a, b, *_ in plan]
        assert [dt for dt, *_ in steps] == [dt for *_, dt, _ in plan]
        for (_, _, parts), (_, _, later) in zip(steps, steps[1:]):
            assert not np.shares_memory(parts[0], later[0])
            assert not np.shares_memory(parts[1], later[1])
        # every batch but the last closes once it holds the budget
        cells = [sum(len(rho_new) for _, rho_new, _ in batch)
                 for batch in batches]
        assert all(c >= budget for c in cells[:-1])
        assert all(c - len(batch[-1][1]) < budget
                   for c, batch in zip(cells, batches))
        assert len(record.entropy_table()) == 11
        h = args[6]
        ref, ref_plan, maxima = audited_reference_march(*args,
                                                        record.k_levels)
        assert _same_iterate(ref, iterate)
        assert record.entropy_max.tobytes() == maxima.tobytes()
        assert record.n_steps == len(ref_plan)
        assert record.max_cfl == max(dt * speed / h
                                     for *_, dt, speed in ref_plan)


def test_unaudited_solve_marches_once_per_picard_iterate(monkeypatch):
    traj, slabs = _traced_smoke_solve(monkeypatch,
                                      SlabConfig(entropy_levels=0))
    for slab_marches, calls, (iterate, trace, record), batches in slabs:
        assert batches == []
        assert len(slab_marches) == trace.iterations - 1
        kept, plan, *_ = slab_marches[-1]
        assert kept is iterate
        _assert_one_kernel_call_per_step(slab_marches)
        # the marches take every step: no replay runs
        steps = _plan_steps(slab_marches)
        assert calls == {"speed": steps, "step": steps, "marker": steps,
                         "maxima": 0}
        assert record.n_steps == len(plan) > 0
        assert record.entropy_table() == {}
    assert all(s.entropy_table() == {} for s in traj.slabs)


# per scenario at n = 1536, unaudited: marches per slab, and each slab's
# Phi as marching every iterate gives it (recorded before the repeated-rows
# rule; vacuum's before a slab kept only what the next iterate reads); the
# 0.0 is the iterate whose marker rows repeat and is not marched
REPEATED_ROWS = {
    "vacuum": (3, [[0.28138478499511005, 0.08494199043549569,
                    0.0008149909142128223],
                   [0.2762107157095962, 0.07645536041172302,
                    0.0006877858116337765],
                   [0.27152623908374607, 0.07013540802333285,
                    0.0005915820986480064],
                   [0.26742803591011666, 0.06510585009212819,
                    0.0005176436230445901]]),
    "shock": (1, [[1.3877787807814457e-17]] * 4),
    "rarefaction": (1, [[0.044999999999999984, 0.0],
                        [0.044999999999999686, 0.0],
                        [0.04499999999999999, 0.0],
                        [0.044999999999999984, 0.0]]),
    "smoke": (3, [[0.14750000000000005, 0.03971396660525695,
                   0.0003293452745577013],
                  [0.1473407786243353, 0.03973830545011422,
                   0.0003313769417763988],
                  [0.14684421405314924, 0.03971145704058861,
                   0.00033220647013420206],
                  [0.14601402321139756, 0.039648180534877946,
                   0.00033201552707754454]]),
}


@pytest.mark.parametrize("name", sorted(REPEATED_ROWS))
def test_repeated_marker_rows_are_not_marched_again(monkeypatch, name):
    marches = [0]
    real_march = iteration._march_slab

    def march(*args):
        marches[0] += 1
        return real_march(*args)

    monkeypatch.setattr(iteration, "_march_slab", march)
    per_slab, phis = REPEATED_ROWS[name]
    sc = scenario(name)
    grid = Grid(sc.grid.x_min, sc.grid.x_max, 1536)
    traj = solve_global(sc.data, grid, sc.t_final, sc.model(),
                        SlabConfig(entropy_levels=0))
    assert [s.trace.phi for s in traj.slabs] == phis
    assert [s.trace.iterations for s in traj.slabs] == [
        len(phi) + 1 for phi in phis]
    assert marches[0] == per_slab * len(traj.slabs)


def test_constant_datum_converges_in_two_iterations():
    g = Grid(-4.0, 4.0, 64)
    data = InitialData((Piece(-4.0, 4.0, 0.45, 0.45),), (), z_inf=0.0,
                       u_inf=1.0)
    cfg = SlabConfig()
    ctx, st0 = make_context(data, g, 1.0, GSH, cfg)
    iterate, trace, recorder = picard_slab(st0, 0.0, ctx.tau0, ctx, cfg)
    assert trace.converged and trace.iterations == 2
    for rho in iterate.rho:
        assert np.abs(rho - 0.45).max() < 1e-13


def test_constant_u_slab_converges_second_iteration():
    # psi0 = 0 and z_inf = 0 freeze u, so the first sweep is already exact
    sc = scenario("shock")
    cfg = SlabConfig()
    ctx, st0 = make_context(sc.data, sc.grid, sc.t_final, sc.model(), cfg)
    iterate, trace, recorder = picard_slab(st0, 0.0, ctx.tau0, ctx, cfg)
    assert trace.converged and trace.iterations == 2
    assert trace.phi[-1] <= ctx.tol_phi


def test_single_slab_when_horizon_is_short():
    g = Grid(-4.0, 4.0, 64)
    data = InitialData((Piece(-1.0, 1.0, 0.5, 0.5),), (), u_inf=1.0)
    traj = solve_global(data, g, 0.2, GSH)
    assert len(traj.slabs) == 1
    assert traj.slabs[0].trace.t1 == pytest.approx(0.2)


def test_constant_datum_long_horizon_stays_constant():
    g = Grid(-4.0, 4.0, 64)
    data = InitialData((Piece(-4.0, 4.0, 0.45, 0.45),), (), u_inf=1.0)
    traj = solve_global(data, g, 10.0, GSH, n_output=10)
    for st in traj.states:
        assert np.abs(st.rho.values - 0.45).max() < 1e-12
        assert np.abs(st.u.values - 1.0).max() < 1e-12
    assert len(traj.slabs) == 40


def test_output_cadence_and_state_lookup():
    sc = scenario("constant")
    traj = solve_global(sc.data, sc.grid, sc.t_final, sc.model(), n_output=8)
    assert len(traj.states) == 9
    times = [st.t for st in traj.states]
    assert times == pytest.approx(list(np.linspace(0.0, sc.t_final, 9)),
                                  abs=1e-12)


@pytest.mark.parametrize("name", ["smoke", "vacuum"])
@pytest.mark.parametrize("entropy_audit", [True, False])
def test_series_agree_with_the_stored_states(solved, name, entropy_audit):
    # the series are assembled per slab from the kept iterate's rows; at
    # every output time they must equal the stored state's own figures
    if entropy_audit:
        sc, traj = solved(name)
    else:
        sc = scenario(name)
        traj = solve_global(sc.data, sc.grid, sc.t_final, sc.model(),
                            SlabConfig(entropy_levels=0))
    times = traj.series_times
    assert np.all(np.diff(times) > 0.0)
    assert len(times) == len(traj.mass_series) == len(traj.tv_series) \
        == len(traj.influx_series)
    for st in traj.states:
        s = int(np.argmin(np.abs(times - st.t)))
        assert abs(times[s] - st.t) <= 1e-12 * max(1.0, sc.t_final)
        assert traj.mass_series[s] == st.mass()
        assert traj.tv_series[s] == total_variation(st.rho)


def test_smoke_contraction_trace():
    sc, grid, cfg, ctx, st0 = _smoke_context(n=128)
    iterate, trace, recorder = picard_slab(st0, 0.0, ctx.tau0, ctx, cfg)
    assert trace.converged
    phis = trace.phi
    assert all(b < a for a, b in zip(phis, phis[1:]))
    for i in range(2, len(phis)):
        if phis[i - 1] > 0.0:
            assert phis[i] / phis[i - 1] <= 0.9


def test_divergence_error_carries_trace():
    sc, grid, cfg, ctx, st0 = _smoke_context(n=96)
    tight = SlabConfig(tol_phi=1e-30, max_picard_iters=2)
    ctx2, st0b = make_context(sc.data, grid, sc.t_final, sc.model(), tight)
    with pytest.raises(PicardDivergenceError) as err:
        picard_slab(st0b, 0.0, ctx2.tau0, ctx2, tight)
    trace = err.value.trace
    assert trace is not None and trace.iterations == 2
    assert not trace.converged


# The slab-record contract: what runio, verify and the span tracer in
# perfbench/spans.py read from picard_slab's result and Trajectory.slabs.

@pytest.mark.parametrize("levels", [11, 0])
def test_picard_slab_returns_the_kept_march_record(monkeypatch, levels):
    # an audited slab's record is the replay of its kept march, which
    # steps the density as often as that march did
    sc, grid, _, ctx, st0 = _smoke_context(n=384)
    cfg = SlabConfig(entropy_levels=levels)
    marches = []  # per march: (its step plan, its density steps)
    steps = [0]
    real_march = iteration._march_slab
    real_step = iteration.density_step_arrays

    def step(*args, **kwargs):
        steps[0] += 1
        return real_step(*args, **kwargs)

    def march(*args):
        before = steps[0]
        iterate, plan = real_march(*args)
        marches.append((plan, steps[0] - before))
        return iterate, plan

    monkeypatch.setattr(iteration, "density_step_arrays", step)
    monkeypatch.setattr(iteration, "_march_slab", march)
    iterate, trace, record = picard_slab(st0, 0.0, ctx.tau0, ctx, cfg)
    assert trace.converged
    assert trace.iterations == len(trace.phi) + 1 >= 3
    assert len(marches) == trace.iterations - 1
    kept, kept_steps = marches[-1]
    replayed = steps[0] - sum(n for _, n in marches)
    assert replayed == (kept_steps if levels else 0)
    assert record.trace is trace
    # built once: neither the record nor its trace is filled in later
    with pytest.raises(dataclasses.FrozenInstanceError):
        record.n_steps = 0
    with pytest.raises(dataclasses.FrozenInstanceError):
        trace.converged = False
    assert record.n_steps == len(kept) == kept_steps > 0
    assert record.max_cfl == max(dt * speed / grid.h
                                 for *_, dt, speed in kept)
    assert (trace.t0, trace.t1) == (0.0, ctx.tau0)
    assert record.k_levels.tolist() == np.linspace(0.0, 1.0,
                                                   levels).tolist()
    assert len(record.entropy_table()) == levels


def test_slab_below_the_time_tolerance_takes_no_step():
    sc, grid, cfg, ctx, st0 = _smoke_context()
    iterate, trace, record = picard_slab(st0, 0.0, 1e-14, ctx, cfg)
    assert trace.converged and record.trace is trace
    assert record.n_steps == 0 and record.max_cfl == 0.0
    assert record.entropy_table() == {}
    assert iterate.rho[-1].tobytes() == st0.rho.values.tobytes()


def test_divergence_trace_counts_its_iterates():
    sc, grid, *_ = _smoke_context(n=96)
    tight = SlabConfig(tol_phi=1e-30, max_picard_iters=4)
    ctx, st0 = make_context(sc.data, grid, sc.t_final, sc.model(), tight)
    with pytest.raises(PicardDivergenceError) as err:
        picard_slab(st0, 0.0, ctx.tau0, ctx, tight)
    trace = err.value.trace
    assert len(trace.phi) == 3 and trace.iterations == 4
    assert trace.stop_reason.startswith(f"phi still {trace.phi[-1]:.3e}")


@pytest.mark.parametrize("levels", [11, 0])
def test_trajectory_slabs_are_the_slab_records(levels):
    sc = scenario("smoke")
    grid = Grid(sc.grid.x_min, sc.grid.x_max, 96)
    cfg = SlabConfig(entropy_levels=levels)
    traj = solve_global(sc.data, grid, sc.t_final, sc.model(), cfg)
    assert len(traj.slabs) >= 2
    traces = [s.trace for s in traj.slabs]
    assert traces[0].t0 == 0.0 and traces[-1].t1 == sc.t_final
    for a, b in zip(traces, traces[1:]):
        assert a.t1 == b.t0
    for s in traj.slabs:
        assert s.trace.converged
        assert s.trace.iterations == len(s.trace.phi) + 1
        assert s.n_steps > 0 and 0.0 < s.max_cfl <= cfg.cfl
        table = s.entropy_table()
        assert list(table) == np.linspace(0.0, 1.0, levels).tolist()
        assert all(isinstance(r, float) for r in table.values())


# (module, names) perfbench/spans.py rebinds to trace the solver's layers,
# and the oracle perfbench/workloads.py checks the cli-io snapshot against
TRACED_BINDINGS = {
    "iteration": ("density_step_arrays", "marker_step_arrays", "max_speed",
                  "entropy_residual_arrays", "picard_slab", "make_context",
                  "solve_global"),
    "scalar": ("max_speed", "godunov_flux"),
    "verify": ("solve_global", "audit_trajectory", "uniqueness_check",
               "measure_stability"),
    "cli": ("solve_global", "audit_trajectory", "parse_config", "main"),
    "runio": ("write_trajectory", "write_report", "emit_plotdata"),
    "oracle": ("lwr_riemann_exact",),
}


def test_the_bindings_the_span_tracer_rebinds_exist():
    for module, names in TRACED_BINDINGS.items():
        owner = importlib.import_module(f"garzfv.{module}")
        for name in names:
            assert callable(getattr(owner, name)), (module, name)
    assert callable(VelocityModel.__dict__["flux"])
    # the cli-io gate calls it positionally with these six arguments
    exact = importlib.import_module("garzfv.oracle").lwr_riemann_exact
    assert list(inspect.signature(exact).parameters) == [
        "rho_left", "rho_right", "u_bar", "model", "t", "x"]
    # the keywords, methods and config fields perfbench/workloads.py uses
    # by name, from the modules it imports them from
    for module, name, keywords in (
            ("scenarios", "perturb_data", ("shift_cells", "du_inf")),
            ("verify", "uniqueness_check", ("seeds",)),
            ("model", "CustomVelocityModel", ("name",))):
        call = getattr(importlib.import_module(f"garzfv.{module}"), name)
        assert set(keywords) <= set(inspect.signature(call).parameters), \
            (module, name)
    assert callable(iteration.Trajectory.final_state)
    config = importlib.import_module("garzfv.config")
    assert {"n_cells", "rho_pieces", "psi_pieces", "entropy_levels",
            "n_output"} <= {f.name for f in dataclasses.fields(
                config.RunConfig)}


@pytest.mark.parametrize("t_final, n_output, shortfall",
                         [(1.0, 32, 5e-13), (2.0, 16, 1.5e-12)])
def test_slab_end_just_below_an_output_time(monkeypatch, t_final, n_output,
                                            shortfall):
    # slabs of 0.125 - shortfall end within the driver's time tolerance
    # below every fourth (t_final 1) or every (t_final 2) output time
    monkeypatch.setattr(iteration, "compute_tau0",
                        lambda c: 0.125 - shortfall)
    sc = scenario("smoke")
    traj = solve_global(sc.data, Grid(-6.0, 6.0, 96), t_final, sc.model(),
                        SlabConfig(entropy_levels=0), n_output)
    assert [st.t for st in traj.states] == traj.output_times.tolist()


def test_an_event_just_past_the_slab_end_merges_into_it():
    sc = scenario("smoke")
    alone, _, _ = _slab_on(sc, 0.0, 0.25)
    merged, _, _ = _slab_on(sc, 0.0, 0.25, [0.25 + 5e-13])
    assert merged.times.tolist() == alone.times.tolist()
    assert np.array_equal(merged.rho, alone.rho)


def test_global_solve_halves_slab_on_divergence():
    # unreachable tolerance: the halving ladder must exhaust and surface
    # the divergence error rather than loop forever
    sc = scenario("smoke")
    grid = Grid(sc.grid.x_min, sc.grid.x_max, 96)
    bad = SlabConfig(tol_phi=1e-30, max_picard_iters=2)
    with pytest.raises(PicardDivergenceError):
        solve_global(sc.data, grid, sc.t_final, sc.model(), bad)


def test_shock_final_state_tracks_exact_solution():
    from garzfv import lwr_riemann_exact, riemann_initial_data
    data = riemann_initial_data(0.3, 0.8, 1.0, -4.0, 4.0)
    g = Grid(-4.0, 4.0, 256)
    traj = solve_global(data, g, 1.0, GSH, n_output=2)
    final = traj.final_state()
    exact = lwr_riemann_exact(0.3, 0.8, 1.0, GSH, 1.0, g.centers())
    err = g.h * np.abs(final.rho.values - exact).sum()
    assert err <= 1.0 * math.sqrt(g.h)


def test_tighter_tolerance_barely_moves_fixed_point():
    sc = scenario("smoke")
    grid = Grid(sc.grid.x_min, sc.grid.x_max, 128)
    loose = solve_global(sc.data, grid, sc.t_final, sc.model(),
                         SlabConfig(), n_output=4)
    tol = loose.context.tol_phi
    tight = solve_global(sc.data, grid, sc.t_final, sc.model(),
                         SlabConfig(tol_phi=tol / 10.0), n_output=4)
    gap = l1_distance(loose.final_state().rho, tight.final_state().rho)
    assert gap <= 10.0 * tol


def test_slab_config_validation():
    with pytest.raises(InputRangeError):
        SlabConfig(tol_phi=-0.1)
    with pytest.raises(InputRangeError):
        SlabConfig(cfl=1.5)
    with pytest.raises(InputRangeError):
        SlabConfig(max_picard_iters=0)
    with pytest.raises(InputRangeError):
        SlabConfig(snapshots_per_slab=0)


# counts given as non-integers: each is a range error where it is checked
NON_INTEGER_COUNTS = {
    "n_cells float": lambda sc: Grid(-4.0, 4.0, 64.5),
    "n_cells str": lambda sc: Grid(-4.0, 4.0, "64"),
    "snapshots_per_slab": lambda sc: SlabConfig(snapshots_per_slab=2.5),
    "entropy_levels": lambda sc: SlabConfig(entropy_levels=2.5),
    "max_picard_iters": lambda sc: SlabConfig(max_picard_iters=3.5),
    "n_output": lambda sc: solve_global(sc.data, sc.grid, sc.t_final,
                                        sc.model(), n_output=2.5),
    "seeds": lambda sc: uniqueness_check(sc.data, sc.grid, sc.t_final,
                                         sc.model(), seeds=2.5),
    "n_samples": lambda sc: validate_model(sc.model(), 1.0, n_samples=2.5),
    "shift_cells": lambda sc: perturb_data(sc.data, sc.grid, 2.5, 0.0),
}


@pytest.mark.parametrize("case", sorted(NON_INTEGER_COUNTS))
def test_non_integer_counts_raise_before_any_march(no_march, case):
    name = case.split()[0]
    with pytest.raises(InputRangeError, match=f"{name} must be an integer"):
        NON_INTEGER_COUNTS[case](scenario("smoke"))


def _windowed_study(window):
    data = riemann_initial_data(0.8, 0.2, 1.0, -4.0, 4.0)
    grids = [Grid(-4.0, 4.0, n) for n in (32, 64, 128)]
    return convergence_study(data, 0.5, grids, GSH, None, window=window)


def _slab_on(sc, t0, t1, events=()):
    """picard_slab on [t0, t1] from sc's state at t = 0."""
    cfg = SlabConfig()
    ctx, st0 = make_context(sc.data, sc.grid, sc.t_final, sc.model(), cfg)
    return picard_slab(st0, t0, t1, ctx, cfg, extra_events=events)


# site -> (error, the name its message gives, call with the value); every
# one takes a finite real number only
NON_REAL_VALUES = {
    "picard_slab t0": (InputRangeError, "t0",
                       lambda sc, x: _slab_on(sc, x, 0.25)),
    "picard_slab t1": (InputRangeError, "t1",
                       lambda sc, x: _slab_on(sc, 0.0, x)),
    "picard_slab extra event": (InputRangeError, "extra event",
                                lambda sc, x: _slab_on(sc, 0.0, 0.25, [x])),
    "Grid x_min": (InputRangeError, "x_min", lambda sc, x: Grid(x, 4.0, 64)),
    "Grid x_max": (InputRangeError, "x_max",
                   lambda sc, x: Grid(-4.0, x, 64)),
    "Piece x_left": (InvalidDataError, "piece x_left",
                     lambda sc, x: Piece(x, 1.0, 0.5, 0.5)),
    "Piece x_right": (InvalidDataError, "piece x_right",
                      lambda sc, x: Piece(-1.0, x, 0.5, 0.5)),
    "Piece v_left": (InvalidDataError, "piece v_left",
                     lambda sc, x: Piece(-1.0, 1.0, x, 0.5)),
    "Piece v_right": (InvalidDataError, "piece v_right",
                      lambda sc, x: Piece(-1.0, 1.0, 0.5, x)),
    "InitialData z_inf": (InvalidDataError, "z_inf",
                          lambda sc, x: dataclasses.replace(sc.data,
                                                            z_inf=x)),
    "InitialData u_inf": (InvalidDataError, "u_inf",
                          lambda sc, x: dataclasses.replace(sc.data,
                                                            u_inf=x)),
    "SlabConfig tol_phi": (InputRangeError, "tol_phi",
                           lambda sc, x: SlabConfig(tol_phi=x)),
    "SlabConfig cfl": (InputRangeError, "cfl",
                       lambda sc, x: SlabConfig(cfl=x)),
    "compute_tilde_C z0_sup": (
        InputRangeError, "z0_sup",
        lambda sc, x: compute_tilde_C(GSH.sup_bounds(1.0), x, 0.5, 1.2)),
    "compute_tilde_C psi0_sup": (
        InputRangeError, "psi0_sup",
        lambda sc, x: compute_tilde_C(GSH.sup_bounds(1.0), 0.3, x, 1.2)),
    "compute_tilde_C rho0_l1": (
        InputRangeError, "rho0_l1",
        lambda sc, x: compute_tilde_C(GSH.sup_bounds(1.0), 0.3, 0.5, x)),
    "compute_tau0": (InputRangeError, "tilde_c",
                     lambda sc, x: compute_tau0(x)),
    "solve_global t_final": (
        InputRangeError, "t_final",
        lambda sc, x: solve_global(sc.data, sc.grid, x, sc.model())),
    "VelocityModel.sup_bounds": (
        InputRangeError, "u_max",
        lambda sc, x: CustomVelocityModel(
            lambda rho, u: u * (1.0 - rho)).sup_bounds(x)),
    "PowerLawModel.sup_bounds": (
        InputRangeError, "u_max",
        lambda sc, x: PowerLawModel(2).sup_bounds(x)),
    "PowerLawModel gamma": (InputRangeError, "gamma",
                            lambda sc, x: PowerLawModel(x)),
    "validate_model u_max": (InputRangeError, "u_max",
                             lambda sc, x: validate_model(GSH, x)),
    "lwr_riemann_exact rho_left": (
        InputRangeError, "rho_left",
        lambda sc, x: lwr_riemann_exact(x, 0.2, 1.0, GSH, 0.5, [0.0])),
    "lwr_riemann_exact rho_right": (
        InputRangeError, "rho_right",
        lambda sc, x: lwr_riemann_exact(0.8, x, 1.0, GSH, 0.5, [0.0])),
    "lwr_riemann_exact u_bar": (
        InputRangeError, "u_bar",
        lambda sc, x: lwr_riemann_exact(0.8, 0.2, x, GSH, 0.5, [0.0])),
    "lwr_riemann_exact t": (
        InputRangeError, "t",
        lambda sc, x: lwr_riemann_exact(0.8, 0.2, 1.0, GSH, x, [0.0])),
    "follow_the_leader t": (
        InputRangeError, "t",
        lambda sc, x: follow_the_leader(sc.data, GSH, x, sc.grid.centers())),
    "riemann_initial_data x_min": (
        InputRangeError, "x_min",
        lambda sc, x: riemann_initial_data(0.2, 0.8, 1.0, x, 1.0)),
    "riemann_initial_data x_max": (
        InputRangeError, "x_max",
        lambda sc, x: riemann_initial_data(0.2, 0.8, 1.0, -1.0, x)),
    "entropy_residual_arrays k": (
        InputRangeError, "entropy level k",
        lambda sc, x: entropy_residual_arrays(np.full(8, 0.5),
                                              np.full(8, 0.5), np.ones(8),
                                              x, 0.01, 0.1, GSH)),
    "check_margins t_final": (
        InputRangeError, "t_final",
        lambda sc, x: check_margins(build_initial_state(sc.data, sc.grid), x,
                                    1.0)),
    "check_margins wave_bound": (
        InputRangeError, "wave_bound",
        lambda sc, x: check_margins(build_initial_state(sc.data, sc.grid),
                                    1.0, x)),
    "recommended_domain t_final": (
        InputRangeError, "t_final",
        lambda sc, x: recommended_domain(sc.data, x, 1.0)),
    "recommended_domain wave_bound": (
        InputRangeError, "wave_bound",
        lambda sc, x: recommended_domain(sc.data, 1.0, x)),
    "perturb_data du_inf": (
        InputRangeError, "du_inf",
        lambda sc, x: perturb_data(sc.data, sc.grid, 0, x)),
    "convergence_study window x_lo": (
        InputRangeError, "window x_lo",
        lambda sc, x: _windowed_study((x, 1.0))),
    "convergence_study window x_hi": (
        InputRangeError, "window x_hi",
        lambda sc, x: _windowed_study((-1.0, x))),
}
# 10**400 is an int beyond the float range
NON_REALS = {"nan": math.nan, "inf": math.inf, "str": "1", "None": None,
             "big int": 10 ** 400}


@pytest.mark.parametrize("case, value", [
    pytest.param(case, value, id=f"{case}-{label}")
    for case in sorted(NON_REAL_VALUES) for label, value in NON_REALS.items()
    # tol_phi = None is the default rule h ||rho0||_L1
    if (case, value) != ("SlabConfig tol_phi", None)])
def test_non_real_values_raise_before_any_march(no_march, case, value):
    error, name, call = NON_REAL_VALUES[case]
    with pytest.raises(error, match=f"^{name} must be "):
        call(scenario("smoke"), value)


@pytest.mark.parametrize("model, type_name", [
    (None, "NoneType"), ("greenshields", "str"),
    (lambda rho, u: u * (1.0 - rho), "function")],
    ids=["None", "name", "function"])
def test_a_model_that_is_not_a_velocity_model_raises_before_any_march(
        no_march, model, type_name):
    sc = scenario("smoke")
    message = f"must be a VelocityModel, got {type_name}$"
    with pytest.raises(ModelValidationError, match=message):
        validate_model(model, 1.0)
    with pytest.raises(ModelValidationError, match=message):
        solve_global(sc.data, sc.grid, sc.t_final, model)


@pytest.mark.parametrize("t0, t1, events, name", [
    (0.0, 0.25, [0.5], "extra event"), (0.0, 0.25, [-0.1], "extra event"),
    (0.0, 0.25, [0.1, 0.25 + 1e-9], "extra event"),
    (0.25, 0.25, [], "t1"), (0.25, 0.1, [], "t1")])
def test_picard_slab_rejects_a_span_it_cannot_march(no_march, t0, t1,
                                                     events, name):
    with pytest.raises(InputRangeError, match=f"^{name} must be "):
        _slab_on(scenario("smoke"), t0, t1, events)


def test_picard_slab_takes_events_at_the_span_ends():
    # t0 and t1 are stored times already: the lattice and the slab are
    # those without the events
    sc = scenario("smoke")
    got, want = (_slab_on(sc, 0.0, 0.25, events)
                 for events in ([0.0, 0.25], ()))
    assert np.array_equal(got[0].times, want[0].times)
    assert np.array_equal(got[0].rho, want[0].rho)
    assert got[1] == want[1]


def test_numpy_and_integer_reals_are_reals():
    # np.float64, np.float32 and int arguments give the bits of their
    # float values
    sc = scenario("constant")
    cfg = SlabConfig(tol_phi=np.float64(1e-3), cfl=np.float32(0.5),
                     snapshots_per_slab=8, entropy_levels=2)

    def run(real):
        data = InitialData(sc.data.rho_pieces, (), z_inf=real(0),
                           u_inf=real(1))
        return solve_global(data, Grid(real(-4), real(4), 64), real(1),
                            PowerLawModel(real(2)), cfg, n_output=2)

    ref = run(float)
    for real in (np.float64, np.float32, int):
        traj = run(real)
        assert traj.slabs[0].entropy_table() == ref.slabs[0].entropy_table()
        for a, b in zip(ref.states, traj.states):
            assert np.array_equal(a.rho.values, b.rho.values)
            assert np.array_equal(a.u.values, b.u.values)
    x = np.linspace(-1.0, 1.0, 9)
    assert np.array_equal(
        lwr_riemann_exact(np.float32(0.75), 0, np.int64(1), GSH,
                          np.float64(0.5), x),
        lwr_riemann_exact(0.75, 0.0, 1.0, GSH, 0.5, x))
    assert validate_model(GSH, np.int64(1)).passed
    assert compute_tau0(np.float32(0)) == 0.25


def test_numpy_integer_counts_are_counts():
    sc = scenario("constant")
    grid = Grid(sc.grid.x_min, sc.grid.x_max, np.int64(64))
    cfg = SlabConfig(snapshots_per_slab=np.int32(8),
                     entropy_levels=np.int64(3))
    traj = solve_global(sc.data, grid, sc.t_final, sc.model(), cfg,
                        n_output=np.int64(2))
    assert len(traj.states) == 3
    assert all(len(s.entropy_table()) == 3 for s in traj.slabs)


@pytest.mark.parametrize("t_final", [math.inf, math.nan, 0.0, -1.0])
def test_run_end_time_must_be_positive_and_finite(t_final):
    sc, grid, cfg, *_ = _smoke_context(n=96)
    for call in (lambda: solve_global(sc.data, grid, t_final, sc.model()),
                 lambda: make_context(sc.data, grid, t_final, sc.model(),
                                      cfg)):
        with pytest.raises(InputRangeError,
                           match="t_final must be positive"):
            call()


def test_context_constants_on_smoke():
    sc, grid, cfg, ctx, st0 = _smoke_context(n=384)
    # hand-assembled values for this datum: TV(rho0) = 1.2, |z0| sup 0.3,
    # |psi0| sup 0.5, |rho0|_L1 = 1.2
    assert ctx.m0 == pytest.approx(4 * 1.2 + 4, abs=1e-12)
    assert ctx.c_tilde == pytest.approx(
        compute_tilde_C(sc.model().sup_bounds(ctx.u0_sup), 0.3, 0.5, 1.2),
        rel=1e-12)
    assert ctx.tau0 == pytest.approx(0.25)
    assert not ctx.constant_u


def test_margin_error_names_the_wave_bound():
    # V = u (1 - rho^100) has lambda1 = -100 u at rho = 1, so the wave
    # bound is 100 u, which widens the margin window to the whole domain
    sc = scenario("smoke")
    grid = Grid(-6.0, 6.0, 96)
    model = CustomVelocityModel(lambda rho, u: u * (1.0 - rho ** 100))
    with pytest.raises(InvalidDataError, match="wave_bound") as err:
        make_context(sc.data, grid, sc.t_final, model, SlabConfig())
    bound = float(re.search(r"wave_bound (\S+)", str(err.value)).group(1))
    u_max = build_initial_state(sc.data, grid).u.values.max()
    assert bound == pytest.approx(100.0 * u_max, rel=1e-3)


@pytest.mark.parametrize("name, gamma", [
    ("smoke", None), ("shock", None), ("vacuum", None), ("rarefaction", None),
    ("smoke", 2.5)], ids=["smoke", "shock", "vacuum", "rarefaction",
                          "smoke-power2.5"])
def test_entropy_tables_match_the_per_level_reference(monkeypatch, name,
                                                      gamma):
    # the shipped kernel audits each step's window of cells, all levels at
    # once, and raises the maximum to +0.0 when cells lie outside it; every
    # slab's table must carry the bits of the per-level reference over all
    # cells.  gamma 2.5 rounds (1 - k)**gamma differently as a 0-d and as
    # an array power, so it pins the per-level dV/du
    sc = scenario(name)
    model = sc.model() if gamma is None else PowerLawModel(gamma)
    grid = Grid(sc.grid.x_min, sc.grid.x_max, 128)

    def tables():
        traj = solve_global(sc.data, grid, sc.t_final, model)
        return [np.array(list(slab.entropy_table().items())).tobytes()
                for slab in traj.slabs]

    shipped = tables()
    assert shipped and all(shipped)

    def reference(steps, levels, h, model, workspace):
        # the steps' Godunov parts and the kernel's workspace are ignored:
        # the reference recomputes each step's residuals over its padded
        # (rho_old, u) windows
        return np.maximum.reduce([
            [entropy_residual_arrays(parts[0][2:-2], rho_new,
                                     parts[1][2:-2], k, dt, h, model).max()
             for k in levels.tolist()]
            for dt, rho_new, parts in steps])

    calls = []
    monkeypatch.setattr(iteration, "entropy_residual_maxima",
                        lambda *args: calls.append(args) or reference(*args))
    assert tables() == shipped
    assert calls


# The windowed march against the march over all n cells.

def audited_reference_march(rho, v, w, times, v_rows, model, h, cfl, u_inf,
                            k_levels):
    """_march_slab stepping every cell: the same kernels through
    iteration's names, full width, with u derived from all of v_rows at
    once, interpolated on all cells, and each step's inputs padded by pad2
    from the full rows, so with no ghost-padded state.  Returns (iterate,
    full-width step plan, entropy maxima), the maxima audited inline at
    each level of k_levels as the steps are taken, on all cells, so with
    no plan and no still-cell rule."""
    shape = (len(times), len(rho))
    out = iteration.SlabIterate(times, *(np.empty(shape) for _ in range(3)),
                                influx=np.empty(len(times)))
    u_rows = np.cumsum(v_rows, axis=1) * h + u_inf
    plan = []
    maxima = np.full(len(k_levels), -np.inf)
    q = np.stack((v, w))
    influx = 0.0
    t = float(times[0])
    time_tol = 1e-13 * max(1.0, abs(float(times[-1])))
    for s, t_next in enumerate(times.tolist()):
        while t_next - t > time_tol:
            j = int(np.searchsorted(times, t, side="right")) - 1
            lam = (t - times[j]) / (times[j + 1] - times[j])
            u_now = u_rows[j] if lam == 0.0 else \
                (1.0 - lam) * u_rows[j] + lam * u_rows[j + 1]
            speed = iteration.max_speed(rho, u_now, model)
            remaining = t_next - t
            dt = min(cfl * h / speed, remaining)
            re = pad2(rho)
            rho_new, flux, parts = iteration.density_step_arrays(
                re, pad2(u_now), h, dt, model, speed)
            if len(k_levels):
                np.maximum(iteration.entropy_residual_maxima(
                    [(dt, rho_new, parts)], k_levels, h, model),
                    maxima, out=maxima)
            q = iteration.marker_step_arrays(pad2(q), re, flux, h, dt)
            influx += dt * (flux[0] - flux[-1])
            plan.append((0, len(rho), j + 1, lam, dt, speed))
            rho = rho_new
            t = t_next if dt >= remaining * (1.0 - 1e-12) else t + dt
        t = t_next
        out.rho[s] = rho
        out.v[s], out.w[s] = q
        out.influx[s] = influx
    return out, plan, maxima


def reference_march(rho, v, w, times, v_rows, model, h, cfl, u_inf):
    """The full-width march in _march_slab's form: (iterate, step plan),
    so an audited slab replays its full-width steps."""
    return audited_reference_march(rho, v, w, times, v_rows, model, h, cfl,
                                   u_inf, np.empty(0))[:2]


@st.composite
def _field(draw, n, values):
    """n cells of plateaus, and at most one short active piece of
    cell-wise values touching them."""
    cuts = draw(st.lists(st.integers(1, n - 1), unique=True,
                         max_size=draw(st.integers(0, 3))))
    edges = [0, *sorted(cuts), n]
    out = np.empty(n)
    for a, b in zip(edges, edges[1:]):
        out[a:b] = draw(values)
    if draw(st.booleans()):
        a = draw(st.integers(0, n - 1))
        b = draw(st.integers(a + 1, min(n, a + 4)))
        out[a:b] = draw(st.lists(values, min_size=b - a, max_size=b - a))
    return out


@st.composite
def _march_inputs(draw):
    n = draw(st.integers(2, 60))
    density = st.one_of(st.sampled_from([0.0, -0.0, 1.0, 0.3, 0.6]),
                        st.floats(0.0, 1.0))
    ratio = st.one_of(st.sampled_from([0.0, -0.0, 0.3]),
                      st.floats(-1.0, 1.0))
    # the frozen u = u_inf + h cumsum(v) at h = 0.05 stays in [0, 2.1]
    # for u_inf of +-0.0, whose slopes are not negative (u is -0.0 on a
    # leading run of -0.0 slopes after u_inf = -0.0), and in [0.1, 3.1]
    # for u_inf >= 0.25; u is constant where the slopes are zeros
    u_inf = draw(st.sampled_from([0.0, -0.0, 0.25, 1.0]))
    slope = st.one_of(st.sampled_from([0.0, -0.0, 0.5]),
                      st.floats(-0.05 if u_inf else 0.0, 0.7))
    rho = draw(_field(n, density))
    # markers dominated by the density, as v = rho z and w = rho psi are
    v = rho * draw(_field(n, ratio))
    w = rho * draw(_field(n, ratio))
    # short event steps next to intervals of many CFL steps
    steps = draw(st.lists(st.one_of(st.floats(1e-12, 1e-9),
                                    st.floats(1e-3, 0.2)),
                          min_size=1, max_size=5))
    times = np.cumsum([draw(st.floats(0.0, 1.0)), *steps])
    # v rows of the previous iterate: one field, a plateau changed in some
    field = draw(_field(n, slope))
    if not u_inf and draw(st.booleans()):
        field[:draw(st.integers(1, n))] = -0.0  # where u is u_inf's zero
    v_rows = np.tile(field, (len(times), 1))
    for row in v_rows:
        if draw(st.booleans()):
            a = draw(st.integers(0, n - 1))
            row[a:draw(st.integers(a + 1, n))] = draw(slope)
    return rho, v, w, times, v_rows, u_inf


@settings(max_examples=60, deadline=None)
@given(data=_march_inputs(),
       model=st.sampled_from([GSH, PowerLawModel(2.5)]),
       cfl=st.sampled_from([0.5, 1.0]),
       levels=st.sampled_from([0, 3]))
def test_windowed_march_matches_the_full_width_march(data, model, cfl,
                                                     levels):
    rho, v, w, times, v_rows, u_inf = data
    h = 0.05
    k_levels = np.linspace(0.0, 1.0, levels)
    got, plan = iteration._march_slab(rho, v, w, times, v_rows, model, h,
                                      cfl, u_inf)
    ref, ref_plan, ref_maxima = audited_reference_march(
        rho, v, w, times, v_rows, model, h, cfl, u_inf, k_levels)
    assert _same_iterate(got, ref)
    # the window proof: neither dt nor the CFL speed depends on the window
    assert np.array([p[2:] for p in plan]).tobytes() \
        == np.array([p[2:] for p in ref_plan]).tobytes()
    maxima = (iteration._replay_density(rho, v_rows, u_inf, plan, model, h,
                                        k_levels)
              if levels else np.full(0, -np.inf))
    assert maxima.tobytes() == ref_maxima.tobytes()
    assert len(plan) == len(ref_plan)
    assert _max_cfl(plan, h) == _max_cfl(ref_plan, h)


PADDED_STEP_MODELS = [PowerLawModel(1.0), PowerLawModel(2.5),
                      PowerLawModel(3.0),
                      CustomVelocityModel(lambda r, u: u * (1.0 - r) ** 2,
                                          name="sq")]


def _padded_step_case(case, n):
    """(rho, v, w, v_rows, times) of one case, the frozen u = 1 + h
    cumsum(v_rows) at h = 0.05; the markers are dominated by the density
    as v = rho z and w = rho psi are."""
    rho = np.full(n, 0.4)
    times = np.linspace(0.0, 0.3, 4)
    v_rows = np.zeros((len(times), n))
    if case == "left-edge":
        # cell 0 moves, and later steps read its ghosts; u is 1.5 on
        # cells 0 and 1
        rho[:3] = [0.7, 0.55, 0.8]
        v_rows[1:, [0, 2]] = 10.0, -10.0
    elif case == "right-edge":
        # u is 1.5 on the last two cells
        rho[-3:] = [0.8, 0.6, 0.2]
        v_rows[1:, -2] = 10.0
    elif case == "undershoot":
        # -1e-10 is inside RANGE_TOL, and f = rho V < 0 there
        rho[:] = 0.0
        rho[8], rho[9:14] = -1e-10, 0.5
    return rho, 0.2 * rho, -0.1 * rho, v_rows, times


@pytest.mark.parametrize("model", PADDED_STEP_MODELS,
                         ids=["power1", "power2.5", "power3", "custom"])
@pytest.mark.parametrize("case", ["constant", "left-edge", "right-edge",
                                  "undershoot"])
def test_padded_window_steps_match_the_full_width_steps(monkeypatch, model,
                                                        case):
    # the march steps views of its ghost-padded state; the reference steps
    # every cell from pad2-ed full rows.  Same bits, and each case reaches
    # what it is named for: the constant state's [0, 1) window, a window
    # at an edge cell (so the ghosts are refreshed), a negative flux (so
    # each interface picks its donor)
    n, h = 24, 0.05
    rho, v, w, v_rows, times = _padded_step_case(case, n)
    fluxes = []
    real_marker = iteration.marker_step_arrays

    def marker(qe, re, flux, h, dt):
        fluxes.append(flux)
        return real_marker(qe, re, flux, h, dt)

    monkeypatch.setattr(iteration, "marker_step_arrays", marker)
    got, plan = iteration._march_slab(rho, v, w, times, v_rows, model, h,
                                      0.5, 1.0)
    march_fluxes = fluxes[:]
    ref, ref_plan = reference_march(rho, v, w, times, v_rows, model, h, 0.5,
                                    1.0)
    assert _same_iterate(got, ref)
    assert np.array([p[2:] for p in plan]).tobytes() \
        == np.array([p[2:] for p in ref_plan]).tobytes()
    levels = np.linspace(0.0, 1.0, 3)
    assert iteration._replay_density(rho, v_rows, 1.0, plan, model, h,
                                     levels).tobytes() \
        == iteration._replay_density(rho, v_rows, 1.0, ref_plan, model, h,
                                     levels).tobytes()
    windows = [p[:2] for p in plan]
    if case == "constant":
        # each stored time's scan finds no jump; the window then grows by
        # a cell per side per step
        assert {w for w, p in zip(windows, plan) if p[3] == 0.0} \
            == {(0, 1)}
    elif case == "left-edge":
        assert windows[0][0] == 0 and got.rho[-1, 0] != rho[0]
    elif case == "right-edge":
        assert windows[0][1] == n and got.rho[-1, -1] != rho[-1]
    else:
        assert min(f.min() for f in march_fluxes) < 0.0


def _frozen_rows_read(rho, v_rows, times, u_inf, h):
    """Per step of a march frozen at v_rows, and then of its replay: the
    stored row s that the step marches towards, and rows s-1 and s of u
    as the step read them from its block of derived rows."""
    reads = []
    real = iteration._marker_now

    def marker_now(u_before, u_after, *args):
        reads.append((u_before.tobytes(), u_after.tobytes()))
        return real(u_before, u_after, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(iteration, "_marker_now", marker_now)
        _, plan = iteration._march_slab(rho, 0.2 * rho, 0.1 * rho, times,
                                        v_rows, GSH, h, 0.5, u_inf)
        iteration._replay_density(rho, v_rows, u_inf, plan, GSH, h,
                                  np.linspace(0.0, 1.0, 3))
    return [(step[2], pair) for step, pair in zip(plan + plan, reads,
                                                  strict=True)]


def _assert_rows_read(reads, u_rows):
    assert {s for s, _ in reads} == set(range(1, len(u_rows)))
    for s, (before, after) in reads:
        assert before == u_rows[s - 1].tobytes()
        assert after == u_rows[s].tobytes()


BLOCK_ROW_COUNTS = [2, 1 + iteration.U_BLOCK_ROWS, 12,
                    1 + 4 * iteration.U_BLOCK_ROWS]


def _v_rows(n, rows):
    """rows x n marker slopes whose u = 1 + cumsum(v) / n stays positive."""
    return np.random.default_rng(n + rows).uniform(-0.2, 0.5, (rows, n))


@pytest.mark.parametrize("n", [1, 2, 6144])
@pytest.mark.parametrize("rows", BLOCK_ROW_COUNTS)
@pytest.mark.parametrize("skip", [1, 3])
def test_u_blocks_are_the_prefix_sums_row_by_row(n, rows, skip):
    # the blocks a march takes, the last one short unless the stored rows
    # fill whole blocks, hold u = u_inf + h cumsum(v) bit for bit, also
    # when stored rows are skipped (times a march takes no step towards),
    # and give the union of the spans of the two rows a step reads (a
    # one-cell row has none: _row_spans fails on it, as a march on one
    # cell does)
    h, v_rows = 1.0 / n, _v_rows(n, rows)
    want = np.cumsum(v_rows, axis=1) * h + 1.0
    frozen = iteration._FrozenU(v_rows, h, 1.0)
    for s in range(1, rows, skip):
        before, after = frozen.pair(s)
        assert before.tobytes() == want[s - 1].tobytes()
        assert after.tobytes() == want[s].tobytes()
        if n > 1:
            lo, hi = iteration._row_spans(want[s - 1:s + 1])
            assert frozen.span(s) == (min(lo), max(hi))


@pytest.mark.parametrize("n", [2, 6144])
@pytest.mark.parametrize("rows", BLOCK_ROW_COUNTS)
def test_block_derived_u_rows_are_the_prefix_sums(n, rows):
    # every row that a march or a replay reads is the row of u derived
    # from all rows at once
    h, v_rows = 1.0 / n, _v_rows(n, rows)
    rho = np.random.default_rng(n).uniform(0.1, 0.9, n)
    times = np.linspace(0.0, 0.002, rows)
    reads = _frozen_rows_read(rho, v_rows, times, 1.0, h)
    _assert_rows_read(reads, np.cumsum(v_rows, axis=1) * h + 1.0)


def test_block_derived_start_rows_are_the_state_u():
    # the first march of a slab is frozen at the start rows, broadcast
    _, grid, _, _, st0 = _smoke_context(n=1536)
    times = np.linspace(0.0, 0.05, 12)
    v_rows = np.broadcast_to(st0.v.values, (len(times), grid.n_cells))
    reads = _frozen_rows_read(st0.rho.values, v_rows, times, st0.u_inf,
                              grid.h)
    _assert_rows_read(reads, [st0.u.values] * len(times))


# The audit replay's batches: how many steps share a kernel call.

# one step per call, a few steps of different widths per call, the
# default, and the whole plan in one call: the calls of one replay share a
# workspace whatever their widths
BATCH_BUDGETS = (1, 150, iteration.AUDIT_BATCH_CELLS, 10 ** 9)


def _widened(plan, n):
    """The plan with every window widened to all n cells: the full-width
    march's plan (see test_windowed_march_matches_the_full_width_march)."""
    return [(0, n, *step[2:]) for step in plan]


def _replays_by_budget(monkeypatch, rho, v_rows, u_inf, plan, model, h,
                       levels, budgets=BATCH_BUDGETS):
    """_replay_density's bytes at each of the budgets."""
    out = []
    for budget in budgets:
        monkeypatch.setattr(iteration, "AUDIT_BATCH_CELLS", budget)
        out.append(iteration._replay_density(rho, v_rows, u_inf, plan, model,
                                             h, levels).tobytes())
    return out


class _NanAtLevel4(PowerLawModel):
    """Greenshields with dV/du NaN at level index 4 on the cells whose
    marker exceeds u_nan: a NaN residual that no batch split may drop."""

    def __init__(self, u_nan):
        super().__init__(1.0)
        self.u_nan = u_nan

    def d_u_levels(self, levels, u):
        out = np.repeat(super().d_u_levels(levels, u), len(u), axis=1)
        out[4, u > self.u_nan] = np.nan
        return out


@pytest.mark.parametrize("name, model", [
    ("smoke", None), ("vacuum", None), ("smoke", PowerLawModel(2.5)),
    ("vacuum", CustomVelocityModel(lambda r, u: u * (1.0 - r) ** 2)),
    ("smoke", "nan")], ids=["smoke", "vacuum", "smoke-power2.5",
                            "vacuum-custom", "smoke-nan"])
def test_slab_entropy_maxima_do_not_depend_on_the_batch_split(monkeypatch,
                                                              name, model):
    # the first two slabs' replays, with their marches' narrow windows and
    # with every window full width, at one step per kernel call, at the
    # default budget and with the whole plan in one call
    sc = scenario(name)
    grid = Grid(sc.grid.x_min, sc.grid.x_max, 64)
    replays = []
    real = iteration._replay_density

    def capture(*args):
        replays.append(args)
        return real(*args)

    monkeypatch.setattr(iteration, "_replay_density", capture)
    if model == "nan":
        u0 = build_initial_state(sc.data, grid).u.values
        model = _NanAtLevel4(float(np.median(u0)))
    solve_global(sc.data, grid, sc.t_final, model or sc.model())
    monkeypatch.undo()
    assert len(replays) >= 2
    for rho, v_rows, u_inf, plan, slab_model, h, levels in replays[:2]:
        n = len(rho)
        assert any(b - a < n for a, b, *_ in plan)
        got = [_replays_by_budget(monkeypatch, rho, v_rows, u_inf, steps,
                                  slab_model, h, levels)
               for steps in (plan, _widened(plan, n))]
        assert len(set(got[0] + got[1])) == 1
        maxima = np.frombuffer(got[0][0])
        if isinstance(slab_model, _NanAtLevel4):
            assert np.isnan(maxima[4])
            assert np.isfinite(np.delete(maxima, 4)).all()
        else:
            assert np.isfinite(maxima).all()


@settings(max_examples=10, deadline=None)
@given(data=_march_inputs(),
       model=st.sampled_from(PADDED_STEP_MODELS[1:]))
def test_generated_replays_do_not_depend_on_the_batch_split(data, model):
    # plateaus of 0.0 next to -0.0, narrow and full-width windows
    rho, v, w, times, v_rows, u_inf = data
    h = 0.05
    levels = np.linspace(0.0, 1.0, 11)
    _, plan = iteration._march_slab(rho, v, w, times, v_rows, model, h, 0.5,
                                    u_inf)
    # a budget of 7 cells also closes batches in the middle of a plan
    with pytest.MonkeyPatch.context() as mp:
        got = [_replays_by_budget(mp, rho, v_rows, u_inf, steps, model, h,
                                  levels, (7, *BATCH_BUDGETS))
               for steps in (plan, _widened(plan, len(rho)))]
    assert len(set(got[0] + got[1])) == 1


def _traced_peak(call, *args):
    """The tracemalloc peak of call(*args), in bytes.  tracemalloc counts
    the bytes numpy asks for, whatever the allocator makes of them."""
    tracemalloc.start()
    try:
        call(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_replay_memory_does_not_grow_with_the_steps(monkeypatch):
    # the replay holds at most one batch of steps, so 4x the steps over
    # the same cells keep the same peak.  With the whole plan in one batch
    # the same measure grows with the plan
    n = 256
    h = 1.0 / n
    x = (np.arange(n) + 0.5) * h
    rho = 0.4 + 0.3 * np.sin(2.0 * np.pi * x)
    times = np.linspace(0.0, 0.156, 5)
    # the frozen u is about 1 + 0.2 x
    v_rows = np.full((len(times), n), 0.2)
    u_inf = 1.0 - 0.1 * h
    levels = np.linspace(0.0, 1.0, 11)

    def peak(cfl):
        _, plan = iteration._march_slab(rho, 0.2 * rho, 0.1 * rho, times,
                                        v_rows, GSH, h, cfl, u_inf)
        return len(plan), _traced_peak(iteration._replay_density, rho,
                                       v_rows, u_inf, plan, GSH, h, levels)

    (short, short_peak), (long, long_peak) = peak(0.5), peak(0.125)
    assert (short, long) == (96, 384)
    assert long_peak <= 1.05 * short_peak
    monkeypatch.setattr(iteration, "AUDIT_BATCH_CELLS", 10 ** 9)
    assert peak(0.5)[1] > 4 * short_peak


def test_replay_peak_is_a_few_batch_sized_arrays(monkeypatch):
    # the audit kernel writes its (levels x cells) and (levels x
    # interfaces) arrays into one workspace per replay, three float buffers
    # of a little over one (levels x budget-cells) array each; besides it
    # the replay holds the bool masks, the closure's own f(k) array and
    # the steps' one-dimensional parts: 5.55 such arrays here.  A kernel
    # that allocates even one of its work arrays per call again goes over
    # (q alone reads 6.62; the per-call temporaries before the workspace
    # 7.45)
    sc = scenario("smoke")
    grid = Grid(sc.grid.x_min, sc.grid.x_max, 1536)
    replays = []
    real = iteration._replay_density
    monkeypatch.setattr(iteration, "_replay_density",
                        lambda *args: replays.append(args) or real(*args))
    solve_global(sc.data, grid, sc.t_final, sc.model())
    levels = replays[0][-1]
    # one (levels x budget-cells) float array, in bytes
    array = len(levels) * iteration.AUDIT_BATCH_CELLS * 8
    assert 3 * array < _traced_peak(real, *replays[0]) < 6 * array


# scenario -> (entropy levels, largest peak of its solve at n = 1536, in
# (snapshots_per_slab + 1) x n float arrays).  Measured 8.4 and 12.1,
# 3.2 of them the returned states, which store rho, v and w.  States
# that store u, z and psi too read 12.9 and 15.1 (6.2 held); 19.5 and
# 23.1 when every iterate was kept whole and the last slab's through the
# next
SOLVE_PEAKS = {"vacuum": (0, 9.0), "smoke": (11, 13.0)}
# what the returned states hold, in the same arrays
SOLVE_HELD = 3.5


@pytest.mark.parametrize("name", sorted(SOLVE_PEAKS))
def test_solve_holds_only_what_the_next_iterate_reads(name):
    levels, bound = SOLVE_PEAKS[name]
    sc = scenario(name)
    grid = Grid(sc.grid.x_min, sc.grid.x_max, 1536)
    cfg = SlabConfig(entropy_levels=levels)
    array = (cfg.snapshots_per_slab + 1) * grid.n_cells * 8
    tracemalloc.start()
    try:
        traj = solve_global(sc.data, grid, sc.t_final, sc.model(), cfg)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(traj.states) == 33
    assert peak < bound * array
    assert held < SOLVE_HELD * array


def test_phi_takes_its_terms_in_the_previous_rows(monkeypatch):
    # from a slab's second march on, Phi and the repeated-rows flag
    # allocate no (stored times x n) float array: each of Phi's terms is
    # taken in the previous iterate's rows, dead after it.  Only a slab's
    # first Phi, whose previous rows are the broadcast start rows, needs a
    # temporary (a full one reads 1.0 here)
    sc = scenario("vacuum")
    grid = Grid(sc.grid.x_min, sc.grid.x_max, 384)
    cfg = SlabConfig(entropy_levels=0)
    array = (cfg.snapshots_per_slab + 1) * grid.n_cells * 8
    marks, rises = [], []  # per slab, per march: bytes traced at its end
    real_march, real_slab = iteration._march_slab, iteration.picard_slab

    def close():
        # the peak rise since the slab's second or a later march ended
        if len(marks[-1]) >= 2:
            rises.append(tracemalloc.get_traced_memory()[1] - marks[-1][-1])

    def march(*args):
        close()
        result = real_march(*args)
        marks[-1].append(tracemalloc.get_traced_memory()[0])
        tracemalloc.reset_peak()
        return result

    def slab(*args, **kwargs):
        marks.append([])
        result = real_slab(*args, **kwargs)
        close()
        return result

    monkeypatch.setattr(iteration, "_march_slab", march)
    monkeypatch.setattr(iteration, "picard_slab", slab)
    tracemalloc.start()
    try:
        solve_global(sc.data, grid, sc.t_final, sc.model(), cfg)
    finally:
        tracemalloc.stop()
    assert len(rises) == 2 * len(marks) == 8
    assert max(rises) < 0.25 * array


@pytest.mark.parametrize("tail", ["rho", "u"])
def test_windowed_march_range_check_sees_a_constant_tail(tail):
    # the out-of-range values sit in a constant tail far from the cells
    # that move; the window reaches only the tail's first cell, and the
    # range check must report what the full-width march reports
    n = 64
    rho = np.full(n, 0.4)
    rho[10:14] = 0.8
    times = np.linspace(0.0, 0.1, 3)
    # the frozen u = 1 + 0.05 cumsum(v_rows)
    v_rows = np.zeros((len(times), n))
    if tail == "rho":
        rho[40:] = 1.0 + 1e-6
    else:
        # u is about -1e-3 from cell 40 on
        v_rows[:, 40] = -(1.0 + 1e-3) / 0.05
    messages = []
    for march in (iteration._march_slab, reference_march):
        with pytest.raises(InputRangeError) as err:
            march(rho, 0.1 * rho, 0.2 * rho, times, v_rows, GSH, 0.05, 0.5,
                  1.0)
        messages.append(str(err.value))
    assert messages[0] == messages[1]
    assert ("density outside" if tail == "rho" else "nonnegative") \
        in messages[0]


@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_solve_run_directory_matches_the_full_width_march(tmp_path,
                                                          monkeypatch, name):
    # a whole audited run, snapshots, plots and report, byte for byte
    args = ["solve", "--scenario", name, "--n-cells", "96", "--n-output",
            "4"]
    assert cli.main(args + ["--seed-dir", str(tmp_path / "window")]) == 0
    monkeypatch.setattr(iteration, "_march_slab", reference_march)
    assert cli.main(args + ["--seed-dir", str(tmp_path / "full")]) == 0
    a, b = (tmp_path / sub / f"solve-{name}" for sub in ("window", "full"))
    rels = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    assert rels == sorted(p.relative_to(b) for p in b.rglob("*")
                          if p.is_file())
    assert len(rels) > 4
    for rel in rels:
        assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel
