"""Slab-chained fixed-point construction: constants, traces, global solves."""
import math
import re

import numpy as np
import pytest

from garzfv import (
    CustomVelocityModel,
    GreenshieldsModel,
    Grid,
    InitialData,
    InputRangeError,
    InvalidDataError,
    PicardDivergenceError,
    Piece,
    SlabConfig,
    build_initial_state,
    compute_M0,
    compute_tau0,
    compute_tilde_C,
    l1_distance,
    make_context,
    picard_slab,
    scenario,
    solve_global,
)
from garzfv import iteration
from garzfv.core import CellField

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
    assert compute_tilde_C(GSH, 0.0, 0.0, 1.0, u_max=1.0) == 0.0
    # unit sups, unit mass: 1 + 1 + 0 + 1 * (1 + 1)
    assert compute_tilde_C(GSH, 1.0, 1.0, 1.0, u_max=1.0) == pytest.approx(
        4.0, abs=1e-12)
    # with psi = 0 the z-linear terms double when z doubles
    c1 = compute_tilde_C(GSH, 1.0, 0.0, 1.0, u_max=1.0)
    c2 = compute_tilde_C(GSH, 2.0, 0.0, 1.0, u_max=1.0)
    assert c2 > c1
    lin1 = c1 - compute_tilde_C(GSH, 0.0, 0.0, 1.0, u_max=1.0)
    lin2 = c2 - compute_tilde_C(GSH, 0.0, 0.0, 1.0, u_max=1.0)
    assert lin2 == pytest.approx(2 * lin1, rel=1e-12)


def test_slab_length_rule():
    assert compute_tau0(0.0) == 0.25
    # independent scan: largest tau <= 1/4 with exp(c tau) - 1 <= 2 tau
    for c in (0.5, 1.0, 1.5, 1.9):
        tau = compute_tau0(c)
        grid_tau = np.linspace(1e-6, 0.25, 20001)
        ok = np.expm1(c * grid_tau) <= 2 * grid_tau
        best = grid_tau[ok].max()
        assert tau == pytest.approx(best, abs=1e-4)
        assert math.expm1(c * tau) <= 2 * tau + 1e-9
    # super-critical growth: fall back to a half-budget exponential window
    for c in (2.0, 4.0, 10.0):
        tau = compute_tau0(c)
        assert 0.0 < tau <= 0.25
        assert math.expm1(c * tau) <= 0.5 + 1e-9
    assert compute_tau0(4.0) == pytest.approx(min(0.25, math.log(1.5) / 4.0),
                                              abs=1e-10)
    with pytest.raises(InputRangeError):
        compute_tau0(-1.0)


def _smoke_context(n=128):
    sc = scenario("smoke")
    grid = Grid(sc.grid.x_min, sc.grid.x_max, n)
    cfg = SlabConfig()
    ctx, st0 = make_context(sc.data, grid, sc.t_final, sc.model(), cfg)
    return sc, grid, cfg, ctx, st0


def _traced_smoke_solve(monkeypatch, cfg, n=192):
    """Solve smoke, recording per slab each march (audited or not, and its
    iterate), the number of multi-level entropy kernel calls and what
    picard_slab returned."""
    marches, kernel_calls, slabs = [], [0], []
    real_march = iteration._march_slab
    real_maxima = iteration.entropy_residual_maxima
    real_slab = iteration.picard_slab

    def march(*args):
        out = real_march(*args)
        marches.append((len(args[-1].k_levels) > 0, out))
        return out

    def maxima(*args):
        kernel_calls[0] += 1
        return real_maxima(*args)

    def slab(*args, **kwargs):
        first, calls = len(marches), kernel_calls[0]
        result = real_slab(*args, **kwargs)
        slabs.append((marches[first:], kernel_calls[0] - calls, result))
        return result

    monkeypatch.setattr(iteration, "_march_slab", march)
    monkeypatch.setattr(iteration, "entropy_residual_maxima", maxima)
    monkeypatch.setattr(iteration, "picard_slab", slab)
    sc = scenario("smoke")
    grid = Grid(sc.grid.x_min, sc.grid.x_max, n)
    traj = solve_global(sc.data, grid, sc.t_final, sc.model(), cfg)
    return traj, slabs


def _same_iterate(a, b):
    for name in ("rho", "v", "w", "u"):
        for x, y in zip(getattr(a, name), getattr(b, name), strict=True):
            if x.tobytes() != y.tobytes():
                return False
    return (a.times.tobytes() == b.times.tobytes() and a.mass == b.mass
            and a.tv == b.tv and a.influx == b.influx)


def test_entropy_audit_runs_once_per_step_of_converged_iterate(monkeypatch):
    # every Picard march runs unaudited (auditing each would cost n_steps x
    # (iterates - 1) kernel calls per slab); the converged iterate is
    # re-marched once with the audit on, and that march reproduces it
    traj, slabs = _traced_smoke_solve(monkeypatch, SlabConfig())
    assert len(slabs) == len(traj.slabs) >= 2
    for slab_marches, kernel_calls, (iterate, trace, recorder) in slabs:
        assert trace.iterations >= 3
        assert kernel_calls == recorder.n_steps > 0
        audited = [flag for flag, _ in slab_marches]
        assert audited == [False] * (trace.iterations - 1) + [True]
        converged, remarch = slab_marches[-2][1], slab_marches[-1][1]
        assert remarch is iterate
        assert _same_iterate(converged, remarch)
        assert len(recorder.entropy_table()) == 11


def test_unaudited_solve_marches_once_per_picard_iterate(monkeypatch):
    traj, slabs = _traced_smoke_solve(monkeypatch,
                                      SlabConfig(entropy_levels=0))
    for slab_marches, kernel_calls, (iterate, trace, recorder) in slabs:
        assert kernel_calls == 0
        assert len(slab_marches) == trace.iterations - 1
        assert slab_marches[-1][1] is iterate
        assert recorder.entropy_table() == {}
    assert all(s.entropy_max == {} for s in traj.slabs)


def test_constant_datum_converges_in_two_iterations():
    g = Grid(-4.0, 4.0, 64)
    data = InitialData((Piece(-4.0, 4.0, 0.45, 0.45),), (), z_inf=0.0,
                       u_inf=1.0)
    cfg = SlabConfig()
    ctx, st0 = make_context(data, g, 1.0, GSH, cfg)
    iterate, trace, recorder = picard_slab(st0, 0.0, ctx.tau0, GSH, ctx, cfg)
    assert trace.converged and trace.iterations == 2
    for rho in iterate.rho:
        assert np.abs(rho - 0.45).max() < 1e-13


def test_constant_u_slab_converges_second_iteration():
    # psi0 = 0 and z_inf = 0 freeze u, so the first sweep is already exact
    sc = scenario("shock")
    cfg = SlabConfig()
    ctx, st0 = make_context(sc.data, sc.grid, sc.t_final, sc.model(), cfg)
    iterate, trace, recorder = picard_slab(st0, 0.0, ctx.tau0, sc.model(),
                                           ctx, cfg)
    assert trace.converged and trace.iterations == 2
    assert trace.records[-1].phi_mixed <= ctx.tol_phi


def test_single_slab_when_horizon_is_short():
    g = Grid(-4.0, 4.0, 64)
    data = InitialData((Piece(-1.0, 1.0, 0.5, 0.5),), (), u_inf=1.0)
    traj = solve_global(data, g, 0.2, GSH)
    assert len(traj.slabs) == 1
    assert traj.slabs[0].t1 == pytest.approx(0.2)


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
    mid = traj.state_at(0.5 * sc.t_final)
    assert mid.t == pytest.approx(0.5 * sc.t_final, abs=1e-12)


def test_smoke_contraction_trace():
    sc, grid, cfg, ctx, st0 = _smoke_context(n=128)
    iterate, trace, recorder = picard_slab(st0, 0.0, ctx.tau0, sc.model(),
                                           ctx, cfg)
    assert trace.converged
    phis = trace.phi_history()
    assert all(b < a for a, b in zip(phis, phis[1:]))
    for rec in trace.records[2:]:
        if rec.ratio_mixed is not None:
            assert rec.ratio_mixed <= 0.9


def test_divergence_error_carries_trace():
    sc, grid, cfg, ctx, st0 = _smoke_context(n=96)
    tight = SlabConfig(tol_phi=1e-30, max_picard_iters=2)
    ctx2, st0b = make_context(sc.data, grid, sc.t_final, sc.model(), tight)
    with pytest.raises(PicardDivergenceError) as err:
        picard_slab(st0b, 0.0, ctx2.tau0, sc.model(), ctx2, tight)
    trace = err.value.trace
    assert trace is not None and trace.iterations == 2
    assert not trace.converged


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


def test_context_constants_on_smoke():
    sc, grid, cfg, ctx, st0 = _smoke_context(n=384)
    # hand-assembled values for this datum: TV(rho0) = 1.2, |z0| sup 0.3,
    # |psi0| sup 0.5, |rho0|_L1 = 1.2
    assert ctx.m0 == pytest.approx(4 * 1.2 + 4, abs=1e-12)
    assert ctx.c_tilde == pytest.approx(
        compute_tilde_C(sc.model(), 0.3, 0.5, 1.2, u_max=ctx.u0_sup),
        rel=1e-12)
    assert ctx.tau0 == pytest.approx(0.25)
    assert not ctx.constant_u


def test_margin_error_names_the_wave_bound():
    # the one-sided slope of sqrt(1 - rho) at rho = 1 makes the wave bound
    # 1000 u, which widens the margin window to the whole domain
    sc = scenario("smoke")
    grid = Grid(-6.0, 6.0, 96)
    model = CustomVelocityModel(lambda rho, u: u * np.sqrt(1.0 - rho))
    with pytest.raises(InvalidDataError, match="wave_bound") as err:
        make_context(sc.data, grid, sc.t_final, model, SlabConfig())
    bound = float(re.search(r"wave_bound (\S+)", str(err.value)).group(1))
    u_max = build_initial_state(sc.data, grid).u.values.max()
    assert bound == pytest.approx(1000.0 * u_max, rel=1e-3)
