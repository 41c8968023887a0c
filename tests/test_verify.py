"""Audit battery, stability measurement, uniqueness proxy, ladders."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from garzfv import (
    CustomVelocityModel,
    DegeneratePairError,
    GreenshieldsModel,
    Grid,
    InitialData,
    InputRangeError,
    Piece,
    PowerLawModel,
    SlabConfig,
    audit_trajectory,
    convergence_study,
    lwr_riemann_exact,
    measure_stability,
    perturb_data,
    recommended_domain,
    riemann_initial_data,
    scenario,
    solve_global,
    uniqueness_check,
)
from garzfv import iteration
from garzfv.core import build_initial_state, state_from_arrays

GSH = GreenshieldsModel()


def test_constant_trajectory_audit_all_pass(audited):
    sc, traj, rep = audited("constant")
    assert rep.passed
    for check in rep.checks:
        assert check.passed, check.name
    # nothing moves, so worst violations sit at roundoff
    for check in rep.checks:
        if "within" in check.name or "interval" in check.name:
            assert abs(check.worst) < 1e-12, check.name


def test_shock_trajectory_tv_constant(audited):
    sc, traj, rep = audited("shock")
    assert rep.passed
    tv = np.asarray(traj.tv_series)
    assert np.all(tv <= tv[0] + 1e-12)
    names = {c.name for c in rep.checks}
    assert "tv_non_increasing" in names


def test_audit_is_pure(audited):
    sc, traj, rep = audited("rarefaction")
    again = audit_trajectory(traj)
    assert [c.row() for c in again.checks] == [c.row() for c in rep.checks]


def test_corrupted_state_fails_bounds_with_reported_violation():
    sc = scenario("constant")
    traj = solve_global(sc.data, sc.grid, sc.t_final, sc.model(), n_output=4)
    st = traj.states[2]
    rho = st.rho.values.copy()
    rho[10] = 1.5
    traj.states[2] = state_from_arrays(st.t, rho, st.v.values, st.w.values,
                                       st.z_inf, st.u_inf, st.grid)
    rep = audit_trajectory(traj)
    assert not rep.passed
    bad = {c.name: c for c in rep.checks if not c.passed}
    assert "rho_in_unit_interval" in bad
    assert bad["rho_in_unit_interval"].worst == pytest.approx(0.5, abs=1e-12)


def _centred(theta, flux):
    return 0.5 * (theta[..., :-1] + theta[..., 1:])


def _donor(theta, flux):
    return np.where(flux >= 0.0, theta[..., :-1], theta[..., 1:])


# marker-step mutants -> (interface ratio, rho floor of theta = q / rho):
# the mean of both sides' ratios, or the donor's with rho floored at 1e-3
MARKER_MUTANTS = {"centred ratio": (_centred, 0.0),
                  "floored ratio": (_donor, 1e-3)}


@pytest.mark.parametrize("mutant", sorted(MARKER_MUTANTS))
def test_marker_step_mutants_fail_marker_domination(monkeypatch, mutant):
    ratio, floor = MARKER_MUTANTS[mutant]

    def step(qe, re, flux, h, dt):
        q, rho = qe[..., 1:-1], re[1:-1]
        theta = np.divide(q, np.maximum(rho, floor), out=np.zeros(q.shape),
                          where=rho > 0.0)
        g = ratio(theta, flux) * flux
        return qe[..., 2:-2] - dt / h * (g[..., 1:] - g[..., :-1])

    monkeypatch.setattr(iteration, "marker_step_arrays", step)
    sc = scenario("smoke")
    traj = solve_global(sc.data, Grid(sc.grid.x_min, sc.grid.x_max, 192),
                        sc.t_final, sc.model())
    failed = {c.name for c in audit_trajectory(traj).failures()}
    assert "markers_dominated_by_density" in failed


def test_stability_on_shifted_and_nudged_pair():
    sc = scenario("smoke")
    grid = Grid(sc.grid.x_min, sc.grid.x_max, 128)
    data2 = perturb_data(sc.data, grid, shift_cells=2, du_inf=0.01)
    res = measure_stability(sc.data, data2, grid, sc.t_final, sc.model())
    assert res.lhs0 > 0
    assert np.isfinite(res.k_measured)
    assert res.k_measured >= 1.0 - 1e-12
    assert res.within_envelope
    # swapping the pair leaves the measured constant unchanged
    res_sw = measure_stability(data2, sc.data, grid, sc.t_final, sc.model())
    assert res_sw.k_measured == pytest.approx(res.k_measured, rel=1e-12)


@pytest.mark.parametrize("name", ["shock", "rarefaction", "constant",
                                  "smoke"])
@pytest.mark.parametrize("cells", [-7, -1, 1, 7])
def test_shift_translates_the_cell_averages(name, cells):
    # cell i of the shifted datum holds cell i - cells of the datum, and a
    # cell shifted in from outside the edge cell's value: a whole-cell
    # shift of constant pieces is exact
    sc = scenario(name)
    n = sc.grid.n_cells
    before = build_initial_state(sc.data, sc.grid)
    shifted = perturb_data(sc.data, sc.grid, cells)
    after = build_initial_state(shifted, sc.grid)
    source = np.clip(np.arange(n) - cells, 0, n - 1)
    for field in ("rho", "psi", "u"):
        assert np.array_equal(getattr(after, field).values,
                              getattr(before, field).values[source]), field
    # the margins still hold: the shifted datum passes make_context
    iteration.make_context(shifted, sc.grid, sc.t_final, sc.model(),
                           SlabConfig())


def test_shift_longer_than_the_domain_keeps_the_far_field():
    sc = scenario("shock")
    for cells, far_field in ((600, 0.2), (-600, 0.8)):
        shifted = perturb_data(sc.data, sc.grid, cells)
        rho = build_initial_state(shifted, sc.grid).rho.values
        assert np.all(rho == far_field), cells


def test_stability_identical_pair_rejected(no_march):
    sc = scenario("shock")
    with pytest.raises(DegeneratePairError):
        measure_stability(sc.data, sc.data, sc.grid, sc.t_final, sc.model())


def test_uniqueness_gap_small_on_constant():
    sc = scenario("constant")
    res = uniqueness_check(sc.data, sc.grid, sc.t_final, sc.model(), seeds=3)
    assert res.passed
    assert res.gap <= res.tol
    assert res.gap < 1e-10


def test_uniqueness_holds_at_growth_just_below_two():
    # PowerLawModel(2.5) on smoke has C_tilde = 1.95, where tau0 is
    # ln(3/2)/C_tilde, not the paper's much shorter root
    sc = scenario("smoke")
    grid = Grid(sc.grid.x_min, sc.grid.x_max, 192)
    res = uniqueness_check(sc.data, grid, sc.t_final, PowerLawModel(2.5))
    assert res.passed


def test_uniqueness_needs_two_seeds():
    sc = scenario("constant")
    with pytest.raises(InputRangeError):
        uniqueness_check(sc.data, sc.grid, sc.t_final, sc.model(), seeds=1)


def test_convergence_ladder_validation():
    data = riemann_initial_data(0.3, 0.8, 1.0, -4.0, 4.0)
    exact = lambda t, x: lwr_riemann_exact(0.3, 0.8, 1.0, GSH, t, x)
    with pytest.raises(InputRangeError):
        convergence_study(data, 1.0, [Grid(-4, 4, 64), Grid(-4, 4, 128)],
                          GSH, exact)
    with pytest.raises(InputRangeError):
        convergence_study(data, 1.0,
                          [Grid(-4, 4, 64), Grid(-4, 4, 128), Grid(-4, 4, 192)],
                          GSH, exact)


@pytest.mark.parametrize("window, message", [
    ((100.0, 200.0), "holds no cell centre of the 64-cell grid"),
    # holds the 64-cell centre -0.0625, an edge of the 128-cell grid
    ((-0.07, -0.06), "holds no cell centre of the 128-cell grid"),
    ((1.0, -1.0), "window x_hi must be finite and >= 1.0, got -1.0"),
])
def test_convergence_window_must_hold_a_cell_of_every_grid(no_march, window,
                                                            message):
    data = riemann_initial_data(0.8, 0.2, 1.0, -4.0, 4.0)
    grids = [Grid(-4, 4, 64), Grid(-4, 4, 128), Grid(-4, 4, 256)]
    with pytest.raises(InputRangeError, match=message):
        convergence_study(data, 1.0, grids, GSH, None, window=window)


def test_convergence_on_constant_data_reports_zero_errors():
    data = riemann_initial_data(0.4, 0.4, 1.0, -4.0, 4.0)
    exact = lambda t, x: np.full(np.shape(x), 0.4)
    tab = convergence_study(
        data, 0.5, [Grid(-4, 4, 64), Grid(-4, 4, 128), Grid(-4, 4, 256)],
        GSH, exact, cfg=SlabConfig(entropy_levels=0))
    assert all(e < 1e-13 for e in tab.errors())


def test_convergence_monotone_on_moving_shock():
    data = riemann_initial_data(0.3, 0.8, 1.0, -4.0, 4.0)
    exact = lambda t, x: lwr_riemann_exact(0.3, 0.8, 1.0, GSH, t, x)
    grids = [Grid(-4, 4, n) for n in (64, 128, 256)]
    tab = convergence_study(data, 1.0, grids, GSH, exact)
    assert tab.errors()[-1] < tab.errors()[0]
    assert len(tab.orders()) == 2


@pytest.mark.parametrize("model, rho_left, rho_right", [
    (PowerLawModel(2.0), 0.9, 0.1),
    (PowerLawModel(3.0), 0.1, 0.9),
    (PowerLawModel(2.5), 0.6, 0.05),
    (CustomVelocityModel(lambda rho, u: u * (1.0 - rho) ** 2 * (1.0 + rho)),
     0.8, 0.1),
], ids=["power2", "power3", "power2.5", "custom"])
def test_riemann_ladder_on_non_concave_closures(model, rho_left, rho_right):
    # each profile has a shock meeting a fan; the solver's L1 error
    # against the exact reference falls on every refinement
    data = riemann_initial_data(rho_left, rho_right, 1.0, -4.0, 4.0)
    tab = convergence_study(
        data, 1.0, [Grid(-4.0, 4.0, n) for n in (128, 256, 512)], model,
        lambda t, x: lwr_riemann_exact(rho_left, rho_right, 1.0, model, t, x))
    errors = tab.errors()
    assert errors[0] > errors[1] > errors[2] > 0.0


def test_studies_solve_without_the_entropy_audit(monkeypatch):
    # the studies compare states only; with their default SlabConfig() or
    # one that asks for an audit, no solve may run the entropy kernel
    real = iteration.entropy_residual_maxima
    calls = [0]

    def counted(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(iteration, "entropy_residual_maxima", counted)
    sc = scenario("smoke")
    grid = Grid(sc.grid.x_min, sc.grid.x_max, 64)
    data2 = perturb_data(sc.data, grid, shift_cells=2, du_inf=0.01)
    measure_stability(sc.data, data2, grid, 0.3, sc.model())
    data = riemann_initial_data(0.3, 0.8, 1.0, -4.0, 4.0)
    exact = lambda t, x: lwr_riemann_exact(0.3, 0.8, 1.0, GSH, t, x)
    convergence_study(data, 0.5, [Grid(-4, 4, n) for n in (64, 128, 256)],
                      GSH, exact, cfg=SlabConfig())
    assert calls[0] == 0


def test_report_serialization_shapes(audited):
    sc, traj, rep = audited("smoke")
    rows = [c.row() for c in rep.checks]
    assert all(len(r) == 4 for r in rows)
    text = rep.summary()
    assert "entropy_residual" in text
    assert "[pass]" in text
    assert rep.failures() == []


def test_smoke_plateau_just_above_an_entropy_level_passes_audit():
    # a plateau of 0.612 crosses level 0.6 in single steps on its smooth
    # flanks; with the pre-step sign in the source term those crossing
    # cells left a level-0.6 residual near 0.08 at every n, failing 10 h
    # from n = 1536 on
    sc = scenario("smoke")
    data = InitialData(rho_pieces=(Piece.const(-1.0, 1.0, 0.612),),
                       psi_pieces=sc.data.psi_pieces, z_inf=sc.data.z_inf,
                       u_inf=sc.data.u_inf)
    grid = Grid(sc.grid.x_min, sc.grid.x_max, 1536)
    traj = solve_global(data, grid, sc.t_final, sc.model())
    report = audit_trajectory(traj)
    assert report.passed, [c.name for c in report.failures()]
    level_06 = max(v for s in traj.slabs
                   for k, v in s.entropy_table().items()
                   if abs(k - 0.6) < 1e-9)
    assert level_06 <= 0.1 * 10.0 * grid.h


SUPPORT = (-1.5, 1.5)


@st.composite
def piecewise(draw, lo, hi):
    """1-3 pieces tiling SUPPORT, each constant or linear, values in
    [lo, hi]."""
    cuts = draw(st.lists(st.floats(-1.4, 1.4), max_size=2, unique=True))
    edges = [SUPPORT[0]] + sorted(cuts) + [SUPPORT[1]]
    pieces = []
    for a, b in zip(edges, edges[1:]):
        left = draw(st.floats(lo, hi))
        right = left if draw(st.booleans()) else draw(st.floats(lo, hi))
        pieces.append(Piece(a, b, left, right))
    return tuple(pieces)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(rho=piecewise(0.0, 1.0), psi=piecewise(-0.5, 0.5),
       gamma=st.sampled_from([1.0, 2.0, 3.0]), u_inf=st.floats(0.5, 1.5),
       n=st.integers(96, 160))
def test_generated_admissible_data_pass_the_audit(rho, psi, gamma, u_inf, n):
    t_final = 0.5
    data = InitialData(rho_pieces=rho, psi_pieces=psi, u_inf=u_inf)
    # |z| <= L sup|psi| and |u - u_inf| <= L |z|, with L the support length
    length = SUPPORT[1] - SUPPORT[0]
    psi_sup = max(abs(v) for p in psi for v in (p.v_left, p.v_right))
    grid = Grid(*recommended_domain(data, t_final,
                                    u_inf + length ** 2 * psi_sup), n)
    # every generated case is admissible, so one that raises fails here
    traj = solve_global(data, grid, t_final, PowerLawModel(gamma))
    report = audit_trajectory(traj)
    assert report.passed, report.summary()
