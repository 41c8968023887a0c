"""Density solver: interface fluxes, CFL rule, update invariants, entropy."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from garzfv import (
    CellField,
    CflViolationError,
    CustomVelocityModel,
    GreenshieldsModel,
    Grid,
    GridMismatchError,
    InputRangeError,
    PowerLawModel,
    SlabConfig,
    godunov_flux,
    max_speed,
    total_variation,
)
from garzfv.scalar import (AuditWorkspace, _godunov_pick, _step_parts,
                           density_step_arrays, entropy_residual_arrays,
                           entropy_residual_maxima, pad2)

GSH = GreenshieldsModel()


def _cfl_step(rho, u, h, cfl=0.5):
    """One density step at dt = cfl h / max_speed, as the march takes it;
    returns (rho_new, interface fluxes, dt)."""
    speed = max_speed(rho, u, GSH)
    dt = cfl * h / speed
    rho_new, flux, _ = density_step_arrays(pad2(rho), pad2(u), h, dt, GSH,
                                           speed)
    return rho_new, flux, dt


def dense_flux_oracle(rho_l, rho_r, u_if, model, samples=20001):
    """Reference Godunov flux by brute-force extremization."""
    lo, hi = min(rho_l, rho_r), max(rho_l, rho_r)
    r = np.linspace(lo, hi, samples)
    f = model.flux(r, u_if)
    return f.min() if rho_l <= rho_r else f.max()


def test_flux_examples():
    assert godunov_flux(0.2, 0.8, 1.0, GSH) == pytest.approx(0.16, abs=1e-14)
    assert godunov_flux(0.8, 0.2, 1.0, GSH) == pytest.approx(0.25, abs=1e-14)
    for rho in (0.0, 0.3, 1.0):
        assert godunov_flux(rho, rho, 1.3, GSH) == pytest.approx(
            GSH.flux(rho, 1.3), abs=1e-15)


@settings(max_examples=150, deadline=None)
@given(rho_l=st.floats(0.0, 1.0), rho_r=st.floats(0.0, 1.0),
       u=st.floats(0.0, 2.0), gamma=st.sampled_from([1.0, 2.0, 3.0]))
def test_flux_matches_dense_oracle(rho_l, rho_r, u, gamma):
    model = PowerLawModel(gamma)
    got = godunov_flux(rho_l, rho_r, u, model)
    ref = dense_flux_oracle(rho_l, rho_r, u, model)
    assert got == pytest.approx(ref, abs=2e-9)
    assert got >= -1e-15


def test_flux_matches_dense_oracle_for_generic_closures(hump_model):
    # the bisected critical density puts custom closures on the same
    # Godunov path as the built-ins; brute force is the reference
    rng = np.random.default_rng(11)
    rl, rr = rng.uniform(0, 1, 150), rng.uniform(0, 1, 150)
    u = rng.uniform(0, 2, 150)
    customs = [CustomVelocityModel(lambda rho, u, g=g: u * (1.0 - rho) ** g,
                                   name=f"power{g}") for g in (1, 2, 3)]
    for model in customs + [hump_model]:
        got = godunov_flux(rl, rr, u, model)
        ref = np.array([dense_flux_oracle(a, b, c, model)
                        for a, b, c in zip(rl, rr, u)])
        assert np.abs(got - ref).max() < 2e-9, model.name
        assert np.all(got >= ref), model.name


@pytest.mark.parametrize("shapes", [((2,), (3,), (2,)), ((4,), (4,), (3,)),
                                    ((2, 3), (2,), (3,))])
def test_godunov_flux_names_inputs_that_do_not_broadcast(shapes):
    # numpy's own broadcast ValueError named no argument
    rl, rr, u = (np.full(shape, 0.5) for shape in shapes)
    with pytest.raises(InputRangeError, match="do not broadcast") as err:
        godunov_flux(rl, rr, u, GSH)
    assert all(str(shape) in str(err.value) for shape in shapes)


def test_flux_vectorized_matches_scalar():
    rng = np.random.default_rng(5)
    rl, rr = rng.uniform(0, 1, 200), rng.uniform(0, 1, 200)
    u = rng.uniform(0, 2, 200)
    vec = godunov_flux(rl, rr, u, GSH)
    for i in range(0, 200, 17):
        assert vec[i] == pytest.approx(
            godunov_flux(float(rl[i]), float(rr[i]), float(u[i]), GSH),
            abs=1e-14)


def test_cfl_dt_rules():
    # the march steps with dt = cfl h / max_speed(rho, u)
    rho = np.linspace(0.1, 0.9, 40)
    # zero marker freezes everything; the speed floor keeps dt finite
    assert max_speed(rho, np.zeros(40), GSH) == 1e-12
    # u = 1: sup |d flux / d rho| = 1 on [0,1]
    assert max_speed(rho, np.ones(40), GSH) == pytest.approx(1.0, abs=1e-2)
    with pytest.raises(InputRangeError):
        SlabConfig(cfl=0.0)


def test_density_step_rejects_dt_above_cfl_limit():
    g = Grid(-3.0, 3.0, 200)
    rho = 0.5 * np.exp(-g.centers() ** 2)
    u = 1.0 + 0.2 * np.tanh(g.centers())
    speed = max_speed(rho, u, GSH)
    density_step_arrays(pad2(rho), pad2(u), g.h, g.h / speed, GSH, speed)
    with pytest.raises(CflViolationError):
        density_step_arrays(pad2(rho), pad2(u), g.h, 1.01 * g.h / speed,
                            GSH, speed)


def test_constant_state_is_fixed_point():
    g = Grid(-1.0, 1.0, 64)
    rho_new, flux, _ = _cfl_step(np.full(64, 0.37), np.ones(64), g.h)
    assert np.abs(rho_new - 0.37).max() < 1e-15
    assert np.ptp(flux) < 1e-15


def test_stationary_shock_preserved():
    # s = u (1 - rho_l - rho_r) = 0 for 0.2 | 0.8, and the end fluxes agree
    g = Grid(-2.0, 2.0, 128)
    rho = np.where(g.centers() < 0.0, 0.2, 0.8)
    state = rho
    for _ in range(20):
        state, _, _ = _cfl_step(state, np.ones(128), g.h)
    assert np.abs(state - rho).max() < 1e-14


def test_mass_conserved_and_diag_consistent():
    # mass changes only by the boundary influx dt (F_{-1/2} - F_{n-1/2})
    g = Grid(-3.0, 3.0, 200)
    x = g.centers()
    rho = 0.5 * np.exp(-x ** 2)
    rho_new, flux, dt = _cfl_step(rho, np.ones(200), g.h)
    drift = g.h * rho_new.sum() - g.h * rho.sum() - dt * (flux[0] - flux[-1])
    assert abs(drift) < 1e-14


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), u_val=st.floats(0.1, 2.0))
def test_step_keeps_unit_interval_and_tvd(seed, u_val):
    rng = np.random.default_rng(seed)
    g = Grid(0.0, 1.0, 50)
    rho = rng.uniform(0.0, 1.0, 50)
    rho[:2] = rho[-2:] = 0.0
    rho_new, _, _ = _cfl_step(rho, np.full(50, u_val), g.h)
    assert rho_new.min() >= -1e-15
    assert rho_new.max() <= 1.0 + 1e-15
    # constant marker: total variation cannot grow
    assert total_variation(CellField(rho_new, g)) \
        <= total_variation(CellField(rho, g)) + 1e-12


def test_entropy_residual_zero_on_constant():
    g = Grid(0.0, 1.0, 32)
    c = np.full(32, 0.6)
    r = entropy_residual_arrays(c, c, np.ones(32), 0.3, 0.01, g.h, GSH)
    assert np.abs(r).max() == 0.0


def test_entropy_residual_small_on_valid_step():
    g = Grid(-2.0, 2.0, 128)
    rho = np.where(g.centers() < 0.0, 0.2, 0.8)
    u = np.ones(128)
    rho_new, _, dt = _cfl_step(rho, u, g.h)
    for k in (0.0, 0.2, 0.5, 0.8, 1.0):
        r = entropy_residual_arrays(rho, rho_new, u, k, dt, g.h, GSH)
        assert r.max() <= 10.0 * g.h


@pytest.mark.parametrize("n", [200, 400, 800])
def test_entropy_residual_small_where_a_cell_crosses_the_level(n):
    # smooth profile, nonconstant marker: put k halfway through one cell's
    # step, so that cell crosses k; the source term there takes the
    # time-averaged sign, where the pre-step sign adds k dV/du u_x ~ 0.12
    g = Grid(-1.0, 1.0, n)
    x = g.centers()
    rho = 0.5 + 0.2 * np.tanh(x / 0.3)
    u = 1.0 + 0.5 * x
    rho_new, _, dt = _cfl_step(rho, u, g.h)
    for i in (n // 2, n // 2 - n // 7, n // 2 + n // 10):
        k = 0.5 * (rho[i] + rho_new[i])
        assert (rho[i] - k) * (rho_new[i] - k) < 0.0
        res = entropy_residual_arrays(rho, rho_new, u, k, dt, g.h, GSH)
        assert res.max() <= 10.0 * g.h


def test_entropy_residual_flags_frozen_expansion_jump():
    # holding an entropy-violating downward jump in place must light up
    g = Grid(-2.0, 2.0, 64)
    bad = np.where(g.centers() < 0.0, 0.8, 0.2)
    r = entropy_residual_arrays(bad, bad, np.ones(64), 0.3, 0.5 * g.h, g.h,
                                GSH)
    assert r.max() > 0.5 / g.h * 0.05


AUDIT_LEVELS = np.linspace(0.0, 1.0, 11)


def _kernel_case(data, model, n, tie_values):
    """Random admissible (rho_old, rho_new, u, dt): cells drawn partly from
    tie_values so levels, critical densities and vacuum/jam are hit exactly;
    rho_new is a CFL-limited Godunov step, with some cells then reset to a
    tie value so cells cross or land on levels."""
    cell = st.one_of(st.sampled_from(tie_values), st.floats(0.0, 1.0))
    rho = np.array(data.draw(st.lists(cell, min_size=n, max_size=n))) + 0.0
    u = np.array(data.draw(st.lists(
        st.one_of(st.just(0.0), st.floats(0.0, 2.0)), min_size=n,
        max_size=n))) + 0.0
    h = 0.05
    cfl = data.draw(st.floats(0.05, 1.0))
    speed = max_speed(rho, u, model)
    dt = cfl * h / speed
    rho_new, _, _ = density_step_arrays(pad2(rho), pad2(u), h, dt, model,
                                        speed)
    reset = np.array(data.draw(st.lists(st.booleans(), min_size=n,
                                        max_size=n)))
    ties = np.array(data.draw(st.lists(st.sampled_from(tie_values),
                                       min_size=n, max_size=n)))
    if data.draw(st.booleans()):
        rho_new = np.where(reset, ties, rho_new)
    return rho, rho_new, u, dt, h


def _reference_maxima(rho, rho_new, u, levels, dt, h, model):
    """max_i R_i level by level from the per-level residual."""
    return np.array([entropy_residual_arrays(rho, rho_new, u, k, dt, h,
                                             model).max()
                     for k in np.asarray(levels, dtype=float).tolist()])


def _assert_kernel_matches(rho, rho_new, u, dt, h, model,
                           levels=AUDIT_LEVELS):
    # the kernel on a batch of one step, its (rho_old, u) read from the parts
    got = entropy_residual_maxima(
        [(dt, rho_new, _step_parts(pad2(rho), pad2(u), model))], levels, h,
        model)
    ref = _reference_maxima(rho, rho_new, u, levels, dt, h, model)
    assert got.tobytes() == ref.tobytes()
    # handed the Godunov parts that the step from (rho, u) returns, as the
    # audit replay hands them over, the kernel returns the same bytes
    parts = density_step_arrays(pad2(rho), pad2(u), h, dt, model,
                                max_speed(rho, u, model))[2]
    reused = entropy_residual_maxima([(dt, rho_new, parts)], levels, h, model)
    assert reused.tobytes() == got.tobytes()
    return got


# gamma 2.5 rounds (1 - k)**gamma differently as a 0-d and as an array power
GAMMAS = [1.0, 2.0, 2.5, 3.0]


@settings(max_examples=150, deadline=None)
@given(data=st.data(), gamma=st.sampled_from(GAMMAS), n=st.integers(1, 40))
def test_multilevel_kernel_matches_per_level_residual(data, gamma, n):
    model = PowerLawModel(gamma)
    ties = list(AUDIT_LEVELS) + [1.0 / (1.0 + gamma)]
    _assert_kernel_matches(*_kernel_case(data, model, n, ties), model)


def _pieces(data, n, values):
    """n cells of 1-4 constant pieces (some maybe empty) drawn from values."""
    cuts = sorted(data.draw(st.lists(st.integers(0, n), max_size=3)))
    vals = data.draw(st.lists(values, min_size=len(cuts) + 1,
                              max_size=len(cuts) + 1))
    return np.repeat(np.array(vals, dtype=float), np.diff([0, *cuts, n]))


def _plateau_case(data, model, n, tie_values):
    """Piecewise-constant (rho_old, u), so most cells do not move, and a
    CFL-limited rho_new with a few cells then reset to a tie value.  -0.0
    sits next to 0.0: the two are equal but not the same bits."""
    rho = _pieces(data, n, st.sampled_from([-0.0, *tie_values]))
    u = _pieces(data, n, st.one_of(st.sampled_from([-0.0, 0.0, 0.5, 1.0]),
                                   st.floats(0.0, 2.0)))
    h = 0.05
    speed = max_speed(rho, u, model)
    dt = data.draw(st.floats(0.05, 1.0)) * h / speed
    rho_new, _, _ = density_step_arrays(pad2(rho), pad2(u), h, dt, model,
                                        speed)
    for i in data.draw(st.lists(st.integers(0, n - 1), max_size=3)):
        rho_new[i] = data.draw(st.sampled_from(tie_values))
    return rho, rho_new, u, dt, h


@settings(max_examples=150, deadline=None)
@given(data=st.data(), gamma=st.sampled_from(GAMMAS), n=st.integers(1, 60))
def test_multilevel_kernel_matches_per_level_residual_on_plateaus(
        data, gamma, n):
    model = PowerLawModel(gamma)
    ties = list(AUDIT_LEVELS) + [1.0 / (1.0 + gamma)]
    _assert_kernel_matches(*_plateau_case(data, model, n, ties), model)


@settings(max_examples=15, deadline=None)
@given(data=st.data(), n=st.integers(1, 24))
def test_multilevel_kernel_on_plateaus_for_custom_closure(data, n):
    model = CustomVelocityModel(lambda rho, u: u * (1.0 - rho) ** 2)
    _assert_kernel_matches(*_plateau_case(data, model, n, list(AUDIT_LEVELS)),
                           model)


def test_multilevel_kernel_is_positive_zero_where_nothing_moves():
    rho = np.full(16, 0.3)
    got = _assert_kernel_matches(rho, rho.copy(), np.ones(16), 0.01, 0.05,
                                 GSH)
    assert got.tobytes() == np.zeros(AUDIT_LEVELS.size).tobytes()


@pytest.mark.parametrize("moved", [False, True])
def test_multilevel_kernel_on_one_cell(moved):
    rho = np.array([0.4])
    rho_new = rho + 0.01 if moved else rho.copy()
    _assert_kernel_matches(rho, rho_new, np.array([1.3]), 0.01, 0.05, GSH)


def test_multilevel_kernel_with_every_cell_moving():
    n = 24
    x = np.linspace(-1.0, 1.0, n)
    rho = 0.5 + 0.4 * np.tanh(2.0 * x)
    u = 1.0 + 0.3 * x
    speed = max_speed(rho, u, GSH)
    dt = 0.5 * 0.05 / speed
    rho_new, _, _ = density_step_arrays(pad2(rho), pad2(u), 0.05, dt, GSH,
                                        speed)
    assert np.all(rho_new != rho)
    _assert_kernel_matches(rho, rho_new, u, dt, 0.05, GSH)


def test_multilevel_kernel_keeps_still_cells_when_moving_ones_are_negative():
    # one cell moves towards every level from a plateau below them all, so
    # its residual is negative at each level; the still cells' +0.0 is the
    # maximum, as in the reference
    rho = np.full(12, 0.55)
    rho_new = rho.copy()
    rho_new[6] = 0.5501
    levels = [0.6, 0.7, 0.8, 0.9, 1.0]
    per_cell = [entropy_residual_arrays(rho, rho_new, np.ones(12), k, 0.01,
                                        0.05, GSH)[6] for k in levels]
    assert max(per_cell) < 0.0
    got = _assert_kernel_matches(rho, rho_new, np.ones(12), 0.01, 0.05, GSH,
                                 levels)
    assert got.tobytes() == np.zeros(len(levels)).tobytes()


def test_multilevel_kernel_reports_nan_in_a_moving_cell():
    g = Grid(-2.0, 2.0, 32)
    rho = np.where(g.centers() < 0.0, 0.2, 0.8)
    u = np.ones(32)
    rho_new, _, dt = _cfl_step(rho, u, g.h)
    rho_new[16] = np.nan
    got = _assert_kernel_matches(rho, rho_new, u, dt, g.h, GSH)
    assert np.isnan(got).all()


@settings(max_examples=15, deadline=None)
@given(data=st.data(), n=st.integers(1, 16))
def test_multilevel_kernel_matches_per_level_residual_for_custom_closure(
        data, n):
    model = CustomVelocityModel(lambda rho, u: u * (1.0 - rho) ** 2)
    _assert_kernel_matches(*_kernel_case(data, model, n, list(AUDIT_LEVELS)),
                           model)


@settings(max_examples=20, deadline=None)
@given(data=st.data(), model=st.sampled_from(
    [PowerLawModel(1.0), PowerLawModel(2.5),
     CustomVelocityModel(lambda rho, u: u * (1.0 - rho) ** 2)]),
       sizes=st.lists(st.integers(1, 20), min_size=1, max_size=4))
def test_batched_kernel_is_the_largest_of_its_steps_maxima(data, model,
                                                           sizes):
    # steps of different widths and dt end to end: no entropy-flux
    # difference crosses the seam between two steps, and each cell divides
    # by its own step's dt.  Plateaus carry -0.0 next to 0.0
    ties = list(AUDIT_LEVELS)
    steps, per_step = [], []
    for n in sizes:
        case = _plateau_case if data.draw(st.booleans()) else _kernel_case
        rho, rho_new, u, dt, h = case(data, model, n, ties)
        steps.append((dt, rho_new, _step_parts(pad2(rho), pad2(u), model)))
        per_step.append(_reference_maxima(rho, rho_new, u, AUDIT_LEVELS, dt,
                                          h, model))
    got = entropy_residual_maxima(steps, AUDIT_LEVELS, 0.05, model)
    assert got.tobytes() == np.maximum.reduce(per_step).tobytes()


def test_multilevel_kernel_rejects_levels_outside_unit_interval():
    rho = np.full(8, 0.5)
    u = np.ones(8)
    with pytest.raises(InputRangeError):
        entropy_residual_maxima(
            [(0.01, rho, _step_parts(pad2(rho), pad2(u), GSH))], [0.5, 1.5],
            0.1, GSH)


def test_multilevel_kernel_rejects_a_workspace_smaller_than_the_batch():
    # 11 levels x 9 interfaces need 99 entries per work array
    rho = np.full(8, 0.5)
    u = np.ones(8)
    step = (0.01, rho, _step_parts(pad2(rho), pad2(u), GSH))
    with pytest.raises(InputRangeError, match="needs 99"):
        entropy_residual_maxima([step], AUDIT_LEVELS, 0.1, GSH,
                                AuditWorkspace(98))
    assert entropy_residual_maxima([step], AUDIT_LEVELS, 0.1, GSH,
                                   AuditWorkspace(99)).tobytes() \
        == entropy_residual_maxima([step], AUDIT_LEVELS, 0.1, GSH).tobytes()


STEP_MODELS = [PowerLawModel(g) for g in (1.0, 2.0, 2.5, 3.0)] + [
    CustomVelocityModel(lambda rho, u: u * (1.0 - rho) ** 2, name="sq")]


@settings(max_examples=120, deadline=None)
@given(data=st.data(), model=st.sampled_from(STEP_MODELS),
       n=st.integers(1, 30))
def test_density_step_equals_godunov_flux_difference(data, model, n):
    # vacuum, jam and critical-density cells hit exactly; the range check
    # lives in max_speed, the step itself evaluates f unchecked
    crit = float(model.critical_density(np.ones(1))[0])
    cell = st.one_of(st.sampled_from([0.0, 1.0, crit]), st.floats(0.0, 1.0))
    rho = np.array(data.draw(st.lists(cell, min_size=n, max_size=n))) + 0.0
    u = np.array(data.draw(st.lists(
        st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 3.0)),
        min_size=n, max_size=n))) + 0.0
    h = 0.05
    speed = max_speed(rho, u, model)
    dt = data.draw(st.floats(0.05, 1.0)) * h / speed
    rho_new, flux, _ = density_step_arrays(pad2(rho), pad2(u), h, dt, model,
                                           speed)
    re = np.pad(rho, 2, mode="edge")
    ue = np.pad(u, 2, mode="edge")
    ref_flux = godunov_flux(re[1:-2], re[2:-1],
                            0.5 * (ue[1:-2] + ue[2:-1]), model)
    assert flux.tobytes() == ref_flux.tobytes()
    assert rho_new.tobytes() == \
        (rho - dt / h * np.diff(ref_flux)).tobytes()


def test_custom_closure_bisects_only_where_the_flux_reads_it(monkeypatch):
    # the Godunov value reads the critical density only where rho_i >
    # rho_{i+1}; bisecting there alone gives the bits of bisecting everywhere
    model = CustomVelocityModel(lambda rho, u: u * (1.0 - rho) ** 2)
    rho = np.array([0.2, 0.9, 0.9, 0.4, 0.1, 0.1, 0.6, 0.3, 0.0])
    u = np.linspace(0.5, 1.5, rho.size)
    real = model.critical_density
    sizes = []

    def bisect(v):
        sizes.append(v.size)
        return real(v)

    monkeypatch.setattr(model, "critical_density", bisect)
    re, ue = pad2(rho), pad2(u)
    speed = max_speed(rho, u, model)
    _, flux, _ = density_step_arrays(re, ue, 0.05, 0.02 / speed, model,
                                     speed)
    rl, rr = re[1:-2], re[2:-1]
    assert sizes == [np.count_nonzero(rl > rr)] == [4]
    u_if = 0.5 * (ue[1:-2] + ue[2:-1])
    crit = real(u_if)
    f_l, f_r, f_c = (x * model.velocity(x, u_if) for x in (rl, rr, crit))
    assert flux.tobytes() == _godunov_pick(rl, rr, f_l, f_r, crit,
                                           f_c).tobytes()


@pytest.mark.parametrize("model", [
    GSH, CustomVelocityModel(lambda rho, u: u * (1.0 - rho))],
    ids=["builtin", "custom"])
@pytest.mark.parametrize("bad", ["rho_above_one", "u_negative", "rho_nan",
                                 "u_nan"])
def test_max_speed_is_the_step_range_check(model, bad):
    # NaN too: the power-law speed reads only u, so a NaN density would
    # otherwise step on with a finite dt
    rho = np.full(12, 0.5)
    u = np.ones(12)
    if bad == "rho_above_one":
        rho[5] = 1.0 + 1e-6
    elif bad == "u_negative":
        u[7] = -1e-6
    elif bad == "rho_nan":
        rho[5] = np.nan
    else:
        u[7] = np.nan
    with pytest.raises(InputRangeError):
        max_speed(rho, u, model)


@pytest.mark.parametrize("model", [
    GSH, CustomVelocityModel(lambda rho, u: u * (1.0 - rho))],
    ids=["builtin", "custom"])
@pytest.mark.parametrize("n_rho, n_u, error", [
    (2, 3, GridMismatchError), (3, 2, GridMismatchError),
    (0, 1, GridMismatchError), (0, 0, InputRangeError)],
    ids=["short_rho", "short_u", "empty_rho", "empty"])
def test_max_speed_rejects_a_pair_not_on_the_same_cells(model, n_rho, n_u,
                                                        error):
    # the power-law speed reads only u: 2 cells of rho against 3 of u gave
    # 1.0, a custom closure raised numpy's broadcast error, and an empty
    # pair numpy's zero-size reduction error
    with pytest.raises(error, match="max_speed"):
        max_speed(np.full(n_rho, 0.5), np.ones(n_u), model)
