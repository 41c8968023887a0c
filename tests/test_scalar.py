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
    InputRangeError,
    PowerLawModel,
    SlabConfig,
    godunov_flux,
    max_speed,
    total_variation,
)
from garzfv.scalar import (density_step_arrays, entropy_residual_arrays,
                           entropy_residual_maxima)

GSH = GreenshieldsModel()


def _cfl_step(rho, u, h, cfl=0.5):
    """One density step at dt = cfl h / max_speed, as the march takes it;
    returns (rho_new, interface fluxes, dt)."""
    speed = max_speed(rho, u, GSH)
    dt = cfl * h / speed
    rho_new, flux = density_step_arrays(rho, u, h, dt, GSH, speed)
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
    density_step_arrays(rho, u, g.h, g.h / speed, GSH, speed)
    with pytest.raises(CflViolationError):
        density_step_arrays(rho, u, g.h, 1.01 * g.h / speed, GSH, speed)


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
    rho_new, _ = density_step_arrays(rho, u, h, dt, model, speed)
    reset = np.array(data.draw(st.lists(st.booleans(), min_size=n,
                                        max_size=n)))
    ties = np.array(data.draw(st.lists(st.sampled_from(tie_values),
                                       min_size=n, max_size=n)))
    if data.draw(st.booleans()):
        rho_new = np.where(reset, ties, rho_new)
    return rho, rho_new, u, dt, h


def _assert_kernel_matches(rho, rho_new, u, dt, h, model):
    got = entropy_residual_maxima(rho, rho_new, u, AUDIT_LEVELS, dt, h, model)
    ref = np.array([entropy_residual_arrays(rho, rho_new, u, float(k), dt, h,
                                            model).max()
                    for k in AUDIT_LEVELS])
    assert got.tobytes() == ref.tobytes()


@settings(max_examples=150, deadline=None)
@given(data=st.data(), gamma=st.sampled_from([1.0, 2.0, 3.0]),
       n=st.integers(1, 40))
def test_multilevel_kernel_matches_per_level_residual(data, gamma, n):
    model = PowerLawModel(gamma)
    ties = list(AUDIT_LEVELS) + [1.0 / (1.0 + gamma)]
    _assert_kernel_matches(*_kernel_case(data, model, n, ties), model)


@settings(max_examples=15, deadline=None)
@given(data=st.data(), n=st.integers(1, 16))
def test_multilevel_kernel_matches_per_level_residual_for_custom_closure(
        data, n):
    model = CustomVelocityModel(lambda rho, u: u * (1.0 - rho) ** 2)
    _assert_kernel_matches(*_kernel_case(data, model, n, list(AUDIT_LEVELS)),
                           model)


def test_multilevel_kernel_rejects_levels_outside_unit_interval():
    rho = np.full(8, 0.5)
    with pytest.raises(InputRangeError):
        entropy_residual_maxima(rho, rho, np.ones(8), [0.5, 1.5], 0.01, 0.1,
                                GSH)
