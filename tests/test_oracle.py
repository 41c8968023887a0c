"""Reference solutions: exact constant-marker Riemann and viscous solves."""
import numpy as np
import pytest

from garzfv import (
    GreenshieldsModel,
    Grid,
    InputRangeError,
    PowerLawModel,
    UnsupportedModelError,
    lwr_riemann_exact,
    riemann_initial_data,
    validate_model,
    viscous_solve,
)

GSH = GreenshieldsModel()


def test_stationary_shock_profile():
    x = np.linspace(-2, 2, 401)
    rho = lwr_riemann_exact(0.2, 0.8, 1.0, GSH, t=0.7, x=x)
    assert np.all(rho[x < -1e-9] == 0.2)
    assert np.all(rho[x > 1e-9] == 0.8)


def test_moving_shock_position():
    # s = u (1 - rho_l - rho_r)
    rl, rr, u, t = 0.1, 0.6, 1.5, 0.8
    s = u * (1.0 - rl - rr)
    x = np.linspace(-3, 3, 1201)
    rho = lwr_riemann_exact(rl, rr, u, GSH, t, x)
    assert np.all(rho[x < s * t - 1e-6] == rl)
    assert np.all(rho[x > s * t + 1e-6] == rr)


def test_rarefaction_fan_formula():
    # inverting d/drho [u rho (1-rho)] = u (1 - 2 rho) gives (1 - xi/u)/2
    t = 2.0
    x = np.linspace(-4, 4, 2001)
    rho = lwr_riemann_exact(0.8, 0.2, 1.0, GSH, t, x)
    xi = x / t
    fan = (np.abs(xi) < 0.6 - 1e-9)
    assert np.abs(rho[fan] - 0.5 * (1.0 - xi[fan])).max() < 1e-12
    assert np.all(rho[xi < -0.6 - 1e-9] == 0.8)
    assert np.all(rho[xi > 0.6 + 1e-9] == 0.2)


def test_equal_states_and_zero_time():
    x = np.linspace(-1, 1, 11)
    assert np.all(lwr_riemann_exact(0.4, 0.4, 1.0, GSH, 0.5, x) == 0.4)
    step = lwr_riemann_exact(0.7, 0.2, 1.0, GSH, 0.0, x)
    assert np.all(step[x < 0] == 0.7) and np.all(step[x > 0] == 0.2)


def test_generic_concave_model_fan_inverts_derivative(hump_model):
    model = hump_model
    assert validate_model(model, u_max=1.5).passed
    t, u = 1.0, 1.2
    x = np.linspace(-3, 3, 801)
    rho = lwr_riemann_exact(0.9, 0.1, u, model, t, x)

    def fprime(r):
        return model.velocity(r, u) + r * model.d_rho(r, u)

    xi = x / t
    fan = (xi > fprime(0.9) + 1e-6) & (xi < fprime(0.1) - 1e-6)
    # the fan profile satisfies f'(rho(xi)) = xi to the bisection tolerance
    assert np.abs(fprime(rho[fan]) - xi[fan]).max() < 1e-9
    assert np.all(np.diff(rho) <= 1e-12)


def test_non_concave_flux_rejected():
    # rho (1-rho)^2 has an inflection inside (0,1)
    with pytest.raises(UnsupportedModelError):
        lwr_riemann_exact(0.8, 0.2, 1.0, PowerLawModel(2.0), 1.0,
                          np.linspace(-1, 1, 5))


def test_exact_solution_mass_bookkeeping():
    # windowed mass changes by (f(rho_l) - f(rho_r)) * t
    rl, rr, u, t = 0.3, 0.843, 1.0, 1.0
    x = np.linspace(-4, 4, 400001)
    rho_t = lwr_riemann_exact(rl, rr, u, GSH, t, x)
    rho_0 = np.where(x < 0, rl, rr)
    gained = np.trapezoid(rho_t - rho_0, x)
    expect = (GSH.flux(rl, u) - GSH.flux(rr, u)) * t
    assert gained == pytest.approx(expect, abs=1e-4)


def test_riemann_initial_data_shape():
    data = riemann_initial_data(0.2, 0.8, 1.3, -4.0, 4.0)
    assert len(data.rho_pieces) == 2
    assert data.rho_pieces[0].v_left == 0.2
    assert data.rho_pieces[1].v_right == 0.8
    assert data.u_inf == 1.3 and data.z_inf == 0.0
    assert data.psi_pieces == ()


def test_viscous_constant_datum_stays_constant():
    g = Grid(-2.0, 2.0, 64)
    data = riemann_initial_data(0.5, 0.5, 1.0, -2.0, 2.0)
    states = viscous_solve(data, eps=4 * g.h, grid=g, t_final=0.5, model=GSH,
                           n_output=4)
    assert len(states) == 5
    for st in states:
        assert np.abs(st.rho.values - 0.5).max() < 1e-12
        assert np.abs(st.u.values - 1.0).max() < 1e-12


def test_viscous_shock_is_smoothed_monotone():
    g = Grid(-4.0, 4.0, 256)
    data = riemann_initial_data(0.2, 0.8, 1.0, -4.0, 4.0)
    states = viscous_solve(data, eps=4 * g.h, grid=g, t_final=1.0, model=GSH,
                           n_output=2)
    rho = states[-1].rho.values
    assert np.all(np.diff(rho) >= -1e-12)
    assert rho[0] == pytest.approx(0.2, abs=1e-6)
    assert rho[-1] == pytest.approx(0.8, abs=1e-6)
    # genuinely smoothed: largest jump well below the inviscid one
    assert np.abs(np.diff(rho)).max() < 0.2


def test_viscous_maximum_principles():
    sc_like = riemann_initial_data(0.7, 0.1, 1.0, -4.0, 4.0)
    g = Grid(-4.0, 4.0, 192)
    states = viscous_solve(sc_like, eps=4 * g.h, grid=g, t_final=1.0,
                           model=GSH, n_output=4)
    for st in states:
        assert st.rho.values.min() >= -1e-8
        assert st.rho.values.max() <= 1.0 + 1e-8
        assert st.u.values.max() <= 1.0 + 1e-8


def test_viscous_underresolved_eps_rejected():
    g = Grid(-2.0, 2.0, 64)
    data = riemann_initial_data(0.2, 0.8, 1.0, -2.0, 2.0)
    with pytest.raises(InputRangeError):
        viscous_solve(data, eps=0.25 * g.h, grid=g, t_final=0.1, model=GSH)


def test_viscous_approaches_exact_as_eps_shrinks():
    rl, rr, u = 0.2, 0.8, 1.0
    errs = []
    for n in (64, 128, 256):
        g = Grid(-4.0, 4.0, n)
        data = riemann_initial_data(rl, rr, u, -4.0, 4.0)
        states = viscous_solve(data, eps=4 * g.h, grid=g, t_final=1.0,
                               model=GSH, n_output=2)
        exact = lwr_riemann_exact(rl, rr, u, GSH, 1.0, g.centers())
        errs.append(g.h * np.abs(states[-1].rho.values - exact).sum())
    assert errs[2] < errs[1] < errs[0]
