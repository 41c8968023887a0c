"""Reference solutions: exact constant-marker Riemann solutions and the
follow-the-leader particle limit of the coupled system."""
import numpy as np
import pytest

from conftest import HumpModel
from garzfv import (
    CustomVelocityModel,
    GreenshieldsModel,
    Grid,
    InitialData,
    InputRangeError,
    InvalidDataError,
    Piece,
    PowerLawModel,
    follow_the_leader,
    lwr_riemann_exact,
    riemann_initial_data,
    scenario,
    validate_model,
)
from garzfv import oracle
from garzfv.oracle import _vehicles

GSH = GreenshieldsModel()
# closures whose frozen-marker flux is not concave: the power law with
# gamma > 1 and u (1 - rho)^2 (1 + rho) have an inflection in (0, 1)
NON_CONCAVE = {
    "power2": PowerLawModel(2.0),
    "power2.5": PowerLawModel(2.5),
    "power3": PowerLawModel(3.0),
    "custom": CustomVelocityModel(
        lambda rho, u: u * (1.0 - rho) ** 2 * (1.0 + rho)),
}
# one concave closure besides Greenshields and the non-concave ones
CLOSURES = {"hump": HumpModel(0.3), **NON_CONCAVE}


def _check_jumps(model, rho_left, rho_right, u, t, x, rho):
    """Every jump of a sampled profile moves at the Rankine-Hugoniot speed
    and meets Oleinik's chord condition; returns the number of jumps."""
    def f(r):
        r = np.asarray(r, dtype=float)
        return model.flux(r, np.full(r.shape, u))

    jumps = np.flatnonzero(np.abs(np.diff(rho)) > 1e-2)
    for j in jumps:
        # zoom in twice, to 1e-8 of the sampling step
        lo, hi, left, right = x[j], x[j + 1], rho[j], rho[j + 1]
        for _ in range(2):
            xs = np.linspace(lo, hi, 10001)
            rs = lwr_riemann_exact(rho_left, rho_right, u, model, t, xs)
            k = np.argmax(np.abs(np.diff(rs)))
            lo, hi, left, right = xs[k], xs[k + 1], rs[k], rs[k + 1]
        speed = (f(left) - f(right)) / (left - right)
        assert lo / t - 1e-12 <= speed <= hi / t + 1e-12
        # the flux lies on the chord's side that the jump's sign gives
        between = np.linspace(left, right, 1001)[1:-1]
        chord = f(left) + speed * (between - left)
        assert (np.sign(right - left) * (f(between) - chord)).min() > -1e-12
    return len(jumps)


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


def test_nan_position_is_a_range_error():
    # and so are positions that are not real numbers, "1" included
    for x, message in (([0.0, np.nan], "x must not be NaN"),
                       ("abc", "x must be real numbers, got dtype <U3"),
                       ("1", "x must be real numbers, got dtype <U1"),
                       (None, "x must be real numbers, got dtype object"),
                       ([0.0, None], "x must be real numbers"),
                       ([0.5j], "x must be real numbers")):
        for rl, rr in ((0.8, 0.2), (0.4, 0.4)):
            with pytest.raises(InputRangeError, match=message):
                lwr_riemann_exact(rl, rr, 1.0, GSH, 1.0, x)


def test_generic_concave_model_fan_inverts_derivative(hump_model):
    # the concave hump, then closures with an inflection, where a shock
    # from 0.9 meets the fan at the chord's point of tangency
    for name, model in {"hump": hump_model, **NON_CONCAVE}.items():
        assert validate_model(model, u_max=1.5).passed, name
        t, u = 1.0, 1.2
        x = np.linspace(-3, 3, 801)
        rho = lwr_riemann_exact(0.9, 0.1, u, model, t, x)

        def fprime(r):
            return model.velocity(r, u) + r * model.d_rho(r, u)

        xi = x / t
        fan = (rho < 0.9) & (rho > 0.1)
        assert fan.sum() > 100, name
        # the fan profile satisfies f'(rho(xi)) = xi to the bisection
        # tolerance; off it, both states keep their bits
        assert np.abs(fprime(rho[fan]) - xi[fan]).max() < 1e-9, name
        assert np.all((rho == 0.9) | (rho == 0.1) | fan), name
        assert rho[0] == 0.9 and rho[-1] == 0.1, name
        assert np.all(np.diff(rho) <= 1e-12), name
        jumps = _check_jumps(model, 0.9, 0.1, u, t, x, rho)
        assert jumps == (0 if name == "hump" else 1), name


def test_non_concave_flux_shock_meets_fan():
    # rho (1-rho)^2 has an inflection at 2/3.  Its chord from 0.8 touches
    # it at 0.6 with slope f'(0.6) = -0.32, and the fan from 0.6 to 0.2
    # inverts f'(rho) = 1 - 4 rho + 3 rho^2 = xi in closed form
    x = np.linspace(-1, 1, 2001)
    rho = lwr_riemann_exact(0.8, 0.2, 1.0, PowerLawModel(2.0), 1.0, x)
    fan = (x > -0.32 + 1e-9) & (x < 0.32 - 1e-9)
    assert np.abs(rho[fan] - (2.0 - np.sqrt(1.0 + 3.0 * x[fan])) / 3.0
                  ).max() < 1e-12
    assert np.all(rho[x < -0.32 - 1e-9] == 0.8)
    assert np.all(rho[x > 0.32 + 1e-9] == 0.2)
    edge = lwr_riemann_exact(0.8, 0.2, 1.0, PowerLawModel(2.0), 1.0,
                             [-0.32 - 1e-12, -0.32 + 1e-12])
    assert edge[0] == 0.8 and abs(edge[1] - 0.6) < 1e-9


def test_exact_solution_mass_bookkeeping():
    # windowed mass changes by (f(rho_l) - f(rho_r)) * t
    rl, rr, u, t = 0.3, 0.843, 1.0, 1.0
    x = np.linspace(-4, 4, 400001)
    rho_0 = np.where(x < 0, rl, rr)
    for name, model in {"greenshields": GSH, **CLOSURES}.items():
        rho_t = lwr_riemann_exact(rl, rr, u, model, t, x)
        gained = np.trapezoid(rho_t - rho_0, x)
        expect = (model.flux(rl, u) - model.flux(rr, u)) * t
        assert gained == pytest.approx(expect, abs=1e-4), name
        assert np.all(np.diff(rho_t) >= 0.0), name
        _check_jumps(model, rl, rr, u, t, x, rho_t)


def test_riemann_initial_data_shape():
    data = riemann_initial_data(0.2, 0.8, 1.3, -4.0, 4.0)
    assert len(data.rho_pieces) == 2
    assert data.rho_pieces[0].v_left == 0.2
    assert data.rho_pieces[1].v_right == 0.8
    assert data.u_inf == 1.3 and data.z_inf == 0.0
    assert data.psi_pieces == ()


@pytest.mark.parametrize("name", ["smoke", "vacuum"])
def test_particles_keep_mass_order_and_unit_interval(name):
    # the cumulative mass runs from 0 to N ell = ||rho0||_L1 across the
    # vehicles, and a gap never holds more than its length: ell <= gap
    sc = scenario(name)
    h = sc.grid.h
    mass = sum(0.5 * (p.v_left + p.v_right) * (p.x_right - p.x_left)
               for p in sc.data.rho_pieces)
    for t in (0.0, 1.0):
        rho = follow_the_leader(sc.data, GSH, t, sc.grid.centers())
        assert h * rho.sum() == pytest.approx(mass, abs=1e-12)
        assert rho.min() >= 0.0 and rho.max() <= 1.0 + 1e-12
        x, ell = _vehicles(sc.data, GSH, t)
        assert np.diff(x).min() >= ell * (1.0 - 1e-9)


def test_particles_match_the_exact_block_until_its_waves_meet():
    # plateau 0.6 on [-1, 1], u = 1: the shock at -1 + 0.4 t meets the fan
    # head at 1 - 0.2 t only at t = 10/3, so t = 3 is just before.  Exact
    # cell averages from 64 samples per cell; the particles' own error
    # stays below 10 vehicle masses, a fifth of the solver's smallest gap
    # in criterion 5(c)
    data = InitialData(rho_pieces=(Piece.const(-1.0, 1.0, 0.6),), u_inf=1.0)
    g = Grid(-3.0, 3.0, 240)
    t, ell = 3.0, 1.2 / oracle.VEHICLES
    xs = (g.edges()[:-1, None] + (np.arange(64) + 0.5) / 64 * g.h)
    exact = np.where(xs < 0.1 * t,
                     lwr_riemann_exact(0.0, 0.6, 1.0, GSH, t, xs + 1.0),
                     lwr_riemann_exact(0.6, 0.0, 1.0, GSH, t, xs - 1.0))
    got = follow_the_leader(data, GSH, t, g.centers())
    assert g.h * np.abs(got - exact.mean(axis=1)).sum() < 10.0 * ell


def test_particles_leave_still_and_empty_data_at_rest():
    # u = 0 moves no vehicle, and a datum without mass has no vehicles
    g = Grid(-3.0, 3.0, 60)
    block = InitialData(rho_pieces=(Piece.const(-1.0, 1.0, 0.6),))
    at_rest = follow_the_leader(block, GSH, 2.0, g.centers())
    assert np.abs(at_rest - np.where(np.abs(g.centers()) < 1.0, 0.6, 0.0)
                  ).max() < 1e-12
    assert np.all(follow_the_leader(InitialData(()), GSH, 1.0,
                                    g.centers()) == 0.0)


@pytest.mark.parametrize("name", ["shock", "rarefaction", "constant"])
def test_particles_reject_a_far_field_density(name):
    sc = scenario(name)
    with pytest.raises(InvalidDataError, match="vanishes on the first"):
        follow_the_leader(sc.data, GSH, 1.0, sc.grid.centers())


@pytest.mark.parametrize("x", [[0.0], [0.0, 1.0, 3.0], [1.0, 0.0],
                               [0.0, np.nan], "abc"])
def test_particles_need_the_centres_of_a_uniform_grid(x):
    with pytest.raises(InputRangeError, match="positions x must"):
        follow_the_leader(scenario("smoke").data, GSH, 1.0, x)
