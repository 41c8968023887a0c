"""Velocity closures: values, derivatives, box validation."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from garzfv import (
    CustomVelocityModel,
    GreenshieldsModel,
    Grid,
    InputRangeError,
    ModelValidationError,
    PowerLawModel,
    make_model,
    require_valid_model,
    scenario,
    solve_global,
    validate_model,
)

RHO = np.linspace(0.0, 1.0, 41)
U = np.linspace(0.0, 2.0, 41)

# meets the paper's four conditions, yet f = rho V has two crests
BIMODAL = CustomVelocityModel(
    lambda rho, u: u * (1.0 - rho)
    * (1.0 + 3.0 / (1.0 + np.exp((rho - 0.15) / 0.01))), name="bimodal")


def _solve_smoke_96(model):
    sc = scenario("smoke")
    return solve_global(sc.data, Grid(-6.0, 6.0, 96), sc.t_final, model)


def test_greenshields_flux_values():
    m = GreenshieldsModel()
    assert m.flux(0.0, 1.0) == 0.0
    assert m.flux(1.0, 1.0) == 0.0
    # u rho (1 - rho) at the crest
    assert m.flux(0.5, 1.0) == pytest.approx(0.25, abs=1e-15)
    assert m.flux(0.25, 2.0) == pytest.approx(2 * 0.25 * 0.75, abs=1e-15)


def test_greenshields_eigenvalues():
    m = GreenshieldsModel()
    lam1, lam2 = m.eigenvalues(0.5, 1.0)
    # lambda1 = u(1 - 2 rho), lambda2 = u(1 - rho)
    assert lam1 == pytest.approx(0.0, abs=1e-15)
    assert lam2 == pytest.approx(0.5, abs=1e-15)
    lam1, lam2 = m.eigenvalues(RHO, 0.0)
    assert np.all(lam1 == 0.0) and np.all(lam2 == 0.0)


def test_zero_velocity_at_jam_for_all_markers():
    for m in (GreenshieldsModel(), PowerLawModel(2.0), PowerLawModel(3.0)):
        assert np.all(np.abs(m.velocity(1.0, U)) <= 1e-15)


@pytest.mark.parametrize("model", [GreenshieldsModel(), PowerLawModel(2.0),
                                   PowerLawModel(1.5)])
def test_derivatives_match_finite_differences(model):
    rho = np.linspace(0.02, 0.98, 25)[:, None]
    u = np.linspace(0.05, 1.95, 25)[None, :]
    eps = 1e-6
    fd_rho = (model.velocity(rho + eps, u) - model.velocity(rho - eps, u)) / (2 * eps)
    fd_u = (model.velocity(rho, u + eps) - model.velocity(rho, u - eps)) / (2 * eps)
    fd_ur = (model.d_u(rho + eps, u) - model.d_u(rho - eps, u)) / (2 * eps)
    fd_uu = (model.d_u(rho, u + eps) - model.d_u(rho, u - eps)) / (2 * eps)
    assert np.abs(model.d_rho(rho, u) - fd_rho).max() < 1e-8
    assert np.abs(model.d_u(rho, u) - fd_u).max() < 1e-8
    assert np.abs(model.d_u_rho(rho, u) - fd_ur).max() < 1e-8
    assert np.abs(model.d_uu(rho, u) - fd_uu).max() < 1e-8


def test_power_law_critical_density():
    # argmax of rho (1-rho)^g is 1/(1+g)
    for gamma in (1.0, 2.0, 3.5):
        m = PowerLawModel(gamma)
        crit = m.critical_density(1.0)
        assert crit == pytest.approx(1.0 / (1.0 + gamma), abs=1e-15)
        f = m.flux(RHO[1:-1], 1.0)
        assert m.flux(crit, 1.0) >= f.max() - 1e-12


def test_builtin_models_validate():
    assert validate_model(GreenshieldsModel(), u_max=2.0, n_samples=101).passed
    assert validate_model(PowerLawModel(2.0), u_max=1.0, n_samples=101).passed


def test_increasing_velocity_in_rho_fails_validation():
    bad = CustomVelocityModel(lambda rho, u: u * (1.0 + rho), name="bad")
    report = validate_model(bad, u_max=1.0)
    failed = {c.name for c in report.checks if not c.passed}
    assert not report.passed
    # the sign condition on d/drho and the jam condition both break
    assert any("rho" in name for name in failed)
    assert any("jam" in name or "zero" in name for name in failed)
    with pytest.raises(ModelValidationError):
        require_valid_model(bad, u_max=1.0)


def test_custom_model_with_callable_derivatives_validates(hump_model):
    assert validate_model(hump_model, u_max=1.5).passed


@pytest.mark.parametrize("velocity", [
    lambda rho, u: u * (1.0 - rho),
    lambda rho, u: u * (1.0 - rho) ** 2,
    lambda rho, u: u * (1.0 - rho) ** 3,
    lambda rho, u: u * np.sqrt(1.0 - rho),
], ids=["gamma1", "gamma2", "gamma3", "sqrt"])
def test_unimodal_custom_closures_validate(velocity):
    # finite-difference slopes must not trip the unimodality check
    assert validate_model(CustomVelocityModel(velocity), u_max=1.5).passed


def test_bimodal_flux_fails_only_the_unimodal_check():
    report = validate_model(BIMODAL, u_max=1.5)
    assert [c.name for c in report.checks if not c.passed] == ["flux_unimodal"]
    with pytest.raises(ModelValidationError, match="flux_unimodal"):
        _solve_smoke_96(BIMODAL)


@pytest.mark.parametrize("velocity", [lambda rho, u: 1 / 0,
                                      lambda rho, u: np.ones(3)],
                         ids=["raises", "wrong_shape"])
def test_closure_failures_raise_model_validation_error(velocity):
    with pytest.raises(ModelValidationError, match="'broken'"):
        _solve_smoke_96(CustomVelocityModel(velocity, name="broken"))


def test_generic_critical_density_is_the_analytic_root(hump_model):
    a = hump_model.a
    # df/drho is proportional to 1 + 2(a-1) rho - 3a rho^2
    root = (2.0 * (a - 1.0) + np.sqrt(4.0 * (a - 1.0) ** 2 + 12.0 * a)) \
        / (6.0 * a)
    u = np.linspace(0.1, 2.0, 7)
    crit = hump_model.critical_density(u)
    assert crit.shape == u.shape
    assert np.abs(crit - root).max() < 1e-10


def test_custom_greenshields_matches_builtin_on_smoke():
    custom = _solve_smoke_96(CustomVelocityModel(lambda rho, u: u * (1.0 - rho)))
    builtin = _solve_smoke_96(GreenshieldsModel())
    assert [s.t for s in custom.states] == [s.t for s in builtin.states]
    for c, b in zip(custom.states, builtin.states):
        assert np.abs(c.rho.values - b.rho.values).max() <= 1e-12
        assert np.abs(c.u.values - b.u.values).max() <= 1e-12


def test_make_model_dispatch():
    assert isinstance(make_model("greenshields"), GreenshieldsModel)
    m = make_model("power", 2.5)
    assert isinstance(m, PowerLawModel) and m.gamma == 2.5
    with pytest.raises(InputRangeError):
        make_model("nope")
    # gamma is the power-law exponent; greenshields is gamma = 1 only
    assert isinstance(make_model("greenshields", 1.0), GreenshieldsModel)
    with pytest.raises(InputRangeError):
        make_model("greenshields", 2.0)


def test_max_wave_speed_dominates_sampled_derivative():
    for m in (GreenshieldsModel(), PowerLawModel(2.0)):
        for u in (0.3, 1.0, 1.7):
            dfd = m.velocity(RHO, u) + RHO * m.d_rho(RHO, u)
            assert m.max_wave_speed(u) >= np.abs(dfd).max() - 1e-12


@settings(max_examples=60, deadline=None)
@given(rho=st.floats(0.0, 1.0), u=st.floats(0.0, 2.0))
def test_greenshields_box_signs(rho, u):
    m = GreenshieldsModel()
    assert m.velocity(rho, u) >= 0.0
    assert m.d_rho(rho, u) <= 0.0
    assert m.d_u(rho, u) >= 0.0


def test_power_law_gamma_one_is_greenshields():
    p, gsh = PowerLawModel(1.0), GreenshieldsModel()
    r, u = np.meshgrid(RHO, U)
    assert np.abs(p.velocity(r, u) - gsh.velocity(r, u)).max() < 1e-15
    assert np.abs(p.d_rho(r, u) - gsh.d_rho(r, u)).max() < 1e-15


def test_sup_bounds_are_upper_bounds():
    for m in (GreenshieldsModel(), PowerLawModel(2.0)):
        b = m.sup_bounds(2.0)
        r = np.linspace(0, 1, 301)[:, None]
        u = np.linspace(0, 2, 301)[None, :]
        assert np.abs(m.velocity(r, u)).max() <= b.v_sup + 1e-12
        assert np.abs(m.d_u(r, u)).max() <= b.d_u_sup + 1e-12
        assert np.abs(m.d_u_rho(r, u)).max() <= b.d_u_rho_sup + 1e-12
        assert np.abs(m.d_uu(r, u)).max() <= b.d_uu_sup + 1e-12
