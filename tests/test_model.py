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
    VelocityModel,
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


def _eigenvalues(m, rho, u):
    """(lambda1, lambda2) = (V + rho dV/drho, V)."""
    v = m.velocity(rho, u)
    return v + rho * m.d_rho(rho, u), v


def test_greenshields_eigenvalues():
    m = GreenshieldsModel()
    lam1, lam2 = _eigenvalues(m, 0.5, 1.0)
    # lambda1 = u(1 - 2 rho), lambda2 = u(1 - rho)
    assert lam1 == pytest.approx(0.0, abs=1e-15)
    assert lam2 == pytest.approx(0.5, abs=1e-15)
    lam1, lam2 = _eigenvalues(m, RHO, 0.0)
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
    for gamma in (2.0, 2.5, 3.0):
        assert validate_model(PowerLawModel(gamma), u_max=1.0).passed


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
    lambda rho, u: u * (1.0 - rho) ** 2.5,
    lambda rho, u: u * (1.0 - rho) ** 3,
], ids=["gamma1", "gamma2", "gamma2_5", "gamma3"])
def test_unimodal_custom_closures_validate(velocity):
    # finite-difference slopes must not trip the unimodality check
    assert validate_model(CustomVelocityModel(velocity), u_max=1.5).passed


def _steep(velocity):
    return CustomVelocityModel(velocity, name="steep")


@pytest.mark.parametrize("model, edge", [
    (_steep(lambda rho, u: u * np.sqrt(1.0 - rho)), "rho = 1"),
    (_steep(lambda rho, u: u * (1.0 - rho) * (1.0 - np.sqrt(rho))), "rho = 0"),
    (_steep(lambda rho, u: np.sqrt(u) * (1.0 - rho)), "u = 0"),
    (PowerLawModel(1.5), "rho = 1"),
    (_steep(lambda rho, u: u * (1.0 - rho) ** 1.5), "rho = 1"),
], ids=["sqrt_jam", "sqrt_vacuum", "sqrt_marker", "power1.5_jam",
        "custom1.5_jam"])
def test_unbounded_edge_slope_fails_smooth_c2(model, edge):
    # the finite difference clamped at the box edge is finite for any
    # continuous closure (for u sqrt(1 - rho) it reads -1000 u at rho = 1),
    # so only its growth as the step shrinks shows the unbounded slope; the
    # second difference of u (1 - rho)^1.5 grows as step^-0.5 at rho = 1
    report = validate_model(model, u_max=1.5)
    assert [c.name for c in report.checks if not c.passed] == ["smooth_c2"]
    check = report.checks[0]
    assert check.worst_violation > 1.0
    assert f"at {edge} grows" in check.detail
    with pytest.raises(ModelValidationError, match=f"at {edge} grows"):
        require_valid_model(model, u_max=1.5)


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


@pytest.mark.parametrize("gamma", [1.0, 2.0, 2.5, 3.0])
def test_power_law_speed_hook_equals_eigenvalue_rule(gamma):
    m = PowerLawModel(gamma)
    rho = np.union1d(np.linspace(0.0, 1.0, 401), [1.0 / (1.0 + gamma)])
    u = np.linspace(0.0, 3.0, 121)
    # pairwise: |lambda1| and |lambda2| never exceed max_wave_speed = u
    r, w = np.meshgrid(rho, u, indexing="ij")
    lam1, lam2 = _eigenvalues(m, r, w)
    assert np.all(np.maximum(np.abs(lam1), np.abs(lam2)) <= w)
    # the base rule's sampled sup of |df/drho| is max |u| to the bit, on
    # the whole lattice and on every leading part of it
    for k in range(1, u.size + 1):
        assert VelocityModel.max_wave_speed(m, u[:k]) == u[:k].max()
    # the hook and the base rule agree on every marker row and overall
    for row in range(u.size):
        col = np.full(rho.size, u[row])
        assert m.state_speed(rho, col) == \
            VelocityModel.state_speed(m, rho, col)
    assert m.state_speed(r, w) == VelocityModel.state_speed(m, r, w)


@pytest.mark.parametrize("gamma", [1.0, 2.0, 3.0])
def test_speed_hook_on_tolerated_overshoot(gamma):
    # rho = -1e-9 passes the range check; there the eigenvalue rule reads
    # about 2 gamma 1e-9 above |u| and the hook reads |u|
    m = PowerLawModel(gamma)
    rho, u = np.array([-1e-9]), np.array([1.5])
    assert m.state_speed(rho, u) == 1.5
    base = VelocityModel.state_speed(m, rho, u)
    assert 1.5 < base <= 1.5 * (1.0 + 2.0 * gamma * 1e-9 * (1.0 + 1e-6))


@pytest.mark.parametrize("model", [
    PowerLawModel(1.0), PowerLawModel(2.0), PowerLawModel(2.5),
    PowerLawModel(3.0), GreenshieldsModel(),
    CustomVelocityModel(lambda rho, u: u * (1.0 - rho) ** 2, name="sq")],
    ids=["power1", "power2", "power2.5", "power3", "greenshields", "custom"])
def test_batched_d_u_equals_the_per_level_calls(model):
    # the entropy audit takes dV/du at all levels from this hook; it must
    # carry the bits of one d_u call per level, levels 0 and 1 included
    # (gamma 2.5 rounds (1 - k)**gamma differently as an array power)
    levels = np.linspace(0.0, 1.0, 11)
    u = np.concatenate((np.linspace(0.0, 2.0, 17), [-0.0, 1e-300]))
    per_level = np.stack([model.d_u(k, u) for k in levels])
    got = model.d_u_levels(levels, u)
    assert got.shape in (per_level.shape, (levels.size, 1))
    assert np.broadcast_to(got, per_level.shape).tobytes() \
        == per_level.tobytes()


def _gap(rho):
    return np.maximum(1.0 - np.asarray(rho, dtype=float), 0.0)


@pytest.mark.parametrize("gamma", [1.0, 2.0, 2.5, 3.0])
def test_power_law_step_constants_keep_the_per_step_bits(gamma):
    # PowerLawModel takes c = 1/(1+gamma) and (1 - c)^gamma once, and
    # skips the power for gamma = 1; the step hooks must return the bits of
    # the formulas they evaluated at every step before, at a jam cell, a
    # tolerated undershoot and vacuum among others
    m = PowerLawModel(gamma)
    cells = np.array([1.0, -1e-10, 0.0, 0.3, 1.0, 0.0, 0.75, -1e-10])
    u_if = np.array([1.0, 0.0, 1.5, 2.0, 0.25, 1.0, 0.5])
    g = _gap(cells) ** gamma
    f_l, f_r = m.side_fluxes(cells, u_if)
    assert f_l.tobytes() == (cells[:-1] * (u_if * g[:-1])).tobytes()
    assert f_r.tobytes() == (cells[1:] * (u_if * g[1:])).tobytes()
    crit = 1.0 / (1.0 + gamma)
    got_crit, f_c = m.critical_flux(u_if, cells[:-1], cells[1:])
    assert got_crit == crit
    assert f_c.tobytes() == (
        crit * (u_if * _gap(np.full(1, crit)) ** gamma)).tobytes()
    assert m.critical_density(u_if).tobytes() \
        == np.full(u_if.shape, crit).tobytes()
    # and f = rho V of the closure itself, jam, undershoot and vacuum alike
    assert f_l.tobytes() == (cells[:-1] * m.velocity(cells[:-1],
                                                     u_if)).tobytes()
    # the column of dV/du at the levels, one scalar power per level
    levels = np.union1d(np.linspace(0.0, 1.0, 101), [crit])
    assert m.d_u_levels(levels, u_if).ravel().tobytes() == np.array(
        [m.d_u(k, 1.0) for k in levels.tolist()]).tobytes()


def test_custom_closure_bisects_once_per_distinct_marker_value(monkeypatch):
    # the interfaces that read the critical density (rl > rr) repeat four
    # marker values, 0.0 and -0.0 among them: two bit patterns that are
    # equal as numbers, bisected apart
    model = CustomVelocityModel(lambda rho, u: u * (1.0 - rho) ** 2)
    real = model.critical_density
    sizes = []

    def bisect(u):
        sizes.append(u.size)
        return real(u)

    monkeypatch.setattr(model, "critical_density", bisect)
    u_if = np.array([1.5, 1.5, 0.0, -0.0, 1.5, 0.7, 0.0, 0.7, 2.0])
    rl = np.array([0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1])
    rr = rl - 0.05
    rr[-1] = 0.3  # rl < rr: the last interface does not read it
    crit, f_c = model.critical_flux(u_if, rl, rr)
    assert sizes == [4]
    # the bits of bisecting every interface on its own
    ref = np.concatenate([real(u_if[i:i + 1]) for i in range(8)] + [[0.5]])
    assert crit.tobytes() == ref.tobytes()
    assert f_c.tobytes() == (ref * model.velocity(ref, u_if)).tobytes()
