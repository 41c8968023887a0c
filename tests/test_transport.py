"""Conserved-marker transport slaved to the density fluxes."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from garzfv import (
    CellField,
    GreenshieldsModel,
    Grid,
    c0_distance,
    l1_distance,
    max_speed,
)
from garzfv.core import ratio_or
from garzfv.scalar import density_step_arrays, pad2
from garzfv.transport import marker_step_arrays

GSH = GreenshieldsModel()


def _setup(rho, grid):
    """Density step at half the CFL limit under the constant marker u = 1;
    returns (rho_new, interface fluxes, dt)."""
    u = np.ones(rho.size)
    speed = max_speed(rho, u, GSH)
    dt = 0.5 * grid.h / speed
    rho_new, flux, _ = density_step_arrays(pad2(rho), pad2(u), grid.h, dt,
                                           GSH, speed)
    return rho_new, flux, dt


def _prefix(q, h, boundary):
    """Antiderivative at right cell edges, as the solver rebuilds u and z."""
    return boundary + h * np.cumsum(q)


def test_zero_marker_stays_zero():
    g = Grid(-2.0, 2.0, 80)
    rho = 0.5 * np.exp(-g.centers() ** 2)
    rho_new, flux, dt = _setup(rho, g)
    q_new = marker_step_arrays(pad2(np.zeros(80)), pad2(rho), flux, g.h, dt)
    assert np.all(q_new == 0.0)


def test_proportional_marker_tracks_density():
    # q = c rho gives donor ratio c everywhere, so q_new = c rho_new
    g = Grid(-2.0, 2.0, 80)
    x = g.centers()
    rho = np.where(np.abs(x) < 1.0, 0.6, 0.1)
    rho_new, flux, dt = _setup(rho, g)
    c = 0.42
    q_new = marker_step_arrays(pad2(c * rho), pad2(rho), flux, g.h, dt)
    assert np.abs(q_new - c * rho_new).max() < 1e-12


def test_marker_sum_conserved_on_compact_support():
    g = Grid(-4.0, 4.0, 160)
    x = g.centers()
    rho = np.where(np.abs(x) < 1.5, 0.5, 0.0)
    psi = np.where(x < 0.0, 0.4, -0.2)
    rho_new, flux, dt = _setup(rho, g)
    q = rho * psi
    q_new = marker_step_arrays(pad2(q), pad2(rho), flux, g.h, dt)
    assert q_new.sum() == pytest.approx(q.sum(), abs=1e-13)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 99_999), bound=st.floats(0.1, 3.0))
def test_ratio_maximum_principle(seed, bound):
    # |q| <= M rho is preserved by the donor update
    rng = np.random.default_rng(seed)
    g = Grid(0.0, 1.0, 60)
    rho = rng.uniform(0.0, 1.0, 60)
    rho[:2] = rho[-2:] = 0.0
    q = rho * rng.uniform(-bound, bound, 60)
    rho_new, flux, dt = _setup(rho, g)
    q_new = marker_step_arrays(pad2(q), pad2(rho), flux, g.h, dt)
    assert np.all(np.abs(q_new) <= bound * rho_new + 1e-12)


def test_extract_ratio_examples():
    g = Grid(0.0, 1.0, 30)
    x = g.centers()
    rho = np.where(x < 0.5, 0.5, 0.0)
    ratio = ratio_or(0.3 * rho, rho)
    assert np.abs(ratio[x < 0.5] - 0.3).max() < 1e-15
    assert np.all(ratio[x >= 0.5] == 0.0)

    vac = ratio_or(np.ones(30), np.zeros(30))
    assert np.all(vac == 0.0)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 99_999))
def test_extract_ratio_bound_transfer(seed):
    rng = np.random.default_rng(seed)
    rho = rng.uniform(0.0, 1.0, 40)
    q = rho * rng.uniform(-2.0, 2.0, 40)
    assert np.abs(ratio_or(q, rho)).max() <= 2.0 + 1e-12


def test_reconstruct_examples():
    g = Grid(0.0, 1.0, 10)
    assert np.all(_prefix(np.zeros(10), g.h, 0.7) == 0.7)
    spike = np.zeros(10)
    spike[4] = 1.0
    out = _prefix(spike, g.h, 0.0)
    assert np.all(out[:4] == 0.0)
    assert np.abs(out[4:] - 0.1).max() < 1e-15


def test_reconstruct_difference_round_trip():
    g = Grid(0.0, 2.0, 64)
    rng = np.random.default_rng(2)
    target = np.cumsum(rng.uniform(-0.1, 0.1, 64)) + 1.0
    q = np.diff(target, prepend=1.0) / g.h
    back = _prefix(q, g.h, 1.0)
    assert np.abs(back - target).max() < 1e-12


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 99_999), boundary=st.floats(-1.0, 1.0))
def test_reconstruct_is_l1_to_c0_contraction(seed, boundary):
    rng = np.random.default_rng(seed)
    g = Grid(0.0, 1.0, 48)
    a = rng.uniform(-1, 1, 48)
    b = rng.uniform(-1, 1, 48)
    lhs = c0_distance(CellField(_prefix(a, g.h, boundary), g),
                      CellField(_prefix(b, g.h, boundary), g))
    assert lhs <= l1_distance(CellField(a, g), CellField(b, g)) + 1e-14


def test_marker_routes_agree_where_flux_is_flat():
    # prefix of the transported w and direct v/rho division coincide when
    # the interface fluxes are all equal and no marker enters at the
    # boundary; on rough data the routes differ at O(h) instead
    g = Grid(-2.0, 2.0, 100)
    x = g.centers()
    rho = np.full(100, 0.55)
    rho_new, flux, dt = _setup(rho, g)
    assert np.ptp(flux) < 1e-15
    psi = np.where(np.abs(x) < 1.0, 0.3 * np.sin(2.5 * x) + 0.1, 0.0)
    psi[np.abs(x) >= 1.0] = 0.0
    w = rho * psi
    z = _prefix(w, g.h, 0.0)
    w_new = marker_step_arrays(pad2(w), pad2(rho), flux, g.h, dt)
    v_new = marker_step_arrays(pad2(rho * z), pad2(rho), flux, g.h, dt)
    z_prefix = _prefix(w_new, g.h, 0.0)
    z_direct = v_new / rho_new
    assert np.abs(z_prefix - z_direct).max() < 1e-10


def _two_sided_reference(q, rho, flux, h, dt):
    """The donor update written with q / rho taken on both sides of every
    interface, each side padded separately."""
    qe = np.pad(q, 2, mode="edge")
    re = np.pad(rho, 2, mode="edge")

    def ratio(qq, rr):
        return np.divide(qq, rr, out=np.zeros_like(qq), where=rr > 0.0)

    theta = np.where(flux >= 0.0, ratio(qe[1:-2], re[1:-2]),
                     ratio(qe[2:-1], re[2:-1]))
    g = flux * theta
    return q - (dt / h) * (g[1:] - g[:-1])


@settings(max_examples=150, deadline=None)
@given(data=st.data(), n=st.integers(1, 30))
def test_stacked_markers_equal_separate_and_two_sided_steps(data, n):
    # fluxes of both signs and exact zeros; markers q = rho * ratio, and
    # donors at rho = 0 carrying a nonzero q that the donor rule must ignore
    def floats(lo, hi, size, special):
        return np.array(data.draw(st.lists(
            st.one_of(st.sampled_from(special), st.floats(lo, hi)),
            min_size=size, max_size=size))) + 0.0

    rho = floats(0.0, 1.0, n, [0.0, 1.0])
    v, w = (np.where(rho > 0.0, rho * floats(-2.0, 2.0, n, [0.0]),
                     floats(-2.0, 2.0, n, [0.0])) for _ in range(2))
    flux = floats(-0.5, 0.5, n + 1, [0.0])
    h, dt = 0.05, data.draw(st.floats(1e-4, 0.05))
    both = marker_step_arrays(pad2(np.stack((v, w))), pad2(rho), flux, h, dt)
    for row, q in zip(both, (v, w)):
        alone = marker_step_arrays(pad2(q), pad2(rho), flux, h, dt)
        assert row.tobytes() == alone.tobytes()
        assert alone.tobytes() == \
            _two_sided_reference(q, rho, flux, h, dt).tobytes()
