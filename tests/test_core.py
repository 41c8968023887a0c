"""Grids, fields, piecewise data, norms, and state assembly."""
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import garzfv
from garzfv import (
    CellField,
    Grid,
    GridMismatchError,
    InitialData,
    InvalidDataError,
    Piece,
    build_initial_state,
    c0_distance,
    cell_averages,
    check_margins,
    l1_distance,
    l1_norm,
    total_variation,
)
from garzfv.core import ratio_or, state_from_arrays


def piecewise_eval(pieces, x: np.ndarray) -> np.ndarray:
    """Pointwise value of the profile (0 outside all pieces): the reference
    for cell_averages."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    for p in pieces:
        inside = (x >= p.x_left) & (x <= p.x_right)
        frac = (x - p.x_left) / (p.x_right - p.x_left)
        out = np.where(inside, p.v_left + (p.v_right - p.v_left) * frac, out)
    return out


def field(values, grid):
    return CellField(np.asarray(values, dtype=float), grid)


def test_grid_geometry():
    g = Grid(-4.0, 4.0, 16)
    assert g.h == pytest.approx(0.5)
    assert g.edges()[0] == -4.0 and g.edges()[-1] == 4.0
    assert len(g.edges()) == 17 and len(g.centers()) == 16
    assert np.allclose(g.centers(), g.edges()[:-1] + 0.5 * g.h)


def test_grid_rejects_bad_extents():
    with pytest.raises(Exception):
        Grid(1.0, -1.0, 10)
    with pytest.raises(Exception):
        Grid(0.0, 1.0, 0)


def test_cell_averages_against_quadrature():
    # independent reference: dense midpoint quadrature of the profile
    rng = np.random.default_rng(3)
    for _ in range(20):
        xs = np.sort(rng.uniform(-3.2, 3.2, size=4))
        pieces = (Piece(xs[0], xs[1], *rng.uniform(0.1, 0.9, 2)),
                  Piece(xs[2], xs[3], *rng.uniform(0.1, 0.9, 2)))
        g = Grid(-4.0, 4.0, int(rng.integers(20, 200)))
        sub = 1000
        xq = (g.edges()[:-1, None]
              + (np.arange(sub)[None, :] + 0.5) * (g.h / sub))
        ref = piecewise_eval(pieces, xq).mean(axis=1)
        got = cell_averages(pieces, g)
        # a piece edge inside a cell misassigns at most one subsample
        assert np.abs(got - ref).max() < 2.0 / sub


def test_cell_averages_exact_on_aligned_constant():
    # fully covered cells take the piece value with no arithmetic noise
    g = Grid(-4.0, 4.0, 2048)
    avg = cell_averages((Piece(-4.0, 0.0, 0.3, 0.3), Piece(0.0, 4.0, 0.8, 0.8)), g)
    assert np.ptp(avg[: g.n_cells // 2]) == 0.0
    assert np.ptp(avg[g.n_cells // 2:]) == 0.0
    assert avg[0] == 0.3 and avg[-1] == 0.8


def test_cell_averages_mass_exact_on_ramp():
    g = Grid(-2.0, 2.0, 123)
    p = Piece(-1.37, 0.61, 0.2, 0.9)
    mass = g.h * cell_averages((p,), g).sum()
    assert mass == pytest.approx(0.5 * (0.2 + 0.9) * (0.61 + 1.37), abs=1e-13)


def test_total_variation_examples():
    g = Grid(0.0, 1.0, 10)
    assert total_variation(field(np.full(10, 0.7), g)) == 0.0
    step = np.where((np.arange(10) >= 3) & (np.arange(10) < 7), 0.8, 0.2)
    assert total_variation(field(step, g)) == pytest.approx(1.2, abs=1e-15)
    for n in (8, 50, 333):
        gg = Grid(0.0, 1.0, n)
        ramp = np.linspace(0.0, 1.0, n)
        assert total_variation(field(ramp, gg)) == pytest.approx(1.0, abs=1e-12)


def test_distances_examples():
    g = Grid(0.0, 1.0, 20)
    f = field(np.linspace(0, 1, 20), g)
    assert l1_distance(f, f) == 0.0
    assert c0_distance(f, f) == 0.0
    shifted = field(f.values + 0.3, g)
    assert l1_distance(f, shifted) == pytest.approx(20 * g.h * 0.3, abs=1e-13)
    assert c0_distance(f, shifted) == pytest.approx(0.3, abs=1e-15)


def test_l1_distance_disjoint_bumps():
    g = Grid(0.0, 4.0, 40)
    x = g.centers()
    a = field(np.where((x > 0) & (x < 1), 1.0, 0.0), g)
    b = field(np.where((x > 2) & (x < 3), 1.0, 0.0), g)
    assert l1_distance(a, b) == pytest.approx(2.0, abs=1e-12)
    assert l1_norm(a) == pytest.approx(1.0, abs=1e-12)


def test_distance_requires_shared_grid():
    a = field(np.zeros(10), Grid(0.0, 1.0, 10))
    b = field(np.zeros(20), Grid(0.0, 1.0, 20))
    with pytest.raises(GridMismatchError):
        l1_distance(a, b)


@pytest.mark.parametrize("values", [
    ["a"] * 4, [1j] * 4, [object()] * 4, ["1"] * 4, np.array(["1"] * 4),
    np.array([1.0, "1", 2.0, 3.0], dtype=object), [1.0, 2.0, "3", 4.0]],
    ids=["str", "complex", "object", "numeric str", "numeric str array",
         "numeric str in objects", "numeric str among floats"])
def test_cell_field_rejects_values_that_are_not_real_numbers(values):
    with pytest.raises(InvalidDataError, match="must be real numbers"):
        CellField(values, Grid(0.0, 1.0, 4))


@pytest.mark.parametrize("values", [
    [True, False, True, True], [1, 2, 3, 4], np.arange(4, dtype=np.int32),
    np.array([0.5, 1, True, np.float32(2.0)], dtype=object),
    np.linspace(0.0, 1.0, 4, dtype=np.float32)],
    ids=["bools", "ints", "int32 array", "real objects", "float32 array"])
def test_cell_field_takes_real_numbers_of_any_kind(values):
    f = CellField(values, Grid(0.0, 1.0, 4))
    assert f.values.dtype == np.float64
    assert f.values.tolist() == [float(x) for x in np.asarray(values)]


def test_build_initial_state_prefix_sums_by_hand():
    # rho = 0.5 on [-1,1], psi = 0, z_inf = 1:  z stays 1, u climbs
    # from 1 to 2 across the support (integral of rho * z = 0.5 * 2 * 1)
    g = Grid(-3.0, 3.0, 120)
    data = InitialData(rho_pieces=(Piece(-1.0, 1.0, 0.5, 0.5),),
                       psi_pieces=(), z_inf=1.0, u_inf=1.0)
    st0 = build_initial_state(data, g)
    assert np.all(st0.z.values == pytest.approx(1.0, abs=1e-14))
    assert st0.u.values[0] == pytest.approx(1.0, abs=1e-14)
    assert st0.u.values[-1] == pytest.approx(2.0, abs=1e-12)
    x = g.centers()
    inside = np.abs(x) < 0.9
    expect = 1.0 + np.clip(x + 1.0, 0.0, 2.0) * 0.5
    # cell value is the prefix sum at the right edge, half a cell ahead
    assert np.abs(st0.u.values[inside]
                  - (expect[inside] + 0.25 * g.h)).max() < 1e-12


def test_build_initial_state_trivial_cases():
    g = Grid(-2.0, 2.0, 64)
    flat = build_initial_state(
        InitialData((Piece(-2.0, 2.0, 0.4, 0.4),), (), z_inf=0.0, u_inf=1.0), g)
    assert np.all(flat.z.values == 0.0)
    assert np.all(flat.u.values == pytest.approx(1.0, abs=1e-13))

    empty = build_initial_state(InitialData((), (), z_inf=0.25, u_inf=1.5), g)
    assert np.all(empty.rho.values == 0.0)
    assert np.all(empty.v.values == 0.0) and np.all(empty.w.values == 0.0)
    assert np.all(empty.u.values == 1.5) and np.all(empty.z.values == 0.25)


def test_build_initial_state_rejects_out_of_range_density():
    g = Grid(-2.0, 2.0, 32)
    with pytest.raises(InvalidDataError):
        build_initial_state(InitialData((Piece(-1.0, 1.0, 1.2, 1.2),), ()), g)


def test_check_margins_accepts_and_rejects():
    g = Grid(-6.0, 6.0, 192)
    good = build_initial_state(
        InitialData((Piece(-1.0, 1.0, 0.5, 0.5),), (), u_inf=1.0), g)
    check_margins(good, t_final=1.0, wave_bound=1.0)

    # support extends into the right margin window: must be rejected
    bad = build_initial_state(
        InitialData((Piece(-1.0, 5.9, 0.5, 0.5),), (), u_inf=1.0), g)
    with pytest.raises(InvalidDataError):
        check_margins(bad, t_final=1.0, wave_bound=1.0)


def test_state_from_arrays_reconstructs_prefixes():
    g = Grid(0.0, 1.0, 50)
    rng = np.random.default_rng(11)
    rho = rng.uniform(0.05, 0.95, 50)
    w = rho * rng.uniform(-0.4, 0.4, 50)
    v = rho * rng.uniform(-0.3, 0.3, 50)
    st0 = state_from_arrays(0.0, rho, v, w, z_inf=0.1, u_inf=1.0, grid=g)
    assert np.allclose(st0.z.values, 0.1 + g.h * np.cumsum(w), atol=1e-15)
    assert np.allclose(st0.u.values, 1.0 + g.h * np.cumsum(v), atol=1e-15)
    assert np.allclose(st0.psi.values, w / rho, atol=1e-14)


def test_state_derives_u_z_psi_bit_for_bit():
    # a state stores rho, v and w; u, z and psi are derived on first read
    # by these three expressions, in this operation order, and then kept
    g = Grid(0.0, 1.0, 50)
    rng = np.random.default_rng(12)
    rho = rng.uniform(0.0, 0.95, 50)
    rho[[3, 17]] = 0.0, 1e-13  # vacuum cells: psi is 0 there
    w = rho * rng.uniform(-0.4, 0.4, 50)
    v = rho * rng.uniform(-0.3, 0.3, 50)
    st0 = state_from_arrays(0.0, rho, v, w, z_inf=0.1, u_inf=1.0, grid=g)
    stored = [f.name for f in dataclasses.fields(st0)]
    assert stored == ["t", "rho", "v", "w", "z_inf", "u_inf"]
    assert st0.__dict__.keys().isdisjoint({"u", "z", "psi"})
    for got, want in ((st0.u, 1.0 + g.h * np.cumsum(v)),
                      (st0.z, 0.1 + g.h * np.cumsum(w)),
                      (st0.psi, ratio_or(w, rho))):
        assert got.values.tobytes() == want.tobytes()
        assert got.grid == g
    assert st0.u is st0.u and st0.z is st0.z and st0.psi is st0.psi


def test_ratio_or_floors_vacuum():
    q = np.array([0.2, 0.0, 1e-20])
    rho = np.array([0.4, 0.0, 1e-15])
    out = ratio_or(q, rho)
    assert out[0] == pytest.approx(0.5)
    assert out[1] == 0.0 and out[2] == 0.0
    assert not np.signbit(out[1:]).any()


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 60), st.floats(0.05, 0.95), st.floats(-0.5, 0.5))
def test_tv_of_single_step_is_jump(n, lo, jump):
    hi = min(max(lo + jump, 0.0), 1.0)
    g = Grid(0.0, 1.0, 2 * n)
    vals = np.concatenate([np.full(n, lo), np.full(n, hi)])
    assert total_variation(field(vals, g)) == pytest.approx(abs(hi - lo),
                                                            abs=1e-12)


def test_support_bounds_reported():
    data = InitialData((Piece(-1.0, 0.0, 0.5, 0.5), Piece(0.5, 2.0, 0.1, 0.1)),
                       ())
    lo, hi = data.support()
    assert lo == -1.0 and hi == 2.0


def test_recommended_domain_covers_wave_cone():
    data = InitialData((Piece(-1.0, 1.0, 0.5, 0.5),), ())
    lo, hi = garzfv.recommended_domain(data, t_final=2.0, wave_bound=1.5)
    assert lo <= -1.0 - 3.0 - 1.0 + 1e-12
    assert hi >= 1.0 + 3.0 + 1.0 - 1e-12
