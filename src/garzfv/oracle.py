"""Independent reference solutions for cross-checking the solver kit.

Two references live here, both deliberately built on different numerics than
the main solver:

* exact Riemann solutions of the frozen-marker density equation for every
  admissible closure, by Osher's formula;
* the follow-the-leader particle limit of the coupled system, for data
  whose density has compact support and whose marker u varies.
"""

from __future__ import annotations

import numpy as np

from .core import InitialData, Piece, require_real
from .errors import InputRangeError, InvalidDataError
from .model import VelocityModel

LATTICE = 1025      # samples of the flux between the two states
BISECTIONS = 60     # halvings of a bracket, to below rounding
TANGENT_PASSES = 3  # chord-tangent updates of each shock speed
VEHICLES = 2000     # N: the particle reference moves N + 1 vehicles


def _descend(slope, r, i, eta):
    """Local minimizer next to lattice point r[i] of a function whose
    derivative is slope(rho, eta): bisection between r[i] and the neighbour
    that slope descends to, or r[i] itself when it is 0 or points off the
    lattice, so the two states keep their bits."""
    k = np.clip(i - np.sign(slope(r[i], eta)).astype(int), 0, len(r) - 1)
    lo, hi = np.minimum(r[i], r[k]), np.maximum(r[i], r[k])
    out, move = lo.copy(), lo < hi
    lo, hi, eta = lo[move], hi[move], eta[move]
    for _ in range(BISECTIONS):
        mid = 0.5 * (lo + hi)
        rising = slope(mid, eta) > 0.0
        lo, hi = np.where(rising, lo, mid), np.where(rising, mid, hi)
    out[move] = 0.5 * (lo + hi)
    return out


def _positions(x) -> np.ndarray:
    """x as a float array of positions; InputRangeError unless they are
    real numbers and none is NaN."""
    x = np.atleast_1d(np.asarray(x))
    if x.dtype.kind not in "biuf":
        raise InputRangeError(
            f"positions x must be real numbers, got dtype {x.dtype}")
    x = x.astype(float, copy=False)
    if np.isnan(x).any():
        raise InputRangeError("positions x must not be NaN")
    return x


def lwr_riemann_exact(rho_left: float, rho_right: float, u_bar: float,
                      model: VelocityModel, t: float, x):
    """Exact entropy solution of the frozen-marker Riemann problem.

    The initial datum is rho_left for x < 0 and rho_right for x > 0, with
    the marker frozen at the constant u_bar.  Returns point values of rho at
    positions x and time t for any closure, by Osher's formula (SIAM J.
    Numer. Anal. 21 (1984) 217-235): with s = +1 when rho_left < rho_right
    and -1 otherwise, rho(x/t) minimizes s f(rho) - (x/t) rho between the
    two states, f = rho V(rho, u_bar).

    The lower convex hull of s f on LATTICE points picks the minimizing
    lattice point: its edges' slopes are the speeds at which the minimizer
    moves on.  An edge spanning several cells is a shock, whose slope
    TANGENT_PASSES chord updates move to the exact common tangent (each
    squares its error).  ``_descend`` then refines the minimizer off the
    lattice.  Nothing here assumes concavity or uses the solver's code.
    """
    rho_left = require_real("rho_left", rho_left, 0, 1)
    rho_right = require_real("rho_right", rho_right, 0, 1)
    u_bar = require_real("u_bar", u_bar, 0)
    t = require_real("t", t, 0)
    x = _positions(x)
    if t == 0.0 or rho_left == rho_right:
        return np.where(x < 0.0, rho_left, rho_right)
    s = 1.0 if rho_left < rho_right else -1.0

    def g(rho):
        return s * model.flux(rho, np.full_like(rho, u_bar))

    def slope(rho, eta):  # of g(rho) - eta rho
        u = np.full_like(rho, u_bar)
        return s * (model.velocity(rho, u) + rho * model.d_rho(rho, u)) - eta

    r = np.linspace(min(rho_left, rho_right), max(rho_left, rho_right),
                    LATTICE)
    rs, gs, hull = r.tolist(), g(r).tolist(), []
    for i in range(LATTICE):
        # drop the last vertex while it does not lie below the chord to i
        while len(hull) > 1 and (rs[hull[-1]] - rs[hull[-2]]) \
                * (gs[i] - gs[hull[-2]]) <= (gs[hull[-1]] - gs[hull[-2]]) \
                * (rs[i] - rs[hull[-2]]):
            hull.pop()
        hull.append(i)
    hull = np.array(hull)
    slopes = np.diff(g(r[hull])) / np.diff(r[hull])
    shock = np.flatnonzero(np.diff(hull) > 1)
    for _ in range(TANGENT_PASSES):
        a = _descend(slope, r, hull[shock], slopes[shock])
        b = _descend(slope, r, hull[shock + 1], slopes[shock])
        slopes[shock] = (g(b) - g(a)) / (b - a)
    # a point exactly on a shock takes the shock's larger state
    eta = s * x / t
    return _descend(slope, r, hull[np.searchsorted(slopes, eta, "right")],
                    eta)


def riemann_initial_data(rho_left: float, rho_right: float, u_bar: float,
                         x_min: float, x_max: float) -> InitialData:
    """Piecewise-constant datum of the frozen-marker Riemann problem.

    The marker profile is the constant u_bar, encoded as u_inf = u_bar with
    no density-weighted slope pieces.
    """
    x_min, x_max = require_real("x_min", x_min), require_real("x_max", x_max)
    if not x_min < 0.0 < x_max:
        raise InputRangeError("the jump sits at x = 0; need x_min < 0 < x_max")
    pieces = (Piece.const(x_min, 0.0, rho_left),
              Piece.const(0.0, x_max, rho_right))
    return InitialData(rho_pieces=pieces, psi_pieces=(), z_inf=0.0,
                       u_inf=u_bar)


def _pieces_at(pieces, x):
    """Value and exact primitive (from -inf) at x of the profile that is
    linear on each piece and 0 off them."""
    value, primitive = np.zeros(x.shape), np.zeros(x.shape)
    for p in pieces:
        slope = (p.v_right - p.v_left) / (p.x_right - p.x_left)
        s = np.clip(x, p.x_left, p.x_right) - p.x_left
        primitive += s * (p.v_left + 0.5 * slope * s)
        value += np.where((x >= p.x_left) & (x < p.x_right),
                          p.v_left + slope * s, 0.0)
    return value, primitive


def _vehicles(data: InitialData, model: VelocityModel, t: float):
    """Positions at time t of the VEHICLES + 1 vehicles, and the mass ell
    of each gap.  Vehicle i starts at the mass quantile i ell with the u_i
    that dz = psi dm and du = z dm give (psi at the gaps' mass midpoints),
    and moves at V(ell / gap, u_i), the leader at V(0, u_N), by RK4 steps
    of the smallest gap over the top speed."""
    lo, hi = data.support()
    ell = _pieces_at(data.rho_pieces, np.array([hi]))[1][0] / VEHICLES
    # quantiles k ell / 2 by bisection: vehicles at even k, gaps at odd k
    target = 0.5 * ell * np.arange(2 * VEHICLES + 1)
    a, b = np.full(target.shape, lo), np.full(target.shape, hi)
    for _ in range(BISECTIONS):
        mid = 0.5 * (a + b)
        above = _pieces_at(data.rho_pieces, mid)[1] >= target
        a, b = np.where(above, a, mid), np.where(above, mid, b)
    x = b[::2]
    z = data.z_inf + ell * np.cumsum(
        np.append(0.0, _pieces_at(data.psi_pieces, b[1::2])[0]))
    u = data.u_inf + ell * np.cumsum(np.append(0.0, 0.5 * (z[1:] + z[:-1])))

    def speed(x):  # a closure need not be defined above rho = 1
        rho = np.append(np.minimum(ell / np.diff(x), 1.0), 0.0)
        return model.velocity(rho, u)

    top = float(np.max(model.velocity(np.zeros(u.shape), u)))
    s = 0.0
    while s < t and top > 0.0:
        dt = min(float(np.diff(x).min()) / top, t - s)
        k1 = speed(x)
        k2 = speed(x + 0.5 * dt * k1)
        k3 = speed(x + 0.5 * dt * k2)
        k4 = speed(x + dt * k3)
        x = x + dt / 6.0 * (k1 + 2.0 * (k2 + k3) + k4)
        s += dt
    return x, ell


def follow_the_leader(data: InitialData, model: VelocityModel, t: float, x):
    """Cell averages at time t of the follow-the-leader particle limit, x
    the centres of a uniform grid as ``convergence_study`` passes them.

    u is constant along vehicle paths, so VEHICLES vehicles, each with its
    own u, follow the coupled system: Aw, Klar, Materne and Rascle (SIAM
    J. Appl. Math. 63 (2002) 259-278) derive ARZ from this limit, and Di
    Francesco and Rosini (Arch. Ration. Mech. Anal. 217 (2015) 831-871)
    prove it for LWR.  Averages come from the vehicles' piecewise-linear
    cumulative mass; only ``model.velocity`` is called.  InvalidDataError
    unless rho0 vanishes on the first and the last cell.
    """
    t = require_real("t", t, 0)
    x = _positions(x)
    h = (x[-1] - x[0]) / (len(x) - 1) if len(x) > 1 else 0.0
    if not h > 0.0 or np.ptp(np.diff(x)) > 1e-9 * h:
        raise InputRangeError(
            "positions x must be the increasing centres of a uniform grid")
    edges = np.append(x - 0.5 * h, x[-1] + 0.5 * h)
    mass = _pieces_at(data.rho_pieces,
                      np.array([edges[1], edges[-2], data.support()[1]]))[1]
    if mass[0] > 0.0 or mass[1] < mass[2]:
        raise InvalidDataError(
            "the particle reference needs a density that vanishes on the "
            "first and the last cell")
    if mass[2] == 0.0:
        return np.zeros(len(x))
    vehicles, ell = _vehicles(data, model, t)
    cumulative = np.interp(edges, vehicles, ell * np.arange(VEHICLES + 1))
    return np.diff(cumulative) / h
