"""Independent reference solutions for cross-checking the solver kit.

Two references live here, both deliberately built on different numerics than
the main solver:

* exact Riemann solutions of the frozen-marker density equation for every
  admissible closure, by Osher's formula;
* a viscous regularization marcher (centered flux plus eps * d_xx) whose
  solutions approach the entropy solution as eps -> 0.
"""

from __future__ import annotations

import numpy as np

from .core import Grid, InitialData, SystemState, build_initial_state, \
    require_count, require_real, state_from_arrays
from .errors import InputRangeError, ViscousInstabilityError
from .model import VelocityModel

LATTICE = 1025      # samples of the flux between the two states
BISECTIONS = 60     # halvings of one lattice cell, below rounding
TANGENT_PASSES = 3  # chord-tangent updates of each shock speed


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
    x = np.atleast_1d(np.asarray(x))
    if x.dtype.kind not in "biuf":
        raise InputRangeError(
            f"positions x must be real numbers, got dtype {x.dtype}")
    x = x.astype(float, copy=False)
    if np.isnan(x).any():
        raise InputRangeError("positions x must not be NaN")
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
    from .core import Piece
    if not x_min < 0.0 < x_max:
        raise InputRangeError("the jump sits at x = 0; need x_min < 0 < x_max")
    pieces = (Piece.const(x_min, 0.0, rho_left),
              Piece.const(0.0, x_max, rho_right))
    return InitialData(rho_pieces=pieces, psi_pieces=(), z_inf=0.0,
                       u_inf=u_bar)


def _viscous_state(t, rho, u, psi, u_inf, z_inf, h, grid) -> SystemState:
    """Package point fields as a SystemState with exact prefix identities.

    v is the backward difference of u (so u_inf + h cumsum v telescopes back
    to u exactly) and w = rho psi.
    """
    rho = np.clip(rho, 0.0, 1.0)
    v = np.empty_like(u)
    v[0] = (u[0] - u_inf) / h
    v[1:] = np.diff(u) / h
    w = rho * psi
    return state_from_arrays(t, rho, v, w, z_inf, u_inf, grid)


def viscous_solve(data: InitialData, eps: float, grid: Grid, t_final: float,
                  model: VelocityModel, cfl: float = 0.4,
                  n_output: int = 8) -> list:
    """March the eps-regularized system to t_final; states at a cadence.

    Density: d_t rho + d_x (rho V) = eps d_xx rho with centered flux
    differences.  Marker fields u and psi: centered advection at speed V
    plus the same diffusion.  Zero-gradient ghost cells on both ends; the
    compact-support margins of the datum keep the boundaries inactive.

    Requires eps >= h (resolved viscosity); the scheme is then monotone for
    every closure with max |d_rho flux| <= 2, and blowup raises
    ViscousInstabilityError regardless.  Returns n_output+1 states at
    uniform times 0 .. t_final.
    """
    eps = require_real("eps", eps, 0, open_lo=True)
    if eps < grid.h:
        raise InputRangeError(
            f"unresolved viscosity: eps={eps:g} < h={grid.h:g}; "
            "refine the grid or increase eps")
    require_real("cfl", cfl, 0, 1, open_lo=True)
    t_final = require_real("t_final", t_final, 0)
    require_count("n_output", n_output, 1)
    state0 = build_initial_state(data, grid)
    h = grid.h
    rho = state0.rho.values.copy()
    u = state0.u.values.copy()
    psi = state0.psi.values.copy()

    out_times = np.linspace(0.0, t_final, n_output + 1)
    states = [state0]
    t = 0.0
    time_tol = 1e-13 * max(1.0, t_final)
    for t_next in out_times[1:]:
        t_next = float(t_next)
        while t_next - t > time_tol:
            rho_e = np.concatenate(([rho[0]], rho, [rho[-1]]))
            u_e = np.concatenate(([u[0]], u, [u[-1]]))
            psi_e = np.concatenate(([psi[0]], psi, [psi[-1]]))

            # flux range-checks rho and u before the closure sees them
            f = model.flux(rho_e, u_e)
            lam1 = model.velocity(rho, u) + rho * model.d_rho(rho, u)
            speed = max(float(np.max(np.abs(lam1))),
                        float(np.max(np.abs(u))), 1e-12)
            remaining = t_next - t
            dt = min(cfl * h / speed, 0.25 * h * h / eps, remaining)

            lap_rho = (rho_e[2:] - 2.0 * rho_e[1:-1] + rho_e[:-2]) / (h * h)
            rho_new = rho - dt * (f[2:] - f[:-2]) / (2.0 * h) \
                + dt * eps * lap_rho

            vel = model.velocity(rho, u)
            adv_u = (u_e[2:] - u_e[:-2]) / (2.0 * h)
            lap_u = (u_e[2:] - 2.0 * u_e[1:-1] + u_e[:-2]) / (h * h)
            u_new = u - dt * vel * adv_u + dt * eps * lap_u
            adv_psi = (psi_e[2:] - psi_e[:-2]) / (2.0 * h)
            lap_psi = (psi_e[2:] - 2.0 * psi_e[1:-1] + psi_e[:-2]) / (h * h)
            psi_new = psi - dt * vel * adv_psi + dt * eps * lap_psi

            if not (np.all(np.isfinite(rho_new))
                    and np.all(np.isfinite(u_new))
                    and np.all(np.isfinite(psi_new))):
                raise ViscousInstabilityError(
                    f"non-finite values at t={t:.6g} with eps={eps:g}, "
                    f"h={h:g}")
            if rho_new.min() < -0.1 or rho_new.max() > 1.1:
                raise ViscousInstabilityError(
                    f"density left [0, 1] by more than 0.1 at t={t:.6g}; "
                    f"increase eps (currently {eps:g}, h={h:g})")
            rho, u, psi = rho_new, u_new, psi_new
            t = t_next if dt >= remaining * (1.0 - 1e-12) else t + dt
        t = t_next
        states.append(_viscous_state(t_next, rho, u, psi, state0.u_inf,
                                     state0.z_inf, h, grid))
    return states
