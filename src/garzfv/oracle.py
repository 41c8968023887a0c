"""Independent reference solutions for cross-checking the solver kit.

Two references live here, both deliberately built on different numerics than
the main solver:

* exact Riemann solutions of the frozen-marker density equation, valid for
  velocity closures whose flux rho -> rho V(rho, u_bar) is concave;
* a viscous regularization marcher (centered flux plus eps * d_xx) whose
  solutions approach the entropy solution as eps -> 0.
"""

from __future__ import annotations

import numpy as np

from .core import Grid, InitialData, SystemState, build_initial_state, \
    require_count, require_real, state_from_arrays
from .errors import InputRangeError, UnsupportedModelError, \
    ViscousInstabilityError
from .model import PowerLawModel, VelocityModel

CONCAVITY_SAMPLES = 257
CONCAVITY_TOL = 1e-10


def _check_concave_flux(model: VelocityModel, u_bar: float) -> None:
    """Reject closures whose frozen-u flux is not concave on [0, 1].

    Sampled second differences must stay nonpositive up to rounding.  The
    power-law closure with gamma > 1 has an inflection inside (0, 1) and is
    rejected here; gamma = 1 passes.
    """
    rho = np.linspace(0.0, 1.0, CONCAVITY_SAMPLES)
    f = model.flux(rho, np.full_like(rho, u_bar))
    second = f[2:] - 2.0 * f[1:-1] + f[:-2]
    worst = float(second.max())
    if worst > CONCAVITY_TOL:
        raise UnsupportedModelError(
            f"flux at u={u_bar:g} is not concave on [0, 1] "
            f"(max sampled second difference {worst:.3e}); "
            "the exact Riemann construction requires a concave flux")


def _flux_derivative(model: VelocityModel, rho, u_bar: float):
    rho = np.asarray(rho, dtype=float)
    u = np.full_like(rho, u_bar)
    return model.velocity(rho, u) + rho * model.d_rho(rho, u)


def _invert_derivative(model: VelocityModel, xi, rho_lo: float,
                       rho_hi: float, u_bar: float):
    """Solve f'(rho) = xi for rho in [rho_lo, rho_hi]; f' is decreasing."""
    xi = np.asarray(xi, dtype=float)
    lo = np.full(xi.shape, rho_lo)
    hi = np.full(xi.shape, rho_hi)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        too_fast = _flux_derivative(model, mid, u_bar) > xi
        lo = np.where(too_fast, mid, lo)
        hi = np.where(too_fast, hi, mid)
    return 0.5 * (lo + hi)


def lwr_riemann_exact(rho_left: float, rho_right: float, u_bar: float,
                      model: VelocityModel, t: float, x):
    """Exact entropy solution of the frozen-marker Riemann problem.

    The initial datum is rho_left for x < 0 and rho_right for x > 0, with
    the marker frozen at the constant u_bar.  Returns point values of rho at
    positions x and time t.  Only concave fluxes are supported; others raise
    UnsupportedModelError.
    """
    rho_left = require_real("rho_left", rho_left, 0, 1)
    rho_right = require_real("rho_right", rho_right, 0, 1)
    u_bar = require_real("u_bar", u_bar, 0)
    t = require_real("t", t, 0)
    _check_concave_flux(model, u_bar)
    x = np.atleast_1d(np.asarray(x, dtype=float))

    if t == 0.0 or rho_left == rho_right:
        return np.where(x < 0.0, rho_left, rho_right)

    if rho_left < rho_right:
        fl = float(model.flux(rho_left, u_bar))
        fr = float(model.flux(rho_right, u_bar))
        s = (fr - fl) / (rho_right - rho_left)
        return np.where(x < s * t, rho_left, rho_right)

    # rho_left > rho_right: rarefaction fan between the two characteristics
    xi = x / t
    xi_left = float(_flux_derivative(model, rho_left, u_bar))
    xi_right = float(_flux_derivative(model, rho_right, u_bar))
    out = np.where(xi <= xi_left, rho_left, rho_right)
    fan = (xi > xi_left) & (xi < xi_right)
    if np.any(fan):
        if isinstance(model, PowerLawModel) and model.gamma == 1.0:
            if u_bar == 0.0:
                fan_vals = np.full(fan.sum(), rho_left)
            else:
                fan_vals = 0.5 * (1.0 - xi[fan] / u_bar)
        else:
            fan_vals = _invert_derivative(model, xi[fan], rho_right,
                                          rho_left, u_bar)
        out[fan] = fan_vals
    return out


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
            speed = float(np.max(np.abs(model.eigenvalues(rho, u)[0])))
            speed = max(speed, float(np.max(np.abs(u))), 1e-12)
            remaining = t_next - t
            dt = min(cfl * h / speed, 0.25 * h * h / eps, remaining)

            rho_e = np.concatenate(([rho[0]], rho, [rho[-1]]))
            u_e = np.concatenate(([u[0]], u, [u[-1]]))
            psi_e = np.concatenate(([psi[0]], psi, [psi[-1]]))

            f = model.flux(rho_e, u_e)
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
