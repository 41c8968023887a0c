"""Godunov solver for the density equation with a frozen marker field.

The density sees the marker only through the flux f(rho, u) = rho V(rho, u).
One explicit step with interface marker values u_{i+1/2} = (u_i + u_{i+1})/2:

    rho_i^+ = rho_i - (dt/h) (F_{i+1/2} - F_{i-1/2}),
    F_{i+1/2} = min over [rho_i, rho_{i+1}] of f(., u_{i+1/2})   (rho_i <= rho_{i+1})
              = max over [rho_{i+1}, rho_i] of f(., u_{i+1/2})   (otherwise).

Two ghost cells per side copy the edge cells; with the domain-margin rule the
edge cells never move, so this is exact outflow handling.  Since f(0, u) =
f(1, u) = 0 for every admissible closure, the scheme preserves 0 <= rho <= 1
regardless of how u varies in space.
"""

from __future__ import annotations

import numpy as np

from .errors import CflViolationError, InputRangeError
from .model import VelocityModel

SPEED_FLOOR = 1e-12


def pad2(a: np.ndarray) -> np.ndarray:
    """Two copy-ghost cells on each side."""
    return np.concatenate((a[:1], a[:1], a, a[-1:], a[-1:]))


def interface_marker(u: np.ndarray) -> np.ndarray:
    """Arithmetic interface averages, one value per interface (n+1)."""
    ue = pad2(u)
    return 0.5 * (ue[1:-2] + ue[2:-1])


def godunov_flux(rho_left, rho_right, u_interface, model: VelocityModel):
    """Exact-Riemann (Godunov) interface flux of the density equation.

    The flux f(., u) is unimodal in rho (``validate_model`` checks it) with
    its maximum at ``model.critical_density(u)``, so the minimum branch is
    the endpoint minimum and the maximum branch checks the critical point.
    Built-in and custom closures take this same path.
    """
    rl = np.asarray(rho_left, dtype=float)
    rr = np.asarray(rho_right, dtype=float)
    ui = np.asarray(u_interface, dtype=float)
    scalar = rl.ndim == 0 and rr.ndim == 0 and ui.ndim == 0
    rl, rr, ui = np.atleast_1d(rl, rr, ui)
    rl, rr, ui = np.broadcast_arrays(rl, rr, ui)

    crit = model.critical_density(ui)
    out = _godunov_pick(rl, rr, model.flux(rl, ui), model.flux(rr, ui), crit,
                        model.flux(crit, ui))
    return float(out[0]) if scalar else out


def _godunov_pick(rl, rr, f_l, f_r, crit, f_crit):
    """Godunov flux of a unimodal f with maximum at crit, given the values
    f_l = f(rl), f_r = f(rr) and f_crit = f(crit)."""
    lo = np.minimum(rl, rr)
    hi = np.maximum(rl, rr)
    f_max = np.where((lo <= crit) & (crit <= hi), f_crit,
                     np.maximum(f_l, f_r))
    return np.where(rl <= rr, np.minimum(f_l, f_r), f_max)


def max_speed(rho: np.ndarray, u: np.ndarray, model: VelocityModel) -> float:
    """Largest wave speed seen by the pair (rho, u), floored at 1e-12."""
    lam1, lam2 = model.eigenvalues(rho, u)
    s = max(float(np.abs(lam1).max()), float(np.abs(lam2).max()),
            float(np.max(model.max_wave_speed(u))))
    return max(s, SPEED_FLOOR)


def density_step_arrays(rho: np.ndarray, u: np.ndarray, h: float, dt: float,
                        model: VelocityModel, speed: float):
    """One Godunov step on raw arrays; returns (rho_new, interface fluxes).

    speed is max_speed(rho, u, model), which the caller has already taken
    to choose dt; steps with dt * speed above h raise CflViolationError.
    """
    if dt * speed > h * (1.0 + 1e-9):
        raise CflViolationError(
            f"dt={dt:.3e} exceeds stable limit h/s_max={h / speed:.3e}")
    re = pad2(rho)
    flux = godunov_flux(re[1:-2], re[2:-1], interface_marker(u), model)
    rho_new = rho - (dt / h) * (flux[1:] - flux[:-1])
    return rho_new, flux


def entropy_residual_arrays(rho_old: np.ndarray, rho_new: np.ndarray,
                            u: np.ndarray, k: float, dt: float, h: float,
                            model: VelocityModel) -> np.ndarray:
    """Discrete Kruzhkov residual at level k for one recorded step.

    R_i = (|rho_i^+ - k| - |rho_i - k|)/dt + (Q_{i+1/2} - Q_{i-1/2})/h
          + s_i * k * dV/du(k, u_i) * (u_{i+1} - u_{i-1})/(2h),

    with the Godunov entropy flux Q(a,b) = F(a v k, b v k) - F(a ^ k, b ^ k)
    and s_i = sign(rho_i - k), ties at rho_i == k broken by sign(rho_i^+ - k)
    (the selection of the set-valued sign that keeps the cell inequality).
    A cell that crosses k within the step (rho_i - k and rho_i^+ - k of
    strictly opposite signs) takes instead the time average of
    sign(rho - k) along the step,

        s_i = (|rho_i^+ - k| - |rho_i - k|) / (rho_i^+ - rho_i),

    since the pre-step sign would charge the whole step's source term to
    one side of k, an O(1) error that does not shrink with h.
    The solution satisfies R_i <= tol_e = 10 h.
    """
    if not 0.0 <= k <= 1.0:
        raise InputRangeError(f"entropy level k must be in [0,1], got {k}")
    re = pad2(rho_old)
    ue = pad2(u)
    u_if = interface_marker(u)
    a = re[1:-2]
    b = re[2:-1]
    q_hi = godunov_flux(np.maximum(a, k), np.maximum(b, k), u_if, model)
    q_lo = godunov_flux(np.minimum(a, k), np.minimum(b, k), u_if, model)
    du_center = (ue[3:-1] - ue[1:-3]) / (2.0 * h)
    return _residual(q_hi - q_lo, rho_old, rho_new, u, k, dt, h, du_center,
                     model)


def _residual(q, rho_old, rho_new, u, k, dt, h, du_center, model):
    """R_i at level k from the entropy fluxes q at the n+1 interfaces."""
    d_old = rho_old - k
    d_new = rho_new - k
    sgn = _level_sign(d_old, d_new, rho_old, rho_new)
    src = sgn * k * model.d_u(k, u) * du_center
    return ((np.abs(d_new) - np.abs(d_old)) / dt
            + (q[1:] - q[:-1]) / h + src)


def _level_sign(d_old, d_new, rho_old, rho_new):
    """s_i of the source term from d = rho - k before and after the step."""
    sgn = np.sign(d_old)
    s_new = np.sign(d_new)
    # cells where the sign changes: d_old != d_new there, so rho_new != rho_old
    idx = np.flatnonzero(sgn != s_new)
    if idx.size:
        s_old, s_new = sgn[idx], s_new[idx]
        mean = ((np.abs(d_new[idx]) - np.abs(d_old[idx]))
                / (rho_new[idx] - rho_old[idx]))
        sgn[idx] = np.where(s_old == 0.0, s_new,
                            np.where(s_old * s_new < 0.0, mean, s_old))
    return sgn


def entropy_residual_maxima(rho_old: np.ndarray, rho_new: np.ndarray,
                            u: np.ndarray, levels, dt: float, h: float,
                            model: VelocityModel) -> np.ndarray:
    """max_i R_i at every level of ``levels`` for one recorded step.

    Equal bit-for-bit to ``entropy_residual_arrays(..., k, ...).max()`` at
    each level.  f is evaluated once per step at the interface states a, b
    and at the critical density c, and once per level at k, all before the
    level loop; every Godunov value of the entropy flux is then a selection
    among those.  At an interface with k < min(a, b) the entropy flux is
    F - f(k), at one with k > max(a, b) it is f(k) - F (F the step's
    Godunov flux); the others take both Godunov fluxes.
    """
    levels = np.asarray(levels, dtype=float)
    if levels.size and not (levels.min() >= 0.0 and levels.max() <= 1.0):
        raise InputRangeError(f"entropy levels must be in [0,1], got {levels}")
    u_if = interface_marker(u)
    crit = model.critical_density(u_if)
    re = pad2(rho_old)
    a = re[1:-2]
    b = re[2:-1]
    f_a = model.flux(a, u_if)
    f_b = model.flux(b, u_if)
    f_c = model.flux(crit, u_if)
    f_levels = model.flux(np.repeat(levels[:, None], a.size, axis=1), u_if)
    flux = _godunov_pick(a, b, f_a, f_b, crit, f_c)
    lo = np.minimum(a, b)
    hi = np.maximum(a, b)
    ue = pad2(u)
    du_center = (ue[3:-1] - ue[1:-3]) / (2.0 * h)
    out = np.empty(levels.size)
    for j, k in enumerate(levels.tolist()):
        f_k = f_levels[j]
        q = np.where(k < lo, flux - f_k, f_k - flux)
        mid = np.flatnonzero((lo <= k) & (k <= hi))
        if mid.size:
            am, bm, cm = a[mid], b[mid], crit[mid]
            fam, fbm, fcm, fkm = f_a[mid], f_b[mid], f_c[mid], f_k[mid]
            q[mid] = (_godunov_pick(np.maximum(am, k), np.maximum(bm, k),
                                    np.where(am >= k, fam, fkm),
                                    np.where(bm >= k, fbm, fkm), cm, fcm)
                      - _godunov_pick(np.minimum(am, k), np.minimum(bm, k),
                                      np.where(am <= k, fam, fkm),
                                      np.where(bm <= k, fbm, fkm), cm, fcm))
        out[j] = _residual(q, rho_old, rho_new, u, k, dt, h, du_center,
                           model).max()
    return out
