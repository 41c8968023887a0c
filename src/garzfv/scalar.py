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

The step kernels take padded arrays: the m cells they step plus two
neighbours per side.  The caller pads with ``pad2``, or, as a march does,
hands a view of a ghost-padded state whose cells next to the window hold
the bits ``pad2`` would copy; then a step copies nothing to pad.  The
closure-specific values of a step go through ``VelocityModel.side_fluxes``
and ``critical_flux``: the power law raises (1 - rho) to gamma once per
cell (not at all for gamma = 1) and returns its critical density and
(1 - c)^gamma, constants taken once per closure; a custom closure bisects
the critical density only at the interfaces whose Godunov value reads it
(rho_i > rho_{i+1}), once per distinct marker value.

The entropy audit kernel ``entropy_residual_maxima`` takes a batch of
recorded steps, their cells end to end; its cost is mostly fixed per
call, so the audit replay batches ``iteration.AUDIT_BATCH_CELLS`` cells.
It writes every (levels x cells) and (levels x interfaces) array into an
``AuditWorkspace`` that the replay allocates once for its largest batch:
three float buffers, since each term takes rho - k afresh instead of
keeping it.  A call allocates no other array of that size but the
closure's own: its ``velocity`` at the levels and, for a closure without
a closed form, its dV/du.

A march step range-checks its (rho, u) once, in ``max_speed``; the step and
audit kernels then evaluate f = rho V without ``VelocityModel.flux``'s check.
"""

from __future__ import annotations

import math

import numpy as np

from .core import require_real
from .errors import CflViolationError, GridMismatchError, InputRangeError
from .model import VelocityModel, _require_box

SPEED_FLOOR = 1e-12


def pad2(a: np.ndarray) -> np.ndarray:
    """Two copy-ghost cells on each side of the last axis."""
    return np.concatenate((a[..., :1], a[..., :1], a, a[..., -1:],
                           a[..., -1:]), axis=-1)


def interface_marker(ue: np.ndarray) -> np.ndarray:
    """Arithmetic interface averages of a padded marker (m+4 values), one
    value per interface of its m cells (m+1)."""
    # 0.5 (u_i + u_{i+1}), added and halved in place
    out = np.add(ue[1:-2], ue[2:-1])
    out *= 0.5
    return out


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
    try:
        rl, rr, ui = np.broadcast_arrays(rl, rr, ui)
    except ValueError:
        raise InputRangeError(
            f"godunov_flux inputs do not broadcast together: shapes "
            f"{rl.shape}, {rr.shape} and {ui.shape}") from None
    _require_box((rl, rr), ui)
    f_l, f_r = (x * model.velocity(x, ui) for x in (rl, rr))
    out = _godunov_parts(rl, rr, ui, f_l, f_r, model)[0]
    return float(out[0]) if scalar else out


def _godunov_parts(rl, rr, ui, f_l, f_r, model: VelocityModel):
    """(F, crit, f(rl), f(rr), f(crit)): Godunov flux F and what it is picked
    from, given f_l = f(rl) and f_r = f(rr), f = rho V unchecked; callers
    range-check rl, rr and ui.  crit is the closure's critical density
    wherever rl > rr, the only interfaces that read it: an array, or one
    value when it is constant (``VelocityModel.critical_flux``)."""
    crit, f_c = model.critical_flux(ui, rl, rr)
    return _godunov_pick(rl, rr, f_l, f_r, crit, f_c), crit, f_l, f_r, f_c


def _godunov_pick(rl, rr, f_l, f_r, crit, f_crit):
    """Godunov flux of a unimodal f with maximum at crit, given the values
    f_l = f(rl), f_r = f(rr) and f_crit = f(crit).  crit and f_crit are
    read only where rl > rr, where [rr, rl] is the Riemann fan's range."""
    f_max = np.where((rr <= crit) & (crit <= rl), f_crit,
                     np.maximum(f_l, f_r))
    return np.where(rl <= rr, np.minimum(f_l, f_r), f_max)


def max_speed(rho: np.ndarray, u: np.ndarray, model: VelocityModel) -> float:
    """``model.state_speed`` of the pair (rho, u), floored at 1e-12, after
    the step's one range check (InputRangeError outside [0,1] x [0, inf)).
    rho and u hold the same cells: GridMismatchError when their shapes
    differ and InputRangeError when they hold none, before the speed is
    taken (the power law's speed reads u alone)."""
    rho, u = _require_box(rho, u)
    if rho.shape != u.shape:
        raise GridMismatchError(
            f"max_speed needs rho and u on the same cells, got shapes "
            f"{rho.shape} and {u.shape}")
    if rho.size == 0:
        raise InputRangeError("max_speed needs at least one cell, got none")
    return max(model.state_speed(rho, u), SPEED_FLOOR)


def density_step_arrays(re: np.ndarray, ue: np.ndarray, h: float, dt: float,
                        model: VelocityModel, speed: float):
    """One Godunov step of the m cells of the padded density re (m+4
    values, two neighbours per side) with the padded marker ue; returns
    (rho_new of the m cells, their m+1 interface fluxes, parts), parts
    being (re, ue, interface marker, F, crit, f_a, f_b, f_c) for
    ``entropy_residual_maxima`` to reuse (see _godunov_parts).  A caller
    that does not audit the step drops them on return; one that audits it
    later keeps copies of re and ue if it overwrites them.

    speed is max_speed of the m cells, which the caller has already taken
    to choose dt and to range-check them, so f is evaluated unchecked;
    steps with dt * speed above h raise CflViolationError.
    """
    if dt * speed > h * (1.0 + 1e-9):
        raise CflViolationError(
            f"dt={dt:.3e} exceeds stable limit h/s_max={h / speed:.3e}")
    parts = _step_parts(re, ue, model)
    flux = parts[3]
    # rho - (dt/h) (F_{i+1/2} - F_{i-1/2}), operation by operation, in place
    rho_new = np.subtract(flux[1:], flux[:-1])
    rho_new *= dt / h
    return np.subtract(re[2:-2], rho_new, out=rho_new), flux, parts


def _step_parts(re, ue, model: VelocityModel):
    """(re, ue, interface marker, *_godunov_parts) of a step from the
    padded (re, ue), unchecked."""
    u_if = interface_marker(ue)
    rl, rr = re[1:-2], re[2:-1]
    f_l, f_r = model.side_fluxes(re[1:-1], u_if)
    return (re, ue, u_if, *_godunov_parts(rl, rr, u_if, f_l, f_r, model))


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
    require_real("entropy level k", k, 0, 1)
    re = pad2(rho_old)
    ue = pad2(u)
    u_if = interface_marker(ue)
    a = re[1:-2]
    b = re[2:-1]
    q_hi = godunov_flux(np.maximum(a, k), np.maximum(b, k), u_if, model)
    q_lo = godunov_flux(np.minimum(a, k), np.minimum(b, k), u_if, model)
    q = q_hi - q_lo
    return _residual(rho_old, rho_new, k, dt, (q[1:] - q[:-1]) / h,
                     model.d_u(k, u), (ue[3:-1] - ue[1:-3]) / (2.0 * h),
                     AuditWorkspace(len(rho_old)))


class AuditWorkspace:
    """The work arrays of the audit kernel, reused from call to call: three
    float and two bool buffers of ``size`` entries each.  A batch of L
    levels and I interfaces needs size >= L * I; each (levels x cells) or
    (levels x interfaces) array of a call is a contiguous view of a
    buffer's leading entries (``_view``).

    What each float buffer holds, in turn, within one call: ``source`` f
    at the levels, then dq = (Q_{i+1/2} - Q_{i-1/2})/h, then the source
    term s_i k dV/du du; ``sums`` the entropy fluxes Q, then R_i;
    ``scratch`` d = rho - k and the sign after the step.  The bool buffers
    ``below`` and ``above`` hold the level masks, ``below`` then the cells
    whose sign changes.  ``_residual`` reads dq before it writes over it.
    """

    def __init__(self, size: int):
        self.size = size
        self.source, self.sums, self.scratch = (np.empty(size)
                                                for _ in range(3))
        self.below, self.above = (np.empty(size, dtype=bool)
                                  for _ in range(2))


def _view(buf: np.ndarray, shape) -> np.ndarray:
    return buf[:math.prod(shape)].reshape(shape)


def _residual(rho_old, rho_new, k, dt, dq, d_u, du_center,
              work: AuditWorkspace):
    """R_i at level k (a scalar, or a column of levels against rows of
    cells), written into ``work.sums``, from dq, the entropy-flux
    differences over h, d_u = dV/du(k, u_i) and the centred u difference,
    with d = rho - k before and after the step:
    (|d_new| - |d_old|)/dt + dq + ((s_i k) d_u) du_center.

    Each term takes d afresh rather than keeping it, so no more than the
    workspace's three float arrays are live besides the inputs.
    """
    shape = np.broadcast_shapes(np.shape(rho_old), np.shape(k))
    res, src, scratch = (_view(buf, shape)
                         for buf in (work.sums, work.source, work.scratch))
    np.abs(np.subtract(rho_new, k, out=res), out=res)
    res -= np.abs(np.subtract(rho_old, k, out=scratch), out=scratch)
    res /= dt
    res += dq
    _level_sign(rho_old, rho_new, k, src, scratch, _view(work.below, shape))
    src *= k
    src *= d_u
    src *= du_center
    res += src
    return res


def _level_sign(rho_old, rho_new, k, sgn, s_new, mask):
    """s_i of the source term, written into sgn, from d = rho - k before
    and after the step; the cells run along the last axis, and s_new and
    mask are scratch of sgn's shape."""
    np.sign(np.subtract(rho_old, k, out=sgn), out=sgn)
    np.sign(np.subtract(rho_new, k, out=s_new), out=s_new)
    # cells where the sign changes: d_old != d_new there, so rho_new != rho_old
    idx = np.flatnonzero(np.not_equal(sgn, s_new, out=mask))
    if idx.size:
        n = sgn.shape[-1]
        cell, k_idx = idx % n, np.ravel(k)[idx // n]
        flat = sgn.reshape(-1)
        s_old, s_new = flat[idx], s_new.reshape(-1)[idx]
        # d at these cells taken again: the same subtraction, the same bits
        d_old, d_new = rho_old[cell] - k_idx, rho_new[cell] - k_idx
        mean = ((np.abs(d_new) - np.abs(d_old))
                / (rho_new[cell] - rho_old[cell]))
        flat[idx] = np.where(s_old == 0.0, s_new,
                             np.where(s_old * s_new < 0.0, mean, s_old))


def entropy_residual_maxima(steps, levels, h: float, model: VelocityModel,
                            workspace: AuditWorkspace | None = None
                            ) -> np.ndarray:
    """max_i R_i at every level of ``levels`` over the cells of one or more
    recorded steps (dt, rho_new, parts), parts the Godunov parts of the
    step from its padded (rho_old, u), as ``density_step_arrays`` returns
    them (``_step_parts``).

    Each cell's residual has the bits of ``entropy_residual_arrays(...,
    k, ...)`` at that cell of its own step, signed zeros and NaN included,
    so with no residual -0.0 (see ``iteration._replay_density``) this is
    the largest of the steps' maxima.  All levels and the steps' cells go
    in one pass over (levels x cells) arrays, each cell with its step's
    dt, dV/du from ``model.d_u_levels``; no entropy-flux difference spans
    the seam between two steps.  Every (levels x cells) and (levels x
    interfaces) array is written into the workspace's three float
    buffers, the closure's own arrays aside; a call without one builds its
    own.
    """
    levels = np.asarray(levels, dtype=float)
    if levels.size and not (levels.min() >= 0.0 and levels.max() <= 1.0):
        raise InputRangeError(f"entropy levels must be in [0,1], got {levels}")
    dts, rho_new, parts = zip(*steps)
    sizes = [len(r) for r in rho_new]
    re, ue, u_if, flux, crit, f_a, f_b, f_c = zip(*parts)
    u_if = np.concatenate(u_if)
    k = levels[:, None]
    faces = (len(levels), len(u_if))
    if workspace is None:
        workspace = AuditWorkspace(math.prod(faces))
    elif workspace.size < math.prod(faces):
        raise InputRangeError(
            f"audit workspace holds {workspace.size} entries per array, "
            f"the batch needs {math.prod(faces)}")
    f_k, q = _view(workspace.source, faces), _view(workspace.sums, faces)
    # f at the levels, unchecked (the march range-checked u in max_speed),
    # on the column, an array as in the reference; before the other parts
    # are laid end to end, since the closure's own (levels x interfaces)
    # array is the largest the call allocates
    np.multiply(k, model.velocity(k, u_if), out=f_k)
    flux, f_a, f_b, f_c = map(np.concatenate, (flux, f_a, f_b, f_c))
    # one value when the closure's critical density is constant
    crit = np.concatenate(crit) if np.ndim(crit[0]) else crit[0]
    _level_entropy_fluxes(_cat(re, 1, 2), _cat(re, 2, 1), flux, crit, f_a,
                          f_b, f_c, k, f_k, q,
                          (_view(workspace.below, faces),
                           _view(workspace.above, faces)))
    # Q_{i+1/2} - Q_{i-1/2} over f_k: the m cells of step j lie between
    # its m + 1 interfaces, the batch's c + j to c + j + m
    dq = _view(workspace.source, (len(levels), sum(sizes)))
    c = 0
    for j, m in enumerate(sizes):
        np.subtract(q[:, c + j + 1:c + j + m + 1], q[:, c + j:c + j + m],
                    out=dq[:, c:c + m])
        c += m
    dq /= h
    return _residual(_cat(re, 2, 2), np.concatenate(rho_new), k,
                     np.repeat(dts, sizes), dq,
                     model.d_u_levels(levels, _cat(ue, 2, 2)),
                     (_cat(ue, 3, 1) - _cat(ue, 1, 3)) / (2.0 * h),
                     workspace).max(axis=1)


def _cat(arrays, lo: int, hi: int) -> np.ndarray:
    """Entries lo to len - hi of each array, end to end."""
    return np.concatenate([x[lo:len(x) - hi] for x in arrays])


def _level_entropy_fluxes(a, b, flux, crit, f_a, f_b, f_c, k, f_k, q,
                          masks):
    """Godunov entropy flux Q(a, b) at every level of the column k, written
    into q, from the Godunov parts of steps at their interface states
    (a, b): the Godunov flux, the critical density and f at a, b and crit,
    one entry per interface, and f_k, f at each level and interface.  The
    two bool masks are scratch of q's shape.

    Every Godunov value of the entropy flux is a selection among those
    values of f.  At an interface with k < min(a, b) the entropy flux is
    F - f(k), at one with k > max(a, b) it is f(k) - F (F the step's
    Godunov flux); the others take both Godunov fluxes.
    """
    lo = np.minimum(a, b)
    hi = np.maximum(a, b)
    below, above = masks
    np.subtract(f_k, flux, out=q)
    np.subtract(flux, f_k, out=q, where=np.less(k, lo, out=below))
    # lo <= k <= hi
    mid = np.flatnonzero(np.logical_and(np.less_equal(lo, k, out=below),
                                        np.less_equal(k, hi, out=above),
                                        out=below))
    if mid.size:
        row, col = np.divmod(mid, a.size)
        km = k[row, 0]
        # crit is read where a > b only (see _godunov_pick): both
        # max(a, k) > max(b, k) and min(a, k) > min(b, k) imply it
        am, bm, cm = a[col], b[col], crit[col] if np.ndim(crit) else crit
        fam, fbm, fcm, fkm = f_a[col], f_b[col], f_c[col], f_k[row, col]
        q.reshape(-1)[mid] = (
            _godunov_pick(np.maximum(am, km), np.maximum(bm, km),
                          np.where(am >= km, fam, fkm),
                          np.where(bm >= km, fbm, fkm), cm, fcm)
            - _godunov_pick(np.minimum(am, km), np.minimum(bm, km),
                            np.where(am <= km, fam, fkm),
                            np.where(bm <= km, fbm, fkm), cm, fcm))
