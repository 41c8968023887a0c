"""Fixed-point construction of the coupled solution on time slabs.

Each slab [t0, t0+tau0] is solved by Picard iteration.  The first iterate is
the slab's start profile frozen in time.  Every later iterate m:

1. solves the density equation by Godunov steps with the marker field frozen
   at iterate m-1's trajectory (linear interpolation between its snapshots);
2. transports both conserved markers v = rho z and w = rho psi with the
   density fluxes produced in step 1.

An iterate is stored as (m, n) arrays of rho, v and w (u is derived from
v), row s holding the state at the slab's s-th stored time, so Phi below
is one expression over whole iterates.

A march steps only a window of cells.  A cell whose three-cell stencil is
constant in rho, u, v and w cannot change in a step (the transport has
finite speed), so each step runs the step kernels on the one range of cells
that holds every bitwise jump of those arrays; outside it the full-width
step would return each cell's own bits, and the influx and the CFL speed
are the same.  A step reads the window's padded stencil as a view of the
march's ghost-padded state.  ``_march_slab`` states the proof and how the
window and the ghosts are kept.

Convergence is declared when the contraction functional

    Phi_{m-1} = sup over stored times of
        ||rho_{m-1} - rho_m||_L1 + ||v_{m-1} - v_{m-2}||_L1

falls below tol_phi.  (The two terms deliberately carry different iterate
offsets.)  A slab holds only what the next iterate reads: the previous
iterate's rho and v rows (the start rows, broadcast, at first; Phi takes
its terms in them), the march in progress and Phi's v term, taken when a
march fails to converge.  The audit replay reads only v.  An unaudited
vacuum n=1536 solve peaks at 8.4 (stored times x n) float arrays under
tracemalloc, 3.2 of them its returned states (12.9 and 6.2 with u stored).

A march is a function of the slab's start state, its stored times and the
marker rows it is frozen at, and a slab fixes the first two.  So when a
march's v (so u) rows have the int64 bits of the rows it was frozen at, a
flag taken right after it, its iterate and plan are every later iterate's
and no march follows; the Phi trace is unchanged.  A constant marker
(``shock``, ``rarefaction``) is u's fixed point after one march.

The slab length tau0 = min(1/4, ln(3/2)/C_tilde) is advisory (see
compute_tau0): Phi decides convergence, and the global driver halves tau0
and retries, up to five times, if a slab fails to converge.  The mass and
total-variation series are taken once per slab from the kept iterate.

Every march returns its step plan: per step its window, dt and CFL speed.
A converged slab is described by one frozen SlabRecord (Trajectory.slabs
holds them), built from the plan it keeps.  The entropy audit runs on no
Picard march: an audited slab replays the density steps of the kept plan
in batches of about AUDIT_BATCH_CELLS cells, and returns the residual
maxima over the step windows, raised to +0.0 once per slab when a window
leaves cells out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (CellField, Grid, InitialData, SystemState,
                   build_initial_state, check_margins, l1_norm, prefix_sum,
                   require_count, require_real, state_from_arrays,
                   total_variation)
from .errors import PicardDivergenceError
from .model import ModelBounds, VelocityModel, require_valid_model
from .scalar import (SPEED_FLOOR, AuditWorkspace, density_step_arrays,
                     entropy_residual_maxima, max_speed, pad2)
# not called here, but kept importable from this module: perfbench traces
# the per-level entropy audit at this binding
from .scalar import entropy_residual_arrays  # noqa: F401
from .transport import marker_step_arrays

DEFAULT_ENTROPY_LEVELS = 11
MAX_TAU_HALVINGS = 5
# cells per entropy audit kernel call.  The kernel writes its (levels x
# cells) arrays into one workspace per replay, three float buffers of
# about 360 KB each at 11 levels, so a call allocates no array of that
# size but the closure's own (its velocity at the levels; a custom one's
# dV/du).  An audited smoke n=1536 solve, budgets alternating in one
# process, spent 85 ms in the kernel at 1,536 cells, 82 ms at 2,048, 61 ms
# at 3,072 and 55 ms at 4,096, for about 1.4 MB more peak RSS than the
# per-call temporaries at 1,536
AUDIT_BATCH_CELLS = 4096
U_BLOCK_ROWS = 8  # stored rows of the frozen u a block derives at once


@dataclass(frozen=True)
class SlabConfig:
    """Knobs of the slab iteration; tol_phi = None means h ||rho0||_L1.

    The slab length tau0 and the variation budget M0 are not knobs:
    make_context derives them from the datum and the closure."""

    tol_phi: float | None = None
    max_picard_iters: int = 25
    cfl: float = 0.5
    snapshots_per_slab: int = 32
    entropy_levels: int = DEFAULT_ENTROPY_LEVELS

    def __post_init__(self):
        if self.tol_phi is not None:
            require_real("tol_phi", self.tol_phi, 0, open_lo=True)
        require_count("max_picard_iters", self.max_picard_iters, 2)
        require_real("cfl", self.cfl, 0, 1, open_lo=True)
        require_count("snapshots_per_slab", self.snapshots_per_slab, 1)
        require_count("entropy_levels", self.entropy_levels, 0)


def compute_M0(rho0: CellField) -> float:
    """Total-variation budget 4 TV(rho0) + 4."""
    return 4.0 * total_variation(rho0) + 4.0


def compute_tilde_C(bounds: ModelBounds, z0_sup: float, psi0_sup: float,
                    rho0_l1: float) -> float:
    """Growth constant assembled from the closure's sup norms on the
    working box (``VelocityModel.sup_bounds``) and the datum's."""
    for name, value in (("z0_sup", z0_sup), ("psi0_sup", psi0_sup),
                        ("rho0_l1", rho0_l1)):
        require_real(name, value, 0)
    return (bounds.d_u_rho_sup * z0_sup
            + bounds.d_u_sup * z0_sup
            + bounds.d_uu_sup * z0_sup ** 2 * rho0_l1
            + bounds.d_u_sup * (psi0_sup * rho0_l1 + z0_sup))


def compute_tau0(tilde_c: float) -> float:
    """Slab length: the largest tau0 <= 1/4 with exp(C tau0) - 1 <= 1/2,
    that is min(1/4, ln(3/2)/C), and 1/4 for C = 0.

    exp(C tau0) - 1 <= 1/2 is the weakest condition under which the
    variation budget M0 still closes.  The paper's slab condition
    exp(C tau0) - 1 <= 2 tau0 implies it, since 2 tau0 <= 1/2: the paper's
    largest root is never longer than this tau0, equals it (1/4) for
    C <= 4 ln(3/2), and shrinks to 0 as C rises to 2, above which it does
    not exist (e^{Ct} - 1 >= Ct >= 2t).  This rule is continuous in C.
    tau0 is advisory; convergence is decided by the contraction functional.
    """
    tilde_c = require_real("tilde_c", tilde_c, 0)
    if tilde_c == 0.0:
        return 0.25
    return min(0.25, math.log(1.5) / tilde_c)


@dataclass(frozen=True)
class ProblemContext:
    """Data-derived constants shared by the solver and the audits."""

    model: VelocityModel
    grid: Grid
    t_final: float
    u0_sup: float
    z0_sup: float
    psi0_sup: float
    rho0_l1: float
    tv0: float
    m0: float
    c_tilde: float
    tau0: float
    tol_phi: float
    wave_bound: float
    constant_u: bool
    bounds: ModelBounds

    def tv_envelope(self, t: float) -> float:
        """Implemented variation envelope M0 e^{Ct} + (e^{Ct} - 1)."""
        g = math.exp(self.c_tilde * t)
        return self.m0 * g + (g - 1.0)


@dataclass
class SlabIterate:
    """One Picard iterate at the slab's m stored times.

    rho, v and w are (m, n) arrays whose row s is the state at times[s];
    influx[s] is the boundary influx accumulated from times[0] to times[s].
    A slab keeps an iterate whole only while it may be the result, and of
    the one before it only its rho and v rows; mass and total variation
    are taken once from the rho rows of the iterate it keeps.
    """

    times: np.ndarray
    rho: np.ndarray
    v: np.ndarray
    w: np.ndarray
    influx: np.ndarray


@dataclass(frozen=True)
class PicardTrace:
    """Phi of one slab [t0, t1]'s iterates: phi[i] is Phi of iterate
    i + 2, the first iterate having none.  Built once, when the slab
    converges or gives up."""

    t0: float
    t1: float
    tol_phi: float
    phi: list
    converged: bool
    stop_reason: str

    @property
    def iterations(self) -> int:
        return len(self.phi) + 1


@dataclass(frozen=True, eq=False)
class SlabRecord:
    """A converged slab's record: its PicardTrace, which holds its span,
    the step count and the largest CFL number of the march it keeps, and
    per entropy level in k_levels the largest entropy residual of that
    march's steps (empty when the slab is not audited)."""

    trace: PicardTrace
    n_steps: int
    max_cfl: float
    k_levels: np.ndarray
    entropy_max: np.ndarray

    def entropy_table(self) -> dict:
        if self.n_steps == 0 or len(self.k_levels) == 0:
            return {}
        return {float(k): float(r)
                for k, r in zip(self.k_levels, self.entropy_max)}


def _merge_times(base: np.ndarray, extra, tol: float) -> np.ndarray:
    """Sorted union of time lattices, deduplicated to within tol."""
    allt = np.sort(np.concatenate((np.asarray(base, dtype=float),
                                   np.asarray(list(extra), dtype=float))))
    keep = [allt[0]]
    for t in allt[1:]:
        if t - keep[-1] > tol:
            keep.append(t)
    return np.asarray(keep)


def _abs_row_sums(d: np.ndarray) -> np.ndarray:
    """Per row of the temporary d, the sum of |d|, taken in d itself."""
    return np.abs(d, out=d).sum(axis=1)


def _row_l1(prev, curr, h):
    """h times the L1 norm of each row of prev - curr, taken in prev (dead
    after it) unless prev is the read-only start rows or curr itself."""
    into = prev if prev.flags.writeable and prev is not curr else None
    return h * _abs_row_sums(np.subtract(prev, curr, out=into))


def _row_spans(rows: np.ndarray):
    """Per row of a (k, n) array, the cell range [lo, hi) holding every
    cell that differs from a neighbour, compared as int64 bits; outside it
    the row is constant on each side and equal to the range's end cell.
    A constant row gets the empty range (n, 0)."""
    n = rows.shape[1]
    bits = rows.view(np.int64)
    jump = bits[:, 1:] != bits[:, :-1]
    has = jump.any(axis=1)
    lo = np.where(has, jump.argmax(axis=1), n)
    hi = np.where(has, n - jump[:, ::-1].argmax(axis=1), 0)
    return lo.tolist(), hi.tolist()


class _FrozenU:
    """A march's frozen u, core.prefix_sum of each v row, so a state's u
    bit for bit.  ``pair(s)`` is stored rows s-1 and s (s never
    decreasing); past its block it derives rows s-1 to s-1 + U_BLOCK_ROWS
    (fewer at the end) in one call.  ``span(s)`` is the cell range
    [lo, hi) holding both rows' jumps (spans taken per block)."""

    def __init__(self, v_rows, h, u_inf):
        self.v_rows, self.h, self.u_inf = v_rows, h, u_inf
        self.j = -U_BLOCK_ROWS - 1  # the stored row at rows[0]

    def pair(self, s):
        if s > self.j + U_BLOCK_ROWS:
            self.j, self.spans = s - 1, None
            self.rows = prefix_sum(self.u_inf, self.h,
                                   self.v_rows[s - 1:s + U_BLOCK_ROWS])
        return self.rows[s - 1 - self.j], self.rows[s - self.j]

    def span(self, s):
        self.pair(s)
        if self.spans is None:
            self.spans = _row_spans(self.rows)
        (u_lo, u_hi), k = self.spans, s - self.j
        return min(u_lo[k - 1], u_lo[k]), max(u_hi[k - 1], u_hi[k])


def _marker_now(u_before, u_after, lam, a, b, ue):
    """The padded u of window [a, b) at weight lam of u_after, blended
    linearly with u_before on cells a-2 to b+1 (u_before at lam = 0) in
    the ghost-padded buffer ue (cell i at ue[i + 2]); returns ue[a:b+4]."""
    lo, hi = max(a - 2, 0), min(b + 2, len(u_before))
    cells = ue[lo + 2:hi + 2]
    if lam == 0.0:
        cells[:] = u_before[lo:hi]
    else:
        # (1 - lam) u + lam u', operation by operation
        np.multiply(u_before[lo:hi], 1.0 - lam, out=cells)
        cells += lam * u_after[lo:hi]
    _refresh_ghosts(ue, lo, hi)
    return ue[a:b + 4]


def _refresh_ghosts(state, a, b):
    """After cells [a, b) of the ghost-padded state (cell i at column
    i + 2) were written, copy each edge cell among them to its ghosts."""
    if a == 0:
        state[..., :2] = state[..., 2:3]
    if b == state.shape[-1] - 4:
        state[..., -2:] = state[..., -3:-2]


def _march_slab(rho, v, w, times, v_rows, model, h, cfl, u_inf):
    """March (rho, v, w) through all stored times with the marker field
    frozen at the u of v_rows (the previous iterate's), linear in t.

    Returns (SlabIterate, plan), plan listing each step's (a, b, s, lam,
    dt, speed): its window [a, b), the stored row s it marches towards,
    the weight lam of that row in u_now, its dt and its CFL speed.  The
    march audits nothing; ``_replay_density`` audits a kept march from its
    plan.

    Each step runs the kernels on one window [a, b) of cells and writes it
    back.  The window holds every cell whose rho, v, w or u_now differs,
    as int64 bits, from a neighbour; outside it each array is constant on
    each side and equal, bit for bit, to the window's end cell.  So:

    - the window's copy ghosts equal its real neighbours, and its fluxes
      equal the full march's at the same interfaces, its two end fluxes
      the domain's end fluxes (influx is unchanged);
    - an outside cell has equal fluxes on both faces, F - F = +0.0, and
      keeps rho and the markers (x - (dt/h) 0.0 is x, -0.0 included);
    - the range check and ``state_speed`` (a pointwise closure) see every
      distinct value of the full arrays, so dt, each raised error and its
      message's extremes are unchanged (a message whose extreme is a zero
      carried by both +0.0 and -0.0 cells may print either sign).

    This needs finite fluxes and donor ratios, which the range check and a
    marker dominated by the density (|q| <= M rho) give.

    The window is kept without a full-width scan per step.  After a step
    on [a, b) the jumps of (rho, v, w) lie in [a-1, b+1); one exact scan
    of the window at each stored time re-tightens it.  u_now blends rows
    s-1 and s of u, so its jumps lie in the union of their spans.

    (rho, v, w) are kept as one (3, n+4) array with two copy ghosts per
    side, cell i at column i + 2, and u_now is blended into a padded
    buffer alike.  A step on [a, b) reads its padded stencil as the view
    of columns a to b+3: cells a-2, a-1, b and b+1, or the ghosts where
    those fall off the domain, equal the window's end cells bit for bit,
    so the view is the window padded by ``pad2``.  The ghosts are
    refreshed when a window reaches an edge cell, the only steps that can
    move it.
    """
    n = len(rho)
    shape = (len(times), n)
    out = SlabIterate(times, *(np.empty(shape) for _ in range(3)),
                      influx=np.empty(len(times)))
    state = pad2(np.stack((rho, v, w)))  # rows rho, v, w; stepped in place
    cells = state[:, 2:-2]
    ue = np.empty(n + 4)  # u_now, ghost-padded
    plan = []
    frozen, influx = _FrozenU(v_rows, h, u_inf), 0.0
    tlist = times.tolist()
    t = tlist[0]
    time_tol = 1e-13 * max(1.0, abs(tlist[-1]))
    # times[0] is t, so row 0 stores the start state without a step, and
    # the scan of all cells after it sets the window [lo, hi) of (rho, v, w)
    lo, hi = 0, n
    for s, t_next in enumerate(tlist):
        if s:  # rows s-1 and s of u, once per stored time
            u_pair, (u_lo, u_hi) = frozen.pair(s), frozen.span(s)
        while t_next - t > time_tol:
            # t lies in [times[s-1], times[s])
            a, b = min(lo, u_lo), max(hi, u_hi)
            a, b = (a, b) if a < b else (0, 1)
            lam = (t - tlist[s - 1]) / (t_next - tlist[s - 1])
            u_now = _marker_now(*u_pair, lam, a, b, ue)
            re, qe = state[0, a:b + 4], state[1:, a:b + 4]
            speed = max_speed(re[2:-2], u_now[2:-2], model)
            dt_stable = cfl * h / speed
            remaining = t_next - t
            dt = min(dt_stable, remaining)
            # the Godunov parts are dropped here, before the marker step
            rho_new, flux = density_step_arrays(re, u_now, h, dt, model,
                                                speed)[:2]
            cells[1:, a:b] = marker_step_arrays(qe, re, flux, h, dt)
            influx += dt * (flux[0] - flux[-1])
            plan.append((a, b, s, lam, dt, speed))
            cells[0, a:b] = rho_new
            _refresh_ghosts(state, a, b)
            lo, hi = max(a - 1, 0), min(b + 1, n)
            t = t_next if dt >= remaining * (1.0 - 1e-12) else t + dt
        t = t_next
        # (rho, v, w) are constant outside [lo, hi), and so inside it when
        # a row has no jump there; with no jump at all, the empty range
        # (n, 0) that a scan of all cells gives
        span_lo, span_hi = _row_spans(cells[:, lo:hi])
        lo, hi = lo + min(span_lo), lo + max(span_hi)
        if lo >= hi:
            lo, hi = n, 0
        out.rho[s], out.v[s], out.w[s] = cells
        out.influx[s] = influx
    return out, plan


def _audit_batches(plan):
    """The batches of plan's steps that share an audit kernel call, as
    index ranges [lo, hi): each closes once it holds AUDIT_BATCH_CELLS
    cells, the last at the plan's end."""
    bounds, lo, cells = [], 0, 0
    for i, (a, b, *_) in enumerate(plan):
        cells += b - a
        if cells >= AUDIT_BATCH_CELLS or i == len(plan) - 1:
            bounds.append((lo, i + 1))
            lo, cells = i + 1, 0
    return bounds


def _replay_density(rho, v_rows, u_inf, plan, model, h, levels):
    """Audit the density steps that a march from rho frozen at the u of
    (v_rows, u_inf) logged in plan: re-run each and return, per entropy
    level in levels, the largest residual over the steps (-inf if none).

    The density step reads neither v nor w, so each replayed step gets the
    march's (rho_old, u_now, dt, speed) bit for bit.  The march has
    range-checked them, so the replay skips ``max_speed``, the marker
    transport, the window scans, the spans of u and the stored rows.

    One kernel call audits each batch of steps holding AUDIT_BATCH_CELLS
    cells (``_audit_batches``), all in one AuditWorkspace sized for the
    batch with the most interfaces.  A step keeps its rho_new, its Godunov
    parts and copies of its padded rho and u_now windows, which the next
    step overwrites.

    A step audits the cells of its window.  A cell i outside it has a
    constant stencil (see _march_slab): rho_old and u are the same bits at
    i-1, i and i+1 (the copy ghosts make each edge cell its own outer
    neighbour), and so are rho_new[i] and rho_old[i].  Its residual is
    +0.0 at every level.  Its two interface entropy fluxes are computed
    from the same bits, so they are the same bits and their difference is
    +0.0; |d_new| - |d_old| is x - x = +0.0; u[i+1] - u[i-1] is +0.0, so
    the source term is +-0.0; and +0.0 + +-0.0 = +0.0.  This needs finite
    values, which the range check and an admissible closure (pointwise,
    finite on the box) give.  So the maximum over all the steps' full rows
    is the maximum over their windows, raised to +0.0, once per slab,
    when any window is narrower than the n cells.

    No residual is -0.0: |d_new| - |d_old| is never -0.0, dividing a
    nonzero by dt <= 1 cannot round to zero (solve_global's slabs are at
    most 1/4 long), and x + y is -0.0 only when both are.  So the maximum
    is one number whatever the order and however the steps are batched,
    and NaN propagates.
    """
    n = len(rho)
    rho = pad2(rho)  # ghost-padded, as are the buffers of _march_slab
    ue, frozen = np.empty(n + 4), _FrozenU(v_rows, h, u_inf)
    entropy_max = np.full(len(levels), -math.inf)
    batches = _audit_batches(plan)
    # a step of m cells has m + 1 interfaces
    faces = max((sum(b - a + 1 for a, b, *_ in plan[lo:hi])
                 for lo, hi in batches), default=0)
    workspace = AuditWorkspace(len(levels) * faces)
    for lo, hi in batches:
        batch = []
        for a, b, s, lam, dt, speed in plan[lo:hi]:
            u_now = _marker_now(*frozen.pair(s), lam, a, b, ue)
            re = rho[a:b + 4]
            rho_new, _, parts = density_step_arrays(re, u_now, h, dt, model,
                                                    speed)
            batch.append((dt, rho_new,
                          (re.copy(), u_now.copy(), *parts[2:])))
            rho[a + 2:b + 2] = rho_new
            _refresh_ghosts(rho, a, b)
        # np.maximum keeps a NaN residual, which Python's max would drop
        np.maximum(entropy_residual_maxima(batch, levels, h, model,
                                           workspace),
                   entropy_max, out=entropy_max)
    if any(b - a < n for a, b, *_ in plan):
        np.maximum(entropy_max, 0.0, out=entropy_max)
    return entropy_max


def picard_slab(state: SystemState, t0: float, t1: float,
                ctx: ProblemContext, cfg: SlabConfig, extra_events=()):
    """Iterate one slab to convergence.

    Returns (kept SlabIterate, PicardTrace, the slab's SlabRecord); the
    record carries the trace.  The Picard marches audit nothing.  Once Phi
    reaches tol_phi the record is built from the kept march's step plan,
    and when cfg.entropy_levels > 0 that march's density steps are
    replayed with the entropy audit on: no march runs after the one that
    converged.  A march whose v rows repeat its frozen rows is every later
    iterate (see the module docstring).  t0 < t1 must be finite and each
    extra event in [t0, t1 + 1e-12 max(1, |t1|)]; one past t1 merges into
    t1.  Raises PicardDivergenceError carrying the trace when tol_phi is
    not reached within max_picard_iters iterates.
    """
    t0 = require_real("t0", t0)
    t1 = require_real("t1", t1, t0, open_lo=True)
    time_tol = 1e-12 * max(1.0, abs(t1))
    extra = [require_real("extra event", e, t0, t1 + time_tol)
             for e in extra_events]
    model = ctx.model
    h = state.grid.h
    base = np.linspace(t0, t1, cfg.snapshots_per_slab + 1)
    events = _merge_times(base, extra, time_tol)

    rho0, v0, w0 = (f.values for f in (state.rho, state.v, state.w))
    k_levels = np.linspace(0.0, 1.0, cfg.entropy_levels)

    # what the next iterate reads: the start rows frozen, Phi's v term
    rho_prev, v_prev = (np.broadcast_to(a, (len(events), len(a)))
                        for a in (rho0, v0))
    v_term = np.zeros(len(events))
    tol = ctx.tol_phi
    phis = []
    repeated = None  # (iterate, plan) of a march whose v rows repeat

    while len(phis) + 1 < cfg.max_picard_iters:
        if repeated is None:
            curr, plan = _march_slab(rho0, v0, w0, events, v_prev, model, h,
                                     cfg.cfl, state.u_inf)
        else:
            curr, plan = repeated
        # Phi at every stored time, then its sup over them
        phi = float((_row_l1(rho_prev, curr.rho, h) + v_term).max())
        phis.append(phi)
        if phi <= tol:
            trace = PicardTrace(t0, t1, tol, phis, True,
                                f"phi {phi:.3e} <= tol {tol:.3e}")
            del rho_prev  # the replay reads only v
            entropy_max = (_replay_density(rho0, v_prev, state.u_inf, plan,
                                           model, h, k_levels)
                           if len(k_levels) else np.empty(0))
            max_cfl = max((dt * speed / h for *_, dt, speed in plan),
                          default=0.0)
            return curr, trace, SlabRecord(trace, len(plan), max_cfl,
                                           k_levels, entropy_max)
        if repeated is None and np.array_equal(curr.v.view(np.int64),
                                               v_prev.view(np.int64)):
            repeated = curr, plan
        v_term = _row_l1(v_prev, curr.v, h)
        rho_prev, v_prev = curr.rho, curr.v
        del curr, plan  # its w is dropped unless its rows repeat
    stop = (f"phi still {phis[-1]:.3e} after {cfg.max_picard_iters} "
            f"iterates (tol {tol:.3e})")
    raise PicardDivergenceError(
        f"slab [{t0:g}, {t1:g}] did not converge: {stop}",
        PicardTrace(t0, t1, tol, phis, False, stop))


@dataclass
class Trajectory:
    """Solver output: states at the output times plus per-slab records
    (each slab's SlabRecord, carrying its trace)."""

    states: list
    output_times: np.ndarray
    slabs: list
    series_times: np.ndarray
    mass_series: np.ndarray
    tv_series: np.ndarray
    influx_series: np.ndarray
    context: ProblemContext

    @property
    def grid(self) -> Grid:
        return self.states[0].grid

    def final_state(self) -> SystemState:
        return self.states[-1]


def _wave_bound(model: VelocityModel, bounds: ModelBounds) -> float:
    lattice = np.linspace(0.0, max(bounds.u_max, 0.0), 65)
    return max(bounds.v_sup, model.max_wave_speed(lattice), SPEED_FLOOR)


def make_context(data: InitialData, grid: Grid, t_final: float,
                 model: VelocityModel, cfg: SlabConfig
                 ) -> tuple[ProblemContext, SystemState]:
    """Validate everything and assemble the run constants."""
    check_run_span(t_final)
    state0 = build_initial_state(data, grid)
    u_max = float(state0.u.values.max())
    require_valid_model(model, u_max)
    bounds = model.sup_bounds(u_max)
    wave = _wave_bound(model, bounds)
    check_margins(state0, t_final, wave)
    tv0 = total_variation(state0.rho)
    rho0_l1 = l1_norm(state0.rho)
    z0_sup = float(np.abs(state0.z.values).max())
    psi0_sup = float(np.abs(state0.psi.values).max())
    c_tilde = compute_tilde_C(bounds, z0_sup, psi0_sup, rho0_l1)
    tol_phi = cfg.tol_phi if cfg.tol_phi is not None \
        else max(grid.h * rho0_l1, 1e-14)
    constant_u = bool(np.abs(state0.v.values).max() <= 1e-14)
    ctx = ProblemContext(
        model=model, grid=grid, t_final=float(t_final),
        u0_sup=u_max, z0_sup=z0_sup, psi0_sup=psi0_sup, rho0_l1=rho0_l1, tv0=tv0,
        m0=compute_M0(state0.rho), c_tilde=c_tilde,
        tau0=compute_tau0(c_tilde), tol_phi=tol_phi,
        wave_bound=wave, constant_u=constant_u, bounds=bounds)
    return ctx, state0


def check_run_span(t_final: float, n_output: int = 1) -> None:
    """Range checks of a run's end time and its number of output
    intervals."""
    require_real("t_final", t_final, 0, open_lo=True)
    require_count("n_output", n_output, 1)


def solve_global(data: InitialData, grid: Grid, t_final: float,
                 model: VelocityModel, cfg: SlabConfig | None = None,
                 n_output: int = 32) -> Trajectory:
    """Chain converged slabs from 0 to t_final.

    States are stored at n_output+1 uniform output times.  A slab that fails
    to converge triggers halving of the slab length, at most five times per
    run, after which the divergence error propagates with its trace.
    """
    cfg = cfg or SlabConfig()
    check_run_span(t_final, n_output)
    ctx, state0 = make_context(data, grid, t_final, model, cfg)
    output_times = np.linspace(0.0, t_final, n_output + 1)
    time_tol = 1e-12 * max(1.0, t_final)

    states = [state0]
    slabs = []
    # per slab: times, mass, TV and cumulative influx after its start time
    series = [([0.0], [state0.mass()], [total_variation(state0.rho)], [0.0])]

    t = 0.0
    tau = ctx.tau0
    state = state0
    halvings = 0
    cum_influx = 0.0
    while t < t_final - time_tol:
        t1 = min(t + tau, t_final)
        inner = output_times[(output_times > t + time_tol)
                             & (output_times <= t1 + time_tol)]
        try:
            # output times up to time_tol past t1 are this slab's; time_tol
            # may exceed picard_slab's own, so they go in as t1
            iterate, _, record = picard_slab(state, t, t1, ctx, cfg,
                                             np.minimum(inner, t1))
        except PicardDivergenceError:
            halvings += 1
            if halvings > MAX_TAU_HALVINGS:
                raise
            tau *= 0.5
            continue
        rho = iterate.rho[1:]
        series.append((iterate.times[1:], grid.h * rho.sum(axis=1),
                       _abs_row_sums(np.diff(rho, axis=1)),
                       cum_influx + iterate.influx[1:]))
        for ot in inner:
            s = int(np.argmin(np.abs(iterate.times - ot)))
            states.append(state_from_arrays(
                float(ot), iterate.rho[s], iterate.v[s], iterate.w[s],
                state.z_inf, state.u_inf, grid))
        cum_influx += iterate.influx[-1]
        slabs.append(record)
        state = state_from_arrays(t1, iterate.rho[-1], iterate.v[-1],
                                  iterate.w[-1], state.z_inf, state.u_inf,
                                  grid)
        del iterate, rho  # the next slab reads only state
        t = t1
    series_times, mass, tv, influx = (np.concatenate(c) for c in zip(*series))
    return Trajectory(states=states, output_times=output_times, slabs=slabs,
                      series_times=series_times, mass_series=mass,
                      tv_series=tv, influx_series=influx, context=ctx)
