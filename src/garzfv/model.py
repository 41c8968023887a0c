"""Velocity closures V(rho, u) for the GARZ traffic system.

The system evolves a density rho in [0, 1] and a driver marker u >= 0 with

    d_t rho + d_x [V(rho, u) rho] = 0,
    d_t u   + V(rho, u) d_x u     = 0.

Every closure must satisfy, on the working box [0, 1] x [0, u_max]:

    V >= 0,    dV/drho <= 0,    dV/du >= 0,    V(1, u) = 0 for all u,

and be twice continuously differentiable.  ``validate_model`` also requires
the flux f = rho V to be unimodal in rho, which these do not imply: the
Godunov flux takes its maximum at the critical density, closed-form for
the built-ins and bisected on df/drho otherwise.  Two closures are built in:

* ``greenshields``   V = u (1 - rho)
* ``power``          V = u (1 - rho)**gamma, gamma >= 1

``make_model(name, gamma)`` builds either (gamma applies to ``power``
only).  Built-ins carry analytic derivatives and sup-norm bounds.  A
custom closure is ``CustomVelocityModel(velocity)`` (finite-difference
derivatives, lattice-sampled bounds) or a ``VelocityModel`` subclass
overriding the derivatives it knows, as ``PowerLawModel`` does.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import require_count, require_real
from .errors import InputRangeError, ModelValidationError

FD_STEP = 1e-6        # centered first differences
FD_STEP_SECOND = 1e-4  # second differences (1e-6 sits on the cancellation floor)
CRIT_BISECTIONS = 40   # halvings of [0, 1] for the critical density (~1e-12)
RANGE_TOL = 1e-9
VALIDATION_TOL = 1e-12
# one-sided differences of V at a box edge, order -> (steps, growth tol):
# from the first step to the second, a smooth closure's first difference
# moves by about FD_STEP |V''| / 2 and its second by about 1e-3 |V'''| (10 %
# for u (1 - rho^100) at rho = 1); more growth is an unbounded derivative,
# such as u (1 - rho)^1.5's second at rho = 1 (a factor 10).  The second
# differences' steps stay above their rounding floor, eps |V| / step^2
EDGE_DIFFERENCES = {1: ((FD_STEP, FD_STEP / 100.0), 1e-3),
                    2: ((1e-3, 1e-5), 0.25)}


def _require_box(rho, u):
    """Raise unless rho is (numerically) in [0,1] and u >= 0; NaN raises."""
    rho = np.asarray(rho, dtype=float)
    u = np.asarray(u, dtype=float)
    if rho.size and not (rho.min() >= -RANGE_TOL
                         and rho.max() <= 1.0 + RANGE_TOL):
        raise InputRangeError(
            f"density outside [0, 1]: range [{rho.min()}, {rho.max()}]")
    if u.size and not u.min() >= -RANGE_TOL:
        raise InputRangeError(f"marker u must be nonnegative, min {u.min()}")
    return rho, u


@dataclass(frozen=True)
class ModelBounds:
    """Sup norms of V and its derivatives over [0,1] x [0, u_max]."""

    u_max: float
    v_sup: float
    d_u_sup: float
    d_u_rho_sup: float
    d_uu_sup: float


@dataclass(frozen=True)
class ConditionCheck:
    name: str
    passed: bool
    worst_violation: float
    where: tuple[float, float]
    detail: str = ""


@dataclass(frozen=True)
class ModelValidationReport:
    model_name: str
    u_max: float
    n_samples: int
    checks: tuple[ConditionCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def summary(self) -> str:
        lines = [f"model '{self.model_name}' on [0,1]x[0,{self.u_max:g}] "
                 f"({self.n_samples}x{self.n_samples} samples)"]
        for c in self.checks:
            tag = "ok  " if c.passed else "FAIL"
            lines.append(f"  [{tag}] {c.name:22s} worst={c.worst_violation:.3e} "
                         f"at (rho={c.where[0]:.4f}, u={c.where[1]:.4f})")
            if c.detail:
                lines.append(f"         {c.detail}")
        return "\n".join(lines)


class VelocityModel:
    """Base velocity closure.

    Subclasses must provide ``velocity`` (numpy-vectorized).  Derivatives
    default to centered finite differences, clamped to the working box at its
    edges so closures need not be defined outside it.
    """

    name = "custom"

    # -- closure and derivatives -------------------------------------------

    def velocity(self, rho, u):
        raise NotImplementedError

    def _fd_rho(self, fun, rho, u, step):
        lo = np.maximum(np.asarray(rho, dtype=float) - step, 0.0)
        hi = np.minimum(np.asarray(rho, dtype=float) + step, 1.0)
        return (fun(hi, u) - fun(lo, u)) / (hi - lo)

    def _fd_u(self, fun, rho, u, step):
        lo = np.maximum(np.asarray(u, dtype=float) - step, 0.0)
        hi = np.asarray(u, dtype=float) + step
        return (fun(rho, hi) - fun(rho, lo)) / (hi - lo)

    def d_rho(self, rho, u):
        """dV/drho, centered difference unless overridden."""
        return self._fd_rho(self.velocity, rho, u, FD_STEP)

    def d_u(self, rho, u):
        """dV/du, centered difference unless overridden."""
        return self._fd_u(self.velocity, rho, u, FD_STEP)

    def d_u_levels(self, levels, u):
        """dV/du at each level (rows) and marker value (columns), or a column
        that broadcasts to that; one ``d_u`` call per level here."""
        out = np.empty((len(levels), len(u)))
        for j, level in enumerate(levels.tolist()):
            out[j] = self.d_u(level, u)
        return out

    def d_u_rho(self, rho, u):
        """d2V/du drho (rho-derivative of d_u)."""
        return self._fd_rho(lambda r, w: self._fd_u(self.velocity, r, w,
                                                    FD_STEP_SECOND),
                            rho, u, FD_STEP_SECOND)

    def d_uu(self, rho, u):
        """d2V/du2."""
        u = np.asarray(u, dtype=float)
        lo = np.maximum(u - FD_STEP_SECOND, 0.0)
        hi = u + FD_STEP_SECOND
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        return (self.velocity(rho, hi) - 2.0 * self.velocity(rho, mid)
                + self.velocity(rho, lo)) / half ** 2

    # -- derived quantities -------------------------------------------------

    def flux(self, rho, u):
        """f(rho, u) = rho * V(rho, u); exactly zero at rho = 0 and rho = 1."""
        rho, u = _require_box(rho, u)
        return rho * self.velocity(rho, u)

    def critical_density(self, u):
        """Argmax of f(., u) over [0, 1], an array of u's shape.

        Bisects the sign of lambda1 = df/drho, unchecked (midpoints lie in
        [0, 1]), exact for the unimodal flux that ``validate_model`` requires.
        """
        u = np.asarray(u, dtype=float)
        lo = np.zeros(u.shape)
        hi = np.ones(u.shape)
        for _ in range(CRIT_BISECTIONS):
            mid = 0.5 * (lo + hi)
            rising = self.velocity(mid, u) + mid * self.d_rho(mid, u) > 0.0
            lo = np.where(rising, mid, lo)
            hi = np.where(rising, hi, mid)
        return 0.5 * (lo + hi)

    def side_fluxes(self, cells, u_if):
        """f = rho V(rho, u_if[i]) at both cells of each interface i: the
        pair (f at cells[:-1], f at cells[1:]), unchecked (the step kernel
        range-checked its cells).  One ``velocity`` call per side here."""
        rl, rr = cells[:-1], cells[1:]
        return rl * self.velocity(rl, u_if), rr * self.velocity(rr, u_if)

    def critical_flux(self, u_if, rl, rr):
        """(c, f(c, u_if)) with c = ``critical_density(u_if)`` on the
        interfaces with rl > rr, the only ones whose Godunov value reads c;
        elsewhere c is 0.5, a box value the closure can be evaluated at.
        A pointwise closure bisects each value on its own, so bisecting
        each distinct int64 bit pattern of u_if there once gives the bits
        of bisecting every interface.
        """
        crit = np.full(u_if.shape, 0.5)
        idx = np.flatnonzero(rl > rr)
        if idx.size:
            bits, inverse = np.unique(u_if[idx].view(np.int64),
                                      return_inverse=True)
            crit[idx] = self.critical_density(bits.view(float)).take(inverse)
        return crit, crit * self.velocity(crit, u_if)

    def state_speed(self, rho, u):
        """CFL speed: max of |lambda1|, |lambda2| and max_wave_speed(u) over
        the pair's cells, unchecked (``scalar.max_speed`` checks them)."""
        v = self.velocity(rho, u)
        lam1 = v + rho * self.d_rho(rho, u)
        return max(float(np.abs(lam1).max()), float(np.abs(v).max()),
                   self.max_wave_speed(u))

    def max_wave_speed(self, u) -> float:
        """sup over rho in [0,1] and the marker values u of
        |d/drho f(rho, u)|."""
        uv = np.asarray(u, dtype=float).ravel()[None, :]
        rr = np.linspace(0.0, 1.0, 65)[:, None]
        dfd = self.velocity(rr, uv) + rr * self.d_rho(rr, uv)
        return float(np.abs(dfd).max())

    def sup_bounds(self, u_max) -> ModelBounds:
        """Lattice-sampled (241 x 241) sup norms over [0,1] x [0,u_max]."""
        u_max = require_real("u_max", u_max, 0)
        rho = np.linspace(0.0, 1.0, 241)[:, None]
        u = np.linspace(0.0, u_max, 241)[None, :]
        return ModelBounds(
            u_max=u_max,
            v_sup=float(np.abs(self.velocity(rho, u)).max()),
            d_u_sup=float(np.abs(self.d_u(rho, u)).max()),
            d_u_rho_sup=float(np.abs(self.d_u_rho(rho, u)).max()),
            d_uu_sup=float(np.abs(self.d_uu(rho, u)).max()),
        )


class PowerLawModel(VelocityModel):
    """V(rho, u) = u * (1 - rho)**gamma with gamma >= 1, gamma fixed at
    construction (the step constants are taken from it there)."""

    name = "power"

    def __init__(self, gamma: float = 1.0):
        self.gamma = require_real("gamma", gamma, 1)
        # c = 1/(1+gamma) and (1 - c)^gamma, an array power as ``velocity``
        # takes it (a 0-d power can round differently: gamma = 2.5)
        self._crit = 1.0 / (1.0 + self.gamma)
        self._crit_gap = self._gap(np.full(1, self._crit)) ** self.gamma

    def _gap(self, rho):
        # clamp so rho = 1 gives exactly 0 and tolerated overshoots stay real
        return np.maximum(1.0 - np.asarray(rho, dtype=float), 0.0)

    def velocity(self, rho, u):
        return np.asarray(u, dtype=float) * self._gap(rho) ** self.gamma

    def d_rho(self, rho, u):
        return -self.gamma * np.asarray(u, dtype=float) \
            * self._gap(rho) ** (self.gamma - 1.0)

    def d_u(self, rho, u):
        return self._gap(rho) ** self.gamma * np.ones_like(u)

    def d_u_levels(self, levels, u):
        """The column (1 - k)^gamma, each entry the scalar power that d_u
        takes (the C library's pow, on Python floats here): an array power
        can round differently (gamma = 2.5 shows it)."""
        return np.array([max(1.0 - level, 0.0) ** self.gamma
                         for level in levels.tolist()])[:, None]

    def d_u_rho(self, rho, u):
        return (-self.gamma * self._gap(rho) ** (self.gamma - 1.0)
                * np.ones_like(u))

    def d_uu(self, rho, u):
        return np.zeros(np.broadcast_shapes(np.shape(rho), np.shape(u)))

    def critical_density(self, u):
        """d/drho [u rho (1-rho)^g] = u (1-rho)^(g-1) (1 - (1+g) rho)."""
        return np.full(np.shape(u), self._crit)

    def side_fluxes(self, cells, u_if):
        """(1 - rho)^gamma once per cell, then rho (u (1 - rho)^gamma) on
        each side, the operation order of ``velocity``.  For gamma = 1 the
        power is skipped: x**1 is x."""
        g = self._gap(cells)
        if self.gamma != 1.0:
            g = g ** self.gamma
        return cells[:-1] * (u_if * g[:-1]), cells[1:] * (u_if * g[1:])

    def critical_flux(self, u_if, rl, rr):
        """The constant c = 1/(1+gamma) as one value and c u (1 - c)^gamma,
        from the constants taken in ``__init__``; the states are not read."""
        return self._crit, self._crit * (u_if * self._crit_gap)

    def state_speed(self, rho, u):
        """max |u|, the base rule's value for rho in [0, 1].  With s = 1 - rho,
        lambda1 / u = s^(g-1) ((1+g) s - g) has maximum 1 (s = 1) and minimum
        -((g-1)/(g+1))^(g-1) >= -1 on [0, 1], and lambda2 = u s^g <= u, in
        floating point too.  At overshoot rho = -e >= -1e-9 the base rule reads
        (1+e)^(g-1) (1+(1+g)e) |u|, about 2g e more (relative), this |u|."""
        return float(np.abs(u).max())

    def sup_bounds(self, u_max) -> ModelBounds:
        u_max = require_real("u_max", u_max, 0)
        return ModelBounds(
            u_max=u_max,
            v_sup=u_max,
            d_u_sup=1.0,
            d_u_rho_sup=self.gamma,
            d_uu_sup=0.0,
        )


class GreenshieldsModel(PowerLawModel):
    """V(rho, u) = u * (1 - rho)."""

    name = "greenshields"

    def __init__(self):
        super().__init__(gamma=1.0)


class CustomVelocityModel(VelocityModel):
    """Wrap a user closure; derivatives by finite differences.

    The callable must be numpy-vectorized and defined on [0,1] x [0, inf).
    A closure with analytic derivatives subclasses VelocityModel instead.
    """

    def __init__(self, velocity, name="custom"):
        self._velocity = velocity
        self.name = name

    def velocity(self, rho, u):
        return self._velocity(np.asarray(rho, dtype=float),
                              np.asarray(u, dtype=float))


def make_model(name: str, gamma: float = 1.0) -> VelocityModel:
    """Instantiate a built-in closure by config name; gamma is the power-law
    exponent and must stay 1 for greenshields."""
    if name == "greenshields":
        if gamma != 1.0:
            raise InputRangeError(
                f"greenshields has gamma = 1, got gamma = {gamma}; "
                "use the power model")
        return GreenshieldsModel()
    if name == "power":
        return PowerLawModel(gamma)
    raise InputRangeError(f"unknown model name '{name}'")


def validate_model(model: VelocityModel, u_max: float,
                   n_samples: int = 101) -> ModelValidationReport:
    """Check the closure conditions on a lattice of [0,1] x [0, u_max].

    Six checks: one per structural condition, twice-differentiable (proxied
    by finiteness of V and all four sampled derivatives, and by one-sided
    first and second differences of V at the edges rho = 0, rho = 1 and
    u = 0 that settle as the step shrinks, from 1e-6 to 1e-8 and from 1e-3
    to 1e-5: a clamped finite difference is finite for any continuous V,
    so only its growth shows an unbounded slope such as that of
    u sqrt(1 - rho) at rho = 1, or an unbounded curvature such as that of
    u (1 - rho)^1.5 there), V >= 0,
    dV/drho <= 0, dV/du >= 0 and V(1, u) = 0, plus a unimodal flux
    f = rho V in rho, which the Godunov flux relies on: once df/drho falls
    below -1e-12 it may not rise above 1e-12 at a larger lattice density.
    A check passes iff its worst violation is <= 1e-12.  Validation is
    restricted to the working box; the closure is never probed outside it.
    A closure or derivative that raises, or whose result does not broadcast
    to the lattice, raises ModelValidationError naming the closure, and
    so does a model that is not a VelocityModel, naming its type.
    """
    if not isinstance(model, VelocityModel):
        raise ModelValidationError("velocity closure must be a VelocityModel,"
                                   f" got {type(model).__name__}")
    require_count("n_samples", n_samples, 2)
    u_max = require_real("u_max", u_max, 0)
    rho = np.linspace(0.0, 1.0, n_samples)[:, None]
    u = np.linspace(0.0, u_max, n_samples)[None, :]
    rho_b, u_b = np.broadcast_arrays(rho, u)

    def sample(what, fun, at=(rho, u)):
        try:
            return np.broadcast_to(np.asarray(fun(*at), dtype=float),
                                   np.broadcast(*at).shape)
        except Exception as exc:  # user code may raise anything
            raise ModelValidationError(
                f"velocity closure '{model.name}': {what} failed on the "
                f"{n_samples}x{n_samples} validation lattice "
                f"({type(exc).__name__}: {exc})") from exc

    v = sample("velocity", model.velocity)
    dr = sample("d_rho", model.d_rho)
    du = sample("d_u", model.d_u)
    dur = sample("d_u_rho", model.d_u_rho)
    duu = sample("d_uu", model.d_uu)

    def located_max(arr):
        arr = np.broadcast_to(arr, v.shape)
        flat = int(np.argmax(arr))
        i, j = np.unravel_index(flat, v.shape)
        return float(arr[i, j]), (float(rho_b[i, j]), float(u_b[i, j]))

    checks = []

    finite = np.isfinite(v) & np.isfinite(dr) & np.isfinite(du) \
        & np.isfinite(dur) & np.isfinite(duu)
    worst, where = located_max(np.where(finite, 0.0, np.inf))
    detail = ""
    if worst == 0.0:
        worst, where, detail = _edge_slope_growth(sample, model, rho, u)
    checks.append(ConditionCheck("smooth_c2", worst <= VALIDATION_TOL,
                                 worst, where, detail))

    worst, where = located_max(np.maximum(-v, 0.0))
    checks.append(ConditionCheck("v_nonnegative", worst <= VALIDATION_TOL,
                                 worst, where))

    worst, where = located_max(np.maximum(dr, 0.0))
    checks.append(ConditionCheck("d_rho_nonpositive", worst <= VALIDATION_TOL,
                                 worst, where))

    worst, where = located_max(np.maximum(-du, 0.0))
    checks.append(ConditionCheck("d_u_nonnegative", worst <= VALIDATION_TOL,
                                 worst, where))

    # the last lattice row is rho = 1 exactly
    worst, where = located_max(np.abs(v[-1:]))
    checks.append(ConditionCheck("jam_velocity_zero", worst <= VALIDATION_TOL,
                                 worst, where))

    slope = v + rho * dr
    fell = np.logical_or.accumulate(slope < -VALIDATION_TOL, axis=0)
    rise = np.zeros(v.shape)
    rise[1:] = np.where(fell[:-1], np.maximum(slope[1:], 0.0), 0.0)
    worst, where = located_max(rise)
    checks.append(ConditionCheck("flux_unimodal", worst <= VALIDATION_TOL,
                                 worst, where))

    return ModelValidationReport(model.name, u_max, n_samples,
                                 tuple(checks))


def _edge_slope_growth(sample, model, rho, u):
    """(violation, where, detail): how far the magnitude of a one-sided
    first or second difference of V at the edge rho = 0, rho = 1 or u = 0
    grows from its order's first EDGE_DIFFERENCES step to its second,
    relative to 1 + its first value, beyond that order's tolerance, at its
    worst; detail names the edge and the difference."""
    worst, where, detail = 0.0, (0.0, 0.0), ""
    for var, edge, sign in (("rho", 0.0, 1.0), ("rho", 1.0, -1.0),
                            ("u", 0.0, 1.0)):
        along = u if var == "rho" else rho

        def v_at(x):
            at = (x, u) if var == "rho" else (rho, x)
            return sample("velocity", model.velocity, at).ravel()

        def difference(order, step):
            # d is the step actually taken; edge + j d is exact for j <= 2
            d = (edge + sign * step) - edge
            values = [v_at(edge + j * d) for j in range(order + 1)]
            return np.diff(values, n=order, axis=0)[0] / d ** order

        for order, (steps, tol) in EDGE_DIFFERENCES.items():
            d1, d2 = (difference(order, s) for s in steps)
            growth = (np.abs(d2) - np.abs(d1)) / (1.0 + np.abs(d1))
            i = int(np.argmax(growth))
            if growth[i] - tol > worst:
                worst = float(growth[i]) - tol
                x = float(along.ravel()[i])
                where = (edge, x) if var == "rho" else (x, edge)
                name = f"dV/d{var}" if order == 1 else f"d2V/d{var}2"
                detail = (f"one-sided {name} at {var} = {edge:g} grows from "
                          f"{d1[i]:.3e} to {d2[i]:.3e} as the step shrinks "
                          f"from {steps[0]:g} to {steps[1]:g}: V is not "
                          "C^2 on the box")
    return worst, where, detail


def require_valid_model(model: VelocityModel,
                        u_max: float) -> ModelValidationReport:
    """validate_model on the default lattice, raising ModelValidationError
    on failure."""
    report = validate_model(model, u_max)
    if not report.passed:
        raise ModelValidationError(
            "velocity closure failed validation:\n" + report.summary(), report)
    return report
