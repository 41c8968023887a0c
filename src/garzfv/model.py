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

from .errors import InputRangeError, ModelValidationError

FD_STEP = 1e-6        # centered first differences
FD_STEP_SECOND = 1e-4  # second differences (1e-6 sits on the cancellation floor)
CRIT_BISECTIONS = 40   # halvings of [0, 1] for the critical density (~1e-12)
RANGE_TOL = 1e-9
VALIDATION_TOL = 1e-12


def _require_box(rho, u):
    """Raise unless rho is (numerically) in [0,1] and u is nonnegative."""
    rho = np.asarray(rho, dtype=float)
    u = np.asarray(u, dtype=float)
    if rho.size and (rho.min() < -RANGE_TOL or rho.max() > 1.0 + RANGE_TOL):
        raise InputRangeError(
            f"density outside [0, 1]: range [{rho.min()}, {rho.max()}]")
    if u.size and u.min() < -RANGE_TOL:
        raise InputRangeError(f"marker u must be nonnegative, min {u.min()}")
    return rho, u


@dataclass(frozen=True)
class ModelBounds:
    """Sup norms of V and its derivatives over [0,1] x [0, u_max]."""

    u_max: float
    v_sup: float
    d_rho_sup: float
    d_u_sup: float
    d_u_rho_sup: float
    d_uu_sup: float


@dataclass(frozen=True)
class ConditionCheck:
    name: str
    passed: bool
    worst_violation: float
    where: tuple[float, float]


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

    def eigenvalues(self, rho, u):
        """(lambda1, lambda2) = (V + rho dV/drho, V)."""
        rho, u = _require_box(rho, u)
        v = self.velocity(rho, u)
        return v + rho * self.d_rho(rho, u), v

    def critical_density(self, u):
        """Argmax of f(., u) over [0, 1], an array of u's shape.

        Bisects the sign of lambda1 = df/drho, which is exact for the
        unimodal flux that ``validate_model`` requires.
        """
        u = np.asarray(u, dtype=float)
        lo = np.zeros(u.shape)
        hi = np.ones(u.shape)
        for _ in range(CRIT_BISECTIONS):
            mid = 0.5 * (lo + hi)
            rising = self.eigenvalues(mid, u)[0] > 0.0
            lo = np.where(rising, mid, lo)
            hi = np.where(rising, hi, mid)
        return 0.5 * (lo + hi)

    def max_wave_speed(self, u):
        """sup over rho in [0,1] of |d/drho f(rho, u)|, per marker value."""
        u = np.asarray(u, dtype=float)
        scalar = u.ndim == 0
        uv = np.atleast_1d(u).ravel()[None, :]
        rr = np.linspace(0.0, 1.0, 65)[:, None]
        dfd = self.velocity(rr, uv) + rr * self.d_rho(rr, uv)
        out = np.abs(dfd).max(axis=0)
        if scalar:
            return float(out[0])
        return out.reshape(np.shape(u))

    def sup_bounds(self, u_max) -> ModelBounds:
        """Lattice-sampled (241 x 241) sup norms over [0,1] x [0,u_max]."""
        if u_max < 0:
            raise InputRangeError(f"u_max must be nonnegative, got {u_max}")
        rho = np.linspace(0.0, 1.0, 241)[:, None]
        u = np.linspace(0.0, max(u_max, 0.0), 241)[None, :]
        return ModelBounds(
            u_max=float(u_max),
            v_sup=float(np.abs(self.velocity(rho, u)).max()),
            d_rho_sup=float(np.abs(self.d_rho(rho, u)).max()),
            d_u_sup=float(np.abs(self.d_u(rho, u)).max()),
            d_u_rho_sup=float(np.abs(self.d_u_rho(rho, u)).max()),
            d_uu_sup=float(np.abs(self.d_uu(rho, u)).max()),
        )


class PowerLawModel(VelocityModel):
    """V(rho, u) = u * (1 - rho)**gamma with gamma >= 1."""

    name = "power"

    def __init__(self, gamma: float = 1.0):
        gamma = float(gamma)
        if not np.isfinite(gamma) or gamma < 1.0:
            raise InputRangeError(f"gamma must be >= 1, got {gamma}")
        self.gamma = gamma

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

    def d_u_rho(self, rho, u):
        return (-self.gamma * self._gap(rho) ** (self.gamma - 1.0)
                * np.ones_like(u))

    def d_uu(self, rho, u):
        return np.zeros(np.broadcast_shapes(np.shape(rho), np.shape(u)))

    def critical_density(self, u):
        """d/drho [u rho (1-rho)^g] = u (1-rho)^(g-1) (1 - (1+g) rho)."""
        return np.full(np.shape(u), 1.0 / (1.0 + self.gamma))

    def max_wave_speed(self, u):
        # |d/drho f| is largest at rho = 0 where it equals u
        return np.abs(np.asarray(u, dtype=float))

    def sup_bounds(self, u_max) -> ModelBounds:
        if u_max < 0:
            raise InputRangeError(f"u_max must be nonnegative, got {u_max}")
        u_max = float(u_max)
        return ModelBounds(
            u_max=u_max,
            v_sup=u_max,
            d_rho_sup=self.gamma * u_max,
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
    by finiteness of V and all four sampled derivatives), V >= 0,
    dV/drho <= 0, dV/du >= 0 and V(1, u) = 0, plus a unimodal flux
    f = rho V in rho, which the Godunov flux relies on: once df/drho falls
    below -1e-12 it may not rise above 1e-12 at a larger lattice density.
    A check passes iff its worst violation is <= 1e-12.  Validation is
    restricted to the working box; the closure is never probed outside it.
    A closure or derivative that raises, or whose result does not broadcast
    to the lattice, raises ModelValidationError naming the closure.
    """
    if n_samples < 2:
        raise InputRangeError("n_samples must be >= 2")
    rho = np.linspace(0.0, 1.0, n_samples)[:, None]
    u = np.linspace(0.0, max(float(u_max), 0.0), n_samples)[None, :]
    rho_b, u_b = np.broadcast_arrays(rho, u)

    def sample(what, fun):
        try:
            return np.broadcast_to(np.asarray(fun(rho, u), dtype=float),
                                   rho_b.shape)
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
    checks.append(ConditionCheck("smooth_c2", bool(np.all(finite)),
                                 worst, where))

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

    return ModelValidationReport(model.name, float(u_max), n_samples,
                                 tuple(checks))


def require_valid_model(model: VelocityModel, u_max: float,
                        n_samples: int = 101) -> ModelValidationReport:
    """validate_model, raising ModelValidationError on failure."""
    report = validate_model(model, u_max, n_samples)
    if not report.passed:
        raise ModelValidationError(
            "velocity closure failed validation:\n" + report.summary(), report)
    return report
