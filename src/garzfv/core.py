"""Grids, cell fields, norms, and construction of the initial state.

The initial datum is given as (rho0 pieces, psi0 pieces, z_inf, u_inf) where
psi = z' / rho is the compatibility ratio.  The antiderivatives are then
*constructed* on the grid by prefix sums,

    w = rho * psi,   z_i = z_inf + h * sum_{j<=i} w_j,
    v = rho * z,     u_i = u_inf + h * sum_{j<=i} v_j,

so the compatibility relations u' = z rho and z' = rho psi hold exactly in
their discrete form.  Pieces are piecewise-constant or piecewise-linear; this
is a representational restriction only (any BV profile can be approximated by
such pieces) and buys exact cell averaging via the primitive.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import GridMismatchError, InputRangeError, InvalidDataError

RHO_FLOOR = 1e-12


def require_count(name: str, value, minimum: int) -> None:
    """Raise InputRangeError unless value is an integer (a numpy integer
    included) of at least minimum."""
    if not isinstance(value, numbers.Integral):
        raise InputRangeError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise InputRangeError(f"{name} must be >= {minimum}, got {value}")


def require_real(name: str, value, lo=-math.inf, hi=math.inf,
                 open_lo: bool = False, error=InputRangeError) -> float:
    """value as a float when it is a finite real number (numpy floats and
    integers included) in [lo, hi], or (lo, hi] when open_lo; otherwise
    raise error.  NaN, infinities and non-numbers always raise."""
    real = isinstance(value, numbers.Real)
    try:
        x = float(value) if real else math.nan
    except OverflowError:  # an int too large for a float
        x = math.inf
    if math.isfinite(x) and x <= hi and (x > lo if open_lo else x >= lo):
        return x
    if hi < math.inf:
        rule = f"in {'(' if open_lo else '['}{lo}, {hi}]"
    elif lo == -math.inf:
        rule = "finite"
    elif open_lo and lo == 0:
        rule = "positive and finite"
    else:
        rule = f"finite and {'>' if open_lo else '>='} {lo}"
    raise error(f"{name} must be {rule}, got {value if real else repr(value)}")


@dataclass(frozen=True)
class Grid:
    """Uniform 1-D cell grid on [x_min, x_max] with n_cells cells."""

    x_min: float
    x_max: float
    n_cells: int

    def __post_init__(self):
        require_count("n_cells", self.n_cells, 2)
        require_real("x_max", self.x_max, require_real("x_min", self.x_min),
                     open_lo=True)

    @property
    def h(self) -> float:
        return (self.x_max - self.x_min) / self.n_cells

    def centers(self) -> np.ndarray:
        return self.x_min + (np.arange(self.n_cells) + 0.5) * self.h

    def edges(self) -> np.ndarray:
        return self.x_min + np.arange(self.n_cells + 1) * self.h


@dataclass(frozen=True, eq=False)
class CellField:
    """One finite value per cell, tied to its grid."""

    values: np.ndarray
    grid: Grid

    def __post_init__(self):
        try:
            vals = np.asarray(self.values, dtype=float)
        except (TypeError, ValueError) as exc:
            raise InvalidDataError(
                f"cell field values must be real numbers: {exc}") from None
        if vals.shape != (self.grid.n_cells,):
            raise GridMismatchError(
                f"field has {vals.shape} values for {self.grid.n_cells} cells")
        if not np.all(np.isfinite(vals)):
            raise InvalidDataError("cell field contains non-finite values")
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)


def _same_grid(f: CellField, g: CellField):
    if f.grid != g.grid:
        raise GridMismatchError(f"grids differ: {f.grid} vs {g.grid}")


def total_variation(f: CellField) -> float:
    """Sum of |jumps| across interior interfaces."""
    return float(np.abs(np.diff(f.values)).sum())


def l1_distance(f: CellField, g: CellField) -> float:
    """h * sum |f_i - g_i|."""
    _same_grid(f, g)
    return float(f.grid.h * np.abs(f.values - g.values).sum())


def c0_distance(f: CellField, g: CellField) -> float:
    """max |f_i - g_i|."""
    _same_grid(f, g)
    return float(np.abs(f.values - g.values).max())


def l1_norm(f: CellField) -> float:
    return float(f.grid.h * np.abs(f.values).sum())


@dataclass(frozen=True)
class Piece:
    """Linear segment on [x_left, x_right]; constant when v_left == v_right."""

    x_left: float
    x_right: float
    v_left: float
    v_right: float

    def __post_init__(self):
        for name in ("x_left", "v_left", "v_right"):
            require_real(f"piece {name}", getattr(self, name),
                         error=InvalidDataError)
        require_real("piece x_right", self.x_right, self.x_left,
                     open_lo=True, error=InvalidDataError)

    @classmethod
    def const(cls, x_left, x_right, value):
        return cls(x_left, x_right, value, value)


def _check_pieces(pieces) -> tuple[Piece, ...]:
    pieces = tuple(sorted(pieces, key=lambda p: p.x_left))
    for a, b in zip(pieces, pieces[1:]):
        if b.x_left < a.x_right - 1e-14:
            raise InvalidDataError(
                f"overlapping pieces at [{a.x_left},{a.x_right}] and "
                f"[{b.x_left},{b.x_right}]")
    return pieces


def cell_averages(pieces, grid: Grid) -> np.ndarray:
    """Cell averages of the piecewise-linear profile.

    Computed piece-locally rather than by differencing a global primitive:
    differencing O(1) prefix integrals amplifies rounding by 1/h and leaves
    1e-13-level noise on fine grids.  A cell fully covered by one piece gets
    the piece value at the cell midpoint (bit-exact for constant pieces,
    exact average for ramps); partially covered cells get the midpoint-rule
    overlap integral, which is exact for linear profiles.
    """
    edges = grid.edges()
    e_l, e_r = edges[:-1], edges[1:]
    out = np.zeros(grid.n_cells)
    snap = 1e-9 * grid.h
    for p in pieces:
        a = np.maximum(e_l, p.x_left)
        b = np.minimum(e_r, p.x_right)
        overlap = b > a
        full = (e_l >= p.x_left - snap) & (e_r <= p.x_right + snap)
        if p.v_right == p.v_left:
            full_val = np.full(grid.n_cells, p.v_left)
            part_val = p.v_left * (b - a) / grid.h
        else:
            slope = (p.v_right - p.v_left) / (p.x_right - p.x_left)
            full_val = p.v_left + slope * (0.5 * (e_l + e_r) - p.x_left)
            v_mid = p.v_left + slope * (0.5 * (a + b) - p.x_left)
            part_val = v_mid * (b - a) / grid.h
        out += np.where(full, full_val,
                        np.where(overlap, part_val, 0.0))
    return out


@dataclass(frozen=True)
class InitialData:
    """Piecewise initial datum: density, ratio psi, and far-field constants.

    rho0 must take values in [0, 1]; both profiles are 0 off their pieces.
    z and u are never given directly: they are reconstructed on the grid so
    compatibility holds by construction, and the resulting u0 must come out
    nonnegative.
    """

    rho_pieces: tuple[Piece, ...]
    psi_pieces: tuple[Piece, ...] = field(default_factory=tuple)
    z_inf: float = 0.0
    u_inf: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "rho_pieces", _check_pieces(self.rho_pieces))
        object.__setattr__(self, "psi_pieces", _check_pieces(self.psi_pieces))
        for p in self.rho_pieces:
            for value in (p.v_left, p.v_right):
                require_real("rho0 piece value", value, 0, 1,
                             error=InvalidDataError)
        require_real("z_inf", self.z_inf, error=InvalidDataError)
        require_real("u_inf", self.u_inf, 0, error=InvalidDataError)

    def support(self) -> tuple[float, float]:
        """Hull of the density pieces (0-width at origin when empty)."""
        if not self.rho_pieces:
            return (0.0, 0.0)
        return (min(p.x_left for p in self.rho_pieces),
                max(p.x_right for p in self.rho_pieces))


@dataclass(frozen=True, eq=False)
class SystemState:
    """Full cell state at one time.

    It stores the density rho and the transported markers v = rho z and
    w = rho psi.  The marker u, its slope partner z and psi = w / rho are
    derived on first read and kept; u and z are their prefix sums.
    """

    t: float
    rho: CellField
    v: CellField
    w: CellField
    z_inf: float
    u_inf: float

    @property
    def grid(self) -> Grid:
        return self.rho.grid

    @cached_property
    def u(self) -> CellField:
        return CellField(self.u_inf + self.grid.h * np.cumsum(self.v.values),
                         self.grid)

    @cached_property
    def z(self) -> CellField:
        return CellField(self.z_inf + self.grid.h * np.cumsum(self.w.values),
                         self.grid)

    @cached_property
    def psi(self) -> CellField:
        return CellField(ratio_or(self.w.values, self.rho.values), self.grid)

    def mass(self) -> float:
        return float(self.grid.h * self.rho.values.sum())


def ratio_or(q: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """q / rho where rho exceeds the vacuum floor, else 0."""
    supported = rho > RHO_FLOOR
    out = np.zeros(q.shape)
    np.divide(q, rho, out=out, where=supported)
    return out


def state_from_arrays(t, rho, v, w, z_inf, u_inf, grid: Grid) -> SystemState:
    """Assemble a SystemState from (rho, v, w)."""
    return SystemState(
        t=float(t),
        rho=CellField(rho, grid), v=CellField(v, grid), w=CellField(w, grid),
        z_inf=float(z_inf), u_inf=float(u_inf))


def build_initial_state(data: InitialData, grid: Grid) -> SystemState:
    """Cell-average the datum and construct the antiderivatives.

    Exact averaging of the pieces; w = rho * psi per cell; z and u by prefix
    sums.  Raises when the constructed u0 dips below zero or the averaged
    density leaves [0, 1].
    """
    rho = cell_averages(data.rho_pieces, grid)
    if rho.min() < -1e-14 or rho.max() > 1.0 + 1e-14:
        raise InvalidDataError(
            f"averaged rho0 outside [0,1]: [{rho.min()}, {rho.max()}]")
    rho = np.clip(rho, 0.0, 1.0)
    psi = cell_averages(data.psi_pieces, grid)
    w = rho * psi
    z = data.z_inf + grid.h * np.cumsum(w)
    v = rho * z
    state = state_from_arrays(0.0, rho, v, w, data.z_inf, data.u_inf, grid)
    u_min = state.u.values.min()
    if u_min < -1e-12:
        raise InvalidDataError(
            f"constructed u0 is negative (min {u_min:.3e}); "
            "choose compatible z_inf/u_inf/psi0")
    return state


def recommended_domain(data: InitialData, t_final: float,
                       wave_bound: float) -> tuple[float, float]:
    """Domain large enough that boundary cells stay at their far-field
    state: the data's support widened by the wave reach plus 1."""
    t_final = require_real("t_final", t_final, 0)
    wave_bound = require_real("wave_bound", wave_bound, 0)
    lo, hi = data.support()
    if data.psi_pieces:
        lo = min(lo, min(p.x_left for p in data.psi_pieces))
        hi = max(hi, max(p.x_right for p in data.psi_pieces))
    reach = wave_bound * t_final + 1.0
    return lo - reach, hi + reach


def check_margins(state: SystemState, t_final: float, wave_bound: float):
    """Require constant density and vanishing markers on both margin windows.

    The window width is the distance information can travel over the horizon.
    Compact supports (constant 0) and whole-domain constant states both pass;
    data whose boundary cells would drift are rejected.
    """
    t_final = require_real("t_final", t_final, 0)
    wave_bound = require_real("wave_bound", wave_bound, 0)
    grid = state.grid
    width = max(wave_bound * t_final, 2.0 * grid.h)
    x = grid.centers()
    # overlapping windows cover the whole domain: only a globally constant
    # datum with vanishing markers is then safe for the horizon, and the
    # constancy checks below enforce exactly that
    width = min(width, 0.5 * (grid.x_max - grid.x_min))
    window_text = (f"margin window (width {width:.4g} from wave_bound "
                   f"{wave_bound:.4g} over t_final {t_final:g})")
    for window in ((x <= grid.x_min + width), (x >= grid.x_max - width)):
        rho_w = state.rho.values[window]
        if rho_w.max() - rho_w.min() > 1e-13:
            raise InvalidDataError(
                f"rho0 is not constant within the {window_text}; enlarge the "
                "domain or flatten the datum near the boundary")
        if np.abs(state.v.values[window]).max() > 1e-13 \
                or np.abs(state.w.values[window]).max() > 1e-13:
            raise InvalidDataError(
                f"markers do not vanish within the {window_text}; boundary "
                "cells would drift over the horizon")
