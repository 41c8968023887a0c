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

from dataclasses import dataclass, field

import numpy as np

from .errors import GridMismatchError, InputRangeError, InvalidDataError

RHO_FLOOR = 1e-12


@dataclass(frozen=True)
class Grid:
    """Uniform 1-D cell grid on [x_min, x_max] with n_cells cells."""

    x_min: float
    x_max: float
    n_cells: int

    def __post_init__(self):
        if self.n_cells < 2:
            raise InputRangeError(f"n_cells must be >= 2, got {self.n_cells}")
        if not (np.isfinite(self.x_min) and np.isfinite(self.x_max)
                and self.x_max > self.x_min):
            raise InputRangeError(
                f"need x_min < x_max finite, got [{self.x_min}, {self.x_max}]")

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
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.grid.n_cells,):
            raise GridMismatchError(
                f"field has {vals.shape} values for {self.grid.n_cells} cells")
        if not np.all(np.isfinite(vals)):
            raise InvalidDataError("cell field contains non-finite values")
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    def __len__(self):
        return self.grid.n_cells


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
        vals = (self.x_left, self.x_right, self.v_left, self.v_right)
        if not all(np.isfinite(v) for v in vals):
            raise InvalidDataError(f"non-finite piece {vals}")
        if not self.x_right > self.x_left:
            raise InvalidDataError(
                f"piece needs x_left < x_right, got [{self.x_left}, {self.x_right}]")

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


def piecewise_eval(pieces, x: np.ndarray) -> np.ndarray:
    """Pointwise value of the profile (0 outside all pieces)."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    for p in pieces:
        inside = (x >= p.x_left) & (x <= p.x_right)
        frac = (x - p.x_left) / (p.x_right - p.x_left)
        out = np.where(inside, p.v_left + (p.v_right - p.v_left) * frac, out)
    return out


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
            if min(p.v_left, p.v_right) < 0.0 or max(p.v_left, p.v_right) > 1.0:
                raise InvalidDataError(
                    f"rho0 piece values outside [0,1]: {p}")
        if not (np.isfinite(self.z_inf) and np.isfinite(self.u_inf)):
            raise InvalidDataError("z_inf and u_inf must be finite")
        if self.u_inf < 0.0:
            raise InvalidDataError(f"u_inf must be >= 0, got {self.u_inf}")

    def support(self) -> tuple[float, float]:
        """Hull of the density pieces (0-width at origin when empty)."""
        if not self.rho_pieces:
            return (0.0, 0.0)
        return (min(p.x_left for p in self.rho_pieces),
                max(p.x_right for p in self.rho_pieces))


@dataclass(frozen=True, eq=False)
class SystemState:
    """Full cell state at one time.

    rho is the density, u the marker, z its slope antiderivative ratio
    partner, psi = w / rho, and v = rho z, w = rho psi are the conserved
    markers actually transported.  u and z always equal their prefix-sum
    reconstructions from v and w.
    """

    t: float
    rho: CellField
    v: CellField
    w: CellField
    z: CellField
    u: CellField
    psi: CellField
    z_inf: float
    u_inf: float

    def __post_init__(self):
        for name in ("v", "w", "z", "u", "psi"):
            _same_grid(self.rho, getattr(self, name))

    @property
    def grid(self) -> Grid:
        return self.rho.grid

    def mass(self) -> float:
        return float(self.grid.h * self.rho.values.sum())


def ratio_or(q: np.ndarray, rho: np.ndarray, fallback=0.0) -> np.ndarray:
    """q / rho where rho exceeds the vacuum floor, else the fallback value."""
    supported = rho > RHO_FLOOR
    out = np.full(q.shape, fallback, dtype=float)
    np.divide(q, rho, out=out, where=supported)
    return out


def state_from_arrays(t, rho, v, w, z_inf, u_inf, grid: Grid) -> SystemState:
    """Assemble a SystemState, reconstructing z, u, psi from (rho, v, w)."""
    h = grid.h
    z = z_inf + h * np.cumsum(w)
    u = u_inf + h * np.cumsum(v)
    psi = ratio_or(w, rho)
    return SystemState(
        t=float(t),
        rho=CellField(rho, grid), v=CellField(v, grid), w=CellField(w, grid),
        z=CellField(z, grid), u=CellField(u, grid), psi=CellField(psi, grid),
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
    u = data.u_inf + grid.h * np.cumsum(v)
    if u.min() < -1e-12:
        raise InvalidDataError(
            f"constructed u0 is negative (min {u.min():.3e}); "
            "choose compatible z_inf/u_inf/psi0")
    return state_from_arrays(0.0, rho, v, w, data.z_inf, data.u_inf, grid)


def recommended_domain(data: InitialData, t_final: float,
                       wave_bound: float, cushion: float = 1.0
                       ) -> tuple[float, float]:
    """Domain large enough that boundary cells stay at their far-field state."""
    lo, hi = data.support()
    if data.psi_pieces:
        lo = min(lo, min(p.x_left for p in data.psi_pieces))
        hi = max(hi, max(p.x_right for p in data.psi_pieces))
    reach = wave_bound * t_final + cushion
    return lo - reach, hi + reach


def check_margins(state: SystemState, t_final: float, wave_bound: float):
    """Require constant density and vanishing markers on both margin windows.

    The window width is the distance information can travel over the horizon.
    Compact supports (constant 0) and whole-domain constant states both pass;
    data whose boundary cells would drift are rejected.
    """
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
