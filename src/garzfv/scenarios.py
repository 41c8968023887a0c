"""Shipped test scenarios with pinned geometry.

All five live on grids whose cell width divides the piece edges, so initial
cell averages are exact, and all carry margins wide enough that no wave
reaches the boundary before t = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import Grid, InitialData, Piece, require_count, require_real
from .errors import InputRangeError
from .model import GreenshieldsModel, VelocityModel


@dataclass(frozen=True)
class Scenario:
    name: str
    data: InitialData
    grid: Grid
    t_final: float
    description: str

    def model(self) -> VelocityModel:
        return GreenshieldsModel()


def _constant() -> Scenario:
    data = InitialData(
        rho_pieces=(Piece.const(-4.0, 4.0, 0.4),),
        psi_pieces=(), z_inf=0.0, u_inf=1.0)
    return Scenario(
        name="constant", data=data, grid=Grid(-4.0, 4.0, 256), t_final=1.0,
        description="uniform density 0.4, uniform marker 1; exact fixed "
                    "point of the scheme")


def _shock() -> Scenario:
    data = InitialData(
        rho_pieces=(Piece.const(-4.0, 0.0, 0.2), Piece.const(0.0, 4.0, 0.8)),
        psi_pieces=(), z_inf=0.0, u_inf=1.0)
    return Scenario(
        name="shock", data=data, grid=Grid(-4.0, 4.0, 512), t_final=1.0,
        description="constant-marker Riemann datum 0.2 -> 0.8; stationary "
                    "shock at x = 0")


def _rarefaction() -> Scenario:
    data = InitialData(
        rho_pieces=(Piece.const(-4.0, 0.0, 0.8), Piece.const(0.0, 4.0, 0.2)),
        psi_pieces=(), z_inf=0.0, u_inf=1.0)
    return Scenario(
        name="rarefaction", data=data, grid=Grid(-4.0, 4.0, 512),
        t_final=1.0,
        description="constant-marker Riemann datum 0.8 -> 0.2; centered "
                    "rarefaction fan")


def _smoke() -> Scenario:
    data = InitialData(
        rho_pieces=(Piece.const(-1.0, 1.0, 0.6),),
        psi_pieces=(Piece.const(-1.0, 0.0, 0.5),
                    Piece.const(0.0, 1.0, -0.5)),
        z_inf=0.0, u_inf=1.0)
    return Scenario(
        name="smoke", data=data, grid=Grid(-6.0, 6.0, 384), t_final=1.0,
        description="0.6-high density plateau with a +/-0.5 square pulse "
                    "in the density-weighted marker slope; genuinely "
                    "nonconstant u")


def _vacuum() -> Scenario:
    data = InitialData(
        rho_pieces=(Piece.const(-2.0, -1.0, 0.5),
                    Piece.const(1.0, 2.0, 0.5)),
        psi_pieces=(Piece.const(-2.0, 2.0, 0.4),),
        z_inf=0.0, u_inf=1.0)
    return Scenario(
        name="vacuum", data=data, grid=Grid(-6.0, 6.0, 384), t_final=1.0,
        description="two density blocks separated by vacuum; the datum "
                    "touches rho = 0 inside the support of the marker slope")


_BUILDERS = {
    "constant": _constant,
    "shock": _shock,
    "rarefaction": _rarefaction,
    "smoke": _smoke,
    "vacuum": _vacuum,
}

SCENARIO_NAMES = tuple(_BUILDERS)


def scenario(name: str) -> Scenario:
    try:
        return _BUILDERS[name]()
    except KeyError:
        raise InputRangeError(
            f"unknown scenario {name!r}; available: "
            f"{', '.join(SCENARIO_NAMES)}") from None


def shift_pieces(pieces, dx: float, grid: Grid):
    """Translate pieces by dx.

    ``cell_averages`` integrates each piece over the grid's cells only, so
    a part pushed off the domain drops out by itself.  A boundary the
    datum touched is re-covered by a plateau of its end value, so margins
    stay intact, however long the shift.
    """
    shifted = tuple(Piece(p.x_left + dx, p.x_right + dx, p.v_left, p.v_right)
                    for p in pieces)
    if not pieces:
        return shifted
    eps = 1e-12 * max(1.0, grid.x_max - grid.x_min)
    if pieces[0].x_left <= grid.x_min + eps < shifted[0].x_left:
        shifted = (Piece.const(grid.x_min, shifted[0].x_left,
                               pieces[0].v_left),) + shifted
    if shifted[-1].x_right < grid.x_max - eps <= pieces[-1].x_right:
        shifted += (Piece.const(shifted[-1].x_right, grid.x_max,
                                pieces[-1].v_right),)
    return shifted


def perturb_data(data: InitialData, grid: Grid, shift_cells: int = 0,
                 du_inf: float = 0.0) -> InitialData:
    """Shifted-and-nudged copy of a datum for stability experiments; a
    shift_cells that is not an integer, or a du_inf that is not finite or
    leaves u_inf negative, raises InputRangeError."""
    require_count("shift_cells", shift_cells, -math.inf)
    dx = shift_cells * grid.h
    u_inf = require_real("u_inf + du_inf",
                         data.u_inf + require_real("du_inf", du_inf), 0)
    return InitialData(
        rho_pieces=shift_pieces(data.rho_pieces, dx, grid),
        psi_pieces=shift_pieces(data.psi_pieces, dx, grid),
        z_inf=data.z_inf, u_inf=u_inf)
