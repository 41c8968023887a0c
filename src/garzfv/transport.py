"""Upwind transport of the conserved markers v = rho z and w = rho psi.

Marker fluxes reuse the density fluxes bit for bit: G = F * theta with the
donor ratio theta taken from the upwind side (left cell when F >= 0).  This
keeps |q| <= M rho invariant whenever |q0| <= M rho0 and makes the extracted
ratio obey a discrete maximum principle.  theta = q / rho is taken once per
cell, and v and w move together as the rows of one (2, n) array.

The donor ratio divides by the true donor density whenever it is positive,
however small: flooring it would let outflow drain density but not marker
and inflate the ratio on front-tail cells.  Exactly-vacuum donors
contribute theta = 0, which is consistent because density fluxes vanish at
vacuum interfaces and such cells carry an exactly zero marker.
"""

from __future__ import annotations

import numpy as np

from .scalar import pad2


def marker_step_arrays(q: np.ndarray, rho_old: np.ndarray,
                       flux: np.ndarray, h: float, dt: float) -> np.ndarray:
    """One conservative upwind step of q, shape (n,) or one marker per row
    (k, n), with prescribed density fluxes; rows step independently."""
    theta = pad2(np.divide(q, rho_old, out=np.zeros_like(q, dtype=float),
                           where=rho_old > 0.0))
    g = flux * np.where(flux >= 0.0, theta[..., 1:-2], theta[..., 2:-1])
    return q - (dt / h) * (g[..., 1:] - g[..., :-1])
