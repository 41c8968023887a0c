"""Upwind transport of the conserved markers v = rho z and w = rho psi.

Marker fluxes reuse the density fluxes bit for bit: G = F * theta with the
donor ratio theta taken from the upwind side (left cell when F >= 0).  This
keeps |q| <= M rho invariant whenever |q0| <= M rho0 and makes the extracted
ratio obey a discrete maximum principle.  theta = q / rho is taken once per
cell, and v and w move together as the rows of one (2, n) array, padded as
the density step's inputs are.  Every flux f = rho V >= 0 on admissible
data takes the left donor at once; a tolerated density undershoot can make
one negative, and then each interface picks its donor.

The donor ratio divides by the true donor density whenever it is positive,
however small: flooring it would let outflow drain density but not marker
and inflate the ratio on front-tail cells.  Exactly-vacuum donors
contribute theta = 0, which is consistent because density fluxes vanish at
vacuum interfaces and such cells carry an exactly zero marker.
"""

from __future__ import annotations

import numpy as np


def marker_step_arrays(qe: np.ndarray, re: np.ndarray,
                       flux: np.ndarray, h: float, dt: float) -> np.ndarray:
    """One conservative upwind step of the m cells of the padded marker qe,
    shape (m+4,) or one marker per row (k, m+4), with the padded density re
    (m+4,) and the m+1 prescribed density fluxes; returns the m stepped
    cells.  Rows step independently."""
    q, rho = qe[..., 1:-1], re[1:-1]
    theta = np.divide(q, rho, out=np.zeros(q.shape), where=rho > 0.0)
    # min() is NaN when any flux is, and NaN >= 0.0 is False
    if flux.min() >= 0.0:
        g = theta[..., :-1]
    else:
        g = np.where(flux >= 0.0, theta[..., :-1], theta[..., 1:])
    g *= flux
    # q - (dt/h) (G_{i+1/2} - G_{i-1/2}), operation by operation, in place
    out = np.subtract(g[..., 1:], g[..., :-1])
    out *= dt / h
    return np.subtract(qe[..., 2:-2], out, out=out)
