"""Upwind transport of the conserved markers v = rho z and w = rho psi.

Marker fluxes reuse the density fluxes bit for bit: G = F * theta with the
donor ratio theta taken from the upwind side (left cell when F >= 0).  This
keeps |q| <= M rho invariant whenever |q0| <= M rho0 and makes the extracted
ratio obey a discrete maximum principle.

The donor ratio divides by the true donor density whenever it is positive,
however small: flooring it would let outflow drain density but not marker
and inflate the ratio on front-tail cells.  Exactly-vacuum donors
contribute theta = 0, which is consistent because density fluxes vanish at
vacuum interfaces and such cells carry an exactly zero marker.
"""

from __future__ import annotations

import numpy as np

from .scalar import pad2


def _donor_ratio(q: np.ndarray, rho: np.ndarray) -> np.ndarray:
    return np.divide(q, rho, out=np.zeros_like(q, dtype=float),
                     where=rho > 0.0)


def marker_step_arrays(q: np.ndarray, rho_old: np.ndarray,
                       flux: np.ndarray, h: float, dt: float) -> np.ndarray:
    """One conservative upwind step of q with prescribed density fluxes."""
    qe = pad2(q)
    re = pad2(rho_old)
    q_l, q_r = qe[1:-2], qe[2:-1]
    r_l, r_r = re[1:-2], re[2:-1]
    theta_l = _donor_ratio(q_l, r_l)
    theta_r = _donor_ratio(q_r, r_r)
    theta = np.where(flux >= 0.0, theta_l, theta_r)
    g = flux * theta
    return q - (dt / h) * (g[1:] - g[:-1])
