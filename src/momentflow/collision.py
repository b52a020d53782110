"""Closed-form integration of the relaxation collision step.

With (rho, u, theta) frozen -- the collision touches no conserved quantity --
the pure-collision system is linear with constant coefficients and integrates
exactly over a step:

  * the nine coefficients f_{e_i + 2e_j} relax towards the slow heat-flux
    mode:  f(t) = f(t0) e^{-dt/tau} + q_i(t0)/5 (e^{-Pr dt/tau} - e^{-dt/tau});
  * every other coefficient of order >= 2 decays by e^{-dt/tau};
  * orders <= 1 are untouched.

Setting Pr = 1 collapses the first rule onto the second (single relaxation
rate for everything above order one).
"""

import math
from functools import lru_cache

import numpy as np

from .moments import HEAT_FLUX_SLOTS, LOW_SLOTS, heat_flux, stored_index


@lru_cache(maxsize=None)
def _slots(cube):
    """Per-axis stored positions, in cubes of shape ``cube``, of the slots
    of order <= 1 and of the heat-flux-coupled slots e_i + 2 e_d of
    ``moments.HEAT_FLUX_SLOTS``, those absent from the layout left out, and
    the component i of q each of the latter draws from."""
    low, low_absent = stored_index(cube, LOW_SLOTS[:4])
    q, q_absent = stored_index(cube, HEAT_FLUX_SLOTS)
    return (tuple(low[~low_absent].T), tuple(q[~q_absent].T),
            np.flatnonzero(~q_absent) // 3)


def relaxation_time(rho, theta, kn):
    """Hard-sphere relaxation time (5/16) sqrt(2 pi / theta) Kn / rho.

    Unchecked: each caller has checked rho, theta and Kn to be positive."""
    return 5.0 / 16.0 * np.sqrt(2.0 * math.pi / theta) * kn / rho


def collide_coeffs(coeffs, tau, prandtl, dt, out=None):
    """Batched analytic collision update of coefficient cubes.

    ``tau`` may be per-cell (broadcast against the batch dims of ``coeffs``).
    ``out`` receives the result and may be ``coeffs`` itself; by default a
    new array does.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    tau = np.asarray(tau, dtype=float)
    e_full = np.exp(-dt / tau)
    e_pr = np.exp(-prandtl * dt / tau)
    q0 = heat_flux(coeffs)
    low, q_slots, comp = _slots(coeffs.shape[-3:])

    # every slot decays except orders <= 1, which are put back unchanged
    kept = coeffs[(Ellipsis,) + low]
    out = np.multiply(coeffs, e_full[..., None, None, None], out=out)
    out[(Ellipsis,) + low] = kept
    bump = (e_pr - e_full) / 5.0
    out[(Ellipsis,) + q_slots] += q0[..., comp] * bump[..., None]
    return out
