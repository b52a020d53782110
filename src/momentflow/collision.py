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

import numpy as np

from .moments import heat_flux

# the heat-flux-coupled slots alpha = e_i + 2 e_j, grouped by the component i
# of q they draw from
_Q_SLOTS = (
    ((3, 0, 0), (1, 2, 0), (1, 0, 2)),
    ((2, 1, 0), (0, 3, 0), (0, 1, 2)),
    ((2, 0, 1), (0, 2, 1), (0, 0, 3)),
)
# the slots of order <= 1, as index arrays per axis
_LOW = ([0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1])


def relaxation_time(rho, theta, kn):
    """Hard-sphere relaxation time (5/16) sqrt(2 pi / theta) Kn / rho."""
    rho = np.asarray(rho, dtype=float)
    theta = np.asarray(theta, dtype=float)
    if not (np.all(rho > 0) and np.all(theta > 0) and kn > 0):
        raise ValueError("rho, theta and Kn must be positive")
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

    # every slot decays except orders <= 1, which are put back unchanged
    low = coeffs[..., _LOW[0], _LOW[1], _LOW[2]]
    out = np.multiply(coeffs, e_full[..., None, None, None], out=out)
    out[..., _LOW[0], _LOW[1], _LOW[2]] = low
    bump = (e_pr - e_full) / 5.0
    for i, slots in enumerate(_Q_SLOTS):
        for alpha in slots:
            out[(Ellipsis,) + alpha] += q0[..., i] * bump
    return out
