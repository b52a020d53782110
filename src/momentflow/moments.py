"""Coefficient-cube layout, macroscopic extraction and snapshot files.

A distribution is represented by its Hermite coefficients about a local frame
(u, theta).  Coefficients live in a dense cube ``coeffs[a1, a2, a3]`` of edge
K = M + 1 with entries kept for the evolved grades |alpha| <= M and zero
beyond.  The top grade |alpha| = M + 1 that closes the fluxes is never
stored: the closure predicts it where a flux needs it.
"""

from functools import lru_cache

import numpy as np


@lru_cache(maxsize=None)
def order_cube(K):
    """Cube whose entry at alpha is |alpha|."""
    r = np.arange(K)
    cube = r[:, None, None] + r[None, :, None] + r[None, None, :]
    cube.setflags(write=False)
    return cube


@lru_cache(maxsize=None)
def grade_mask(K, order):
    """Boolean cube selecting |alpha| <= order."""
    m = order_cube(K) <= order
    m.setflags(write=False)
    return m


@lru_cache(maxsize=64)
def work_array(tag, shape):
    """Scratch array kept across steps, one per (tag, shape); callers
    overwrite it before reading and never hand it out.  Not thread safe."""
    return np.empty(shape)


# ---------------------------------------------------------------------------
# macroscopic extraction, batched: coeffs may have leading cell dimensions


def stress_tensor(coeffs):
    """Deviatoric stress: off-diagonal f_{e_i+e_j}, diagonal 2 f_{2 e_i}."""
    c = coeffs
    s = np.empty(c.shape[:-3] + (3, 3))
    s[..., 0, 0] = 2.0 * c[..., 2, 0, 0]
    s[..., 1, 1] = 2.0 * c[..., 0, 2, 0]
    s[..., 2, 2] = 2.0 * c[..., 0, 0, 2]
    s[..., 0, 1] = s[..., 1, 0] = c[..., 1, 1, 0]
    s[..., 0, 2] = s[..., 2, 0] = c[..., 1, 0, 1]
    s[..., 1, 2] = s[..., 2, 1] = c[..., 0, 1, 1]
    return s


def heat_flux(coeffs):
    """q_i = 2 f_{3 e_i} + sum_d f_{2 e_d + e_i}."""
    c = coeffs
    q = np.empty(c.shape[:-3] + (3,))
    q[..., 0] = 2.0 * c[..., 3, 0, 0] + c[..., 3, 0, 0] + c[..., 1, 2, 0] + c[..., 1, 0, 2]
    q[..., 1] = 2.0 * c[..., 0, 3, 0] + c[..., 2, 1, 0] + c[..., 0, 3, 0] + c[..., 0, 1, 2]
    q[..., 2] = 2.0 * c[..., 0, 0, 3] + c[..., 2, 0, 1] + c[..., 0, 2, 1] + c[..., 0, 0, 3]
    return q


# ---------------------------------------------------------------------------
# CSV snapshots
#
# One row per cell:  y, rho, u1, u2, u3, theta, sigma11, sigma12, sigma22,
# q1, q2 -- written at full precision so a read-back round trips.

SNAPSHOT_COLUMNS = (
    "y", "rho", "u1", "u2", "u3", "theta",
    "sigma11", "sigma12", "sigma22", "q1", "q2",
)


def _fields_table(centers, rho, u, theta, sigma, q):
    """The snapshot columns, in ``SNAPSHOT_COLUMNS`` order, of batched cell
    fields: velocity (..., 3), stress (..., 3, 3) and heat flux (..., 3)."""
    return np.column_stack([
        np.asarray(centers, dtype=float), rho, u[..., 0], u[..., 1], u[..., 2],
        np.asarray(theta, dtype=float), sigma[..., 0, 0], sigma[..., 0, 1],
        sigma[..., 1, 1], q[..., 0], q[..., 1]])


def snapshot_table(centers, u, theta, coeffs):
    """Assemble the snapshot column matrix from batched cell arrays."""
    return _fields_table(centers, coeffs[..., 0, 0, 0], u, theta,
                         stress_tensor(coeffs), heat_flux(coeffs))


def write_table(path, table):
    """Write a profile table with the standard snapshot header."""
    header = ",".join(SNAPSHOT_COLUMNS)
    np.savetxt(path, table, fmt="%.17g", delimiter=",", header=header, comments="")


def read_snapshot(path):
    """Snapshot file -> dict of column arrays."""
    data = np.genfromtxt(path, delimiter=",", names=True)
    if data.ndim == 0:
        data = data.reshape(1)
    return {name: np.atleast_1d(data[name]) for name in data.dtype.names}
