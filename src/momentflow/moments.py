"""Moment-state data model.

A distribution is represented by its Hermite coefficients about a local frame
(u, theta).  Coefficients live in a dense cube ``coeffs[a1, a2, a3]`` of edge
K = M + 2 with entries kept for |alpha| <= M + 1; the top grade |alpha| = M+1
is derived (filled by the closure), grades <= M are the evolved unknowns.
The canonical linear ordering of multi-indices is graded (by |alpha|),
lexicographic within a grade.
"""

import math
from functools import lru_cache

import numpy as np

from .hermite import expansion_eval

INVARIANT_TOL = 1e-12


def n_moments(M):
    """Number of multi-indices with |alpha| <= M+1."""
    return (M + 2) * (M + 3) * (M + 4) // 6


@lru_cache(maxsize=None)
def multi_indices(order):
    """All alpha with |alpha| <= order, graded-lexicographic."""
    out = []
    for k in range(order + 1):
        for a1 in range(k, -1, -1):
            for a2 in range(k - a1, -1, -1):
                out.append((a1, a2, k - a1 - a2))
    return tuple(out)


@lru_cache(maxsize=None)
def index_rank(order):
    """Inverse of multi_indices: alpha -> position in the graded order."""
    return {a: i for i, a in enumerate(multi_indices(order))}


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


def cube_from_dict(M, d):
    """Build a (K,K,K) cube from a {multi-index: value} mapping."""
    K = M + 2
    c = np.zeros((K, K, K))
    for alpha, val in d.items():
        if sum(alpha) <= M + 1:
            c[alpha] = val
    return c


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


class MomentState:
    """One cell's Hermite-series distribution: frame (u, theta) plus coeffs.

    The container does not force admissibility -- intermediate states during
    a transport update legitimately violate f_{e_i} = 0; ``validate`` checks
    the invariants separately.
    """

    __slots__ = ("u", "theta", "coeffs")

    def __init__(self, u, theta, coeffs):
        self.u = np.asarray(u, dtype=float).copy()
        if self.u.shape != (3,):
            raise ValueError("u must be a 3-vector")
        if not (theta > 0):
            raise ValueError("theta must be positive")
        self.theta = float(theta)
        self.coeffs = np.asarray(coeffs, dtype=float).copy()

    @property
    def M(self):
        return self.coeffs.shape[-1] - 2

    @property
    def rho(self):
        return float(self.coeffs[0, 0, 0])

    def copy(self):
        return MomentState(self.u, self.theta, self.coeffs)

    def evaluate(self, xi):
        return expansion_eval(self.coeffs, self.u, self.theta, xi)

    def stress(self):
        return stress_tensor(self.coeffs)

    def heat_flux(self):
        return heat_flux(self.coeffs)

    def moment(self, alpha):
        if min(alpha) < 0 or sum(alpha) > self.M + 1:
            return 0.0
        return float(self.coeffs[alpha])

    def validate(self, tol=INVARIANT_TOL):
        """None if the state is admissible, else a description of the first
        violated invariant.  Written ``not (x > 0)`` so that NaN fails."""
        if not (self.rho > 0):
            return "rho is not positive: %r" % self.rho
        if not (self.theta > 0):
            return "theta is not positive: %r" % self.theta
        scale = max(abs(self.rho), 1.0)
        for d, alpha in enumerate([(1, 0, 0), (0, 1, 0), (0, 0, 1)]):
            if abs(self.coeffs[alpha]) > tol * scale:
                return f"f_(e_{d+1}) != 0"
        trace = self.coeffs[2, 0, 0] + self.coeffs[0, 2, 0] + self.coeffs[0, 0, 2]
        if abs(trace) > tol * scale:
            return "sum_d f_(2 e_d) != 0"
        return None


def maxwellian(rho, u, theta, M):
    """Equilibrium state: only the zeroth coefficient is nonzero."""
    if not (rho > 0 and theta > 0):
        raise ValueError("rho and theta must be positive")
    if M < 3:
        raise ValueError("moment order must be at least 3")
    K = M + 2
    c = np.zeros((K, K, K))
    c[0, 0, 0] = rho
    return MomentState(np.asarray(u, dtype=float), theta, c)


# ---------------------------------------------------------------------------
# CSV snapshots
#
# One row per cell:  y, rho, u1, u2, u3, theta, sigma11, sigma12, sigma22,
# q1, q2 -- written at full precision so a read-back round trips.

SNAPSHOT_COLUMNS = (
    "y", "rho", "u1", "u2", "u3", "theta",
    "sigma11", "sigma12", "sigma22", "q1", "q2",
)


def snapshot_table(centers, u, theta, coeffs):
    """Assemble the snapshot column matrix from batched cell arrays."""
    sig = stress_tensor(coeffs)
    q = heat_flux(coeffs)
    cols = [
        np.asarray(centers, dtype=float),
        coeffs[..., 0, 0, 0],
        u[..., 0], u[..., 1], u[..., 2],
        np.asarray(theta, dtype=float),
        sig[..., 0, 0], sig[..., 0, 1], sig[..., 1, 1],
        q[..., 0], q[..., 1],
    ]
    return np.column_stack(cols)


def write_table(path, table):
    """Write a profile table with the standard snapshot header."""
    header = ",".join(SNAPSHOT_COLUMNS)
    np.savetxt(path, table, fmt="%.17g", delimiter=",", header=header, comments="")


def write_snapshot(path, centers, u, theta, coeffs):
    write_table(path, snapshot_table(centers, u, theta, coeffs))


def read_snapshot(path):
    """Snapshot file -> dict of column arrays."""
    data = np.genfromtxt(path, delimiter=",", names=True)
    if data.ndim == 0:
        data = data.reshape(1)
    return {name: np.atleast_1d(data[name]) for name in data.dtype.names}
