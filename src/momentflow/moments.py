"""Coefficient-cube layout, macroscopic extraction and snapshot files.

A distribution is represented by its Hermite coefficients about a local frame
(u, theta).  Coefficients live in a cube ``coeffs[a1, a2, a3]`` with entries
kept for the evolved grades |alpha| <= M and zero beyond.  The top grade
|alpha| = M + 1 that closes the fluxes is never stored: the closure predicts
it where a flux needs it.

Layout rule.  The a2 axis carries the transport and always holds every
order 0..M, so K = M + 1 is ``coeffs.shape[-2]``.  An a1 or a3 axis either
holds every order too (length K) or, when the slab problem is mirror
symmetric in that velocity component, only the even orders 0, 2, 4, ...
(length (K + 1) // 2): the odd ones are then zero by symmetry and are not
stored.  The layout is read from the cube shape ``coeffs.shape[-3:]``, and
every table that depends on it is cached per cube shape.  A fixed
multi-index alpha is found through the slot map (``stored_index``,
``read_slots``): on an even-only axis order a sits at a / 2, an odd order
is structurally absent and reads as zero.  Order 0 is at index 0 in every
layout.
"""

from functools import lru_cache

import numpy as np


@lru_cache(maxsize=None)
def axis_steps(cube):
    """Order step along each axis of cubes of shape ``cube`` (K1, K, K3):
    1 for an axis holding every order 0..K-1, 2 for one holding the even
    orders alone.  Any other shape is a ValueError."""
    K = cube[1] if len(cube) == 3 else None
    if K is None or any(n not in (K, (K + 1) // 2) for n in cube[::2]):
        raise ValueError("cube shape %r is not a coefficient layout" % (cube,))
    return tuple(1 if n == K else 2 for n in cube)


@lru_cache(maxsize=None)
def order_cube(cube):
    """Cube of shape ``cube`` whose entry at each stored slot is |alpha|."""
    r1, r2, r3 = (np.arange(0, cube[1], s) for s in axis_steps(cube))
    orders = r1[:, None, None] + r2[None, :, None] + r3[None, None, :]
    orders.setflags(write=False)
    return orders


@lru_cache(maxsize=None)
def grade_mask(cube, order):
    """Boolean cube of shape ``cube`` selecting |alpha| <= order."""
    m = order_cube(cube) <= order
    m.setflags(write=False)
    return m


def stored_index(cube, alphas):
    """Slot map: the stored position (..., 3) of each multi-index of
    ``alphas`` (..., 3) in cubes of shape ``cube``, and whether it is
    absent from the layout (..., ): an order outside 0..K-1, or an odd
    order on an even-only axis.  An absent one gets position (0, 0, 0)."""
    alphas = np.asarray(alphas)
    steps = np.asarray(axis_steps(cube))
    absent = np.any((alphas < 0) | (alphas >= cube[1]) | (alphas % steps != 0),
                    axis=-1)
    return np.where(absent[..., None], 0, alphas // steps), absent


@lru_cache(maxsize=None)
def _slot_table(cube, alphas):
    """Per-axis stored positions of the multi-indices ``alphas`` (a tuple of
    3-tuples), and the positions among them of the absent ones."""
    index, absent = stored_index(cube, alphas)
    tables = tuple(index.T) + (np.flatnonzero(absent),)
    for t in tables:
        t.setflags(write=False)
    return tables[:3], tables[3]


def read_slots(coeffs, alphas):
    """The coefficients at the multi-indices ``alphas`` (a tuple of
    3-tuples) of the cubes ``coeffs`` (..., K1, K, K3): an (..., n) array,
    zero where a slot is absent from the layout."""
    index, absent = _slot_table(coeffs.shape[-3:], alphas)
    out = coeffs[(Ellipsis,) + index]
    out[..., absent] = 0.0
    return out


@lru_cache(maxsize=64)
def work_array(tag, shape):
    """Scratch array kept across steps, one per (tag, shape); callers
    overwrite it before reading and never hand it out.  Not thread safe."""
    return np.empty(shape)


# ---------------------------------------------------------------------------
# macroscopic extraction, batched: coeffs may have leading cell dimensions

# the slots of order <= 1, then the f_{2 e_d}
LOW_SLOTS = ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1),
             (2, 0, 0), (0, 2, 0), (0, 0, 2))
# sigma_ij = (1 + delta_ij) f_{e_i + e_j}, row-major over (i, j)
_STRESS_SLOTS = tuple(tuple(int(k == i) + int(k == j) for k in range(3))
                      for i in range(3) for j in range(3))
# q_i = sum_d (1 + 2 delta_id) f_{e_i + 2 e_d}, row-major over (i, d)
HEAT_FLUX_SLOTS = tuple(tuple(int(k == i) + 2 * int(k == d) for k in range(3))
                        for i in range(3) for d in range(3))
_STRESS_WEIGHTS = 1.0 + np.eye(3)
_HEAT_FLUX_WEIGHTS = 1.0 + 2.0 * np.eye(3)


def low_moments(coeffs):
    """f_0, the three f_{e_d} (..., 3) and sum_d f_{2 e_d} of batched
    cubes, a slot absent from the layout read as zero."""
    f = read_slots(coeffs, LOW_SLOTS)
    return f[..., 0], f[..., 1:4], f[..., 4] + f[..., 5] + f[..., 6]


def stress_tensor(coeffs):
    """Deviatoric stress: off-diagonal f_{e_i+e_j}, diagonal 2 f_{2 e_i}."""
    s = read_slots(coeffs, _STRESS_SLOTS).reshape(coeffs.shape[:-3] + (3, 3))
    s *= _STRESS_WEIGHTS
    return s


def heat_flux(coeffs):
    """q_i = 2 f_{3 e_i} + sum_d f_{2 e_d + e_i}."""
    f = read_slots(coeffs, HEAT_FLUX_SLOTS).reshape(coeffs.shape[:-3] + (3, 3))
    f *= _HEAT_FLUX_WEIGHTS
    return np.sum(f, axis=-1)


# ---------------------------------------------------------------------------
# CSV snapshots
#
# One row per cell:  y, rho, u1, u2, u3, theta, sigma11, sigma12, sigma22,
# q1, q2 -- written at full precision so a read-back round trips.

SNAPSHOT_COLUMNS = (
    "y", "rho", "u1", "u2", "u3", "theta",
    "sigma11", "sigma12", "sigma22", "q1", "q2",
)


def fields_table(centers, rho, u, theta, sigma, q):
    """The snapshot columns, in ``SNAPSHOT_COLUMNS`` order, of the cell
    fields of both solvers: arrays over cells, velocity (..., 3), stress
    (..., 3, 3) and heat flux (..., 3)."""
    return np.column_stack([
        centers, rho, u[..., 0], u[..., 1], u[..., 2], theta,
        sigma[..., 0, 0], sigma[..., 0, 1], sigma[..., 1, 1], q[..., 0],
        q[..., 1]])


def snapshot_table(centers, u, theta, coeffs):
    """Assemble the snapshot column matrix from batched cell arrays.  The
    columns read a few low slots of each cube; a cell with a non-finite
    coefficient anywhere in its cube gets NaN in every column but y, so a
    reader of the table cannot miss it."""
    table = fields_table(centers, coeffs[..., 0, 0, 0], u, theta,
                         stress_tensor(coeffs), heat_flux(coeffs))
    table[~np.isfinite(coeffs).all(axis=(-3, -2, -1)), 1:] = np.nan
    return table


def column_norms(a, b, columns, norm="l2rel"):
    """The difference of profile ``a`` from the reference profile ``b``
    (dicts of column arrays, as ``read_snapshot`` gives them) in each of
    ``columns``, with ``b`` interpolated linearly in y onto ``a``'s cells:
    a list of its max norm ("linf"), its 2-norm ("l2") or its 2-norm over
    that of the reference ("l2rel", the 2-norm alone where the reference is
    zero).  A NaN value makes its column's norm NaN; a column missing from
    either profile is a ValueError."""
    vals = []
    for col in columns:
        if col not in a or col not in b:
            raise ValueError("missing column %s" % col)
        ref = np.interp(a["y"], b["y"], b[col])
        diff = a[col] - ref
        if norm == "linf":
            val = np.max(np.abs(diff))
        elif norm == "l2":
            val = float(np.linalg.norm(diff))
        else:
            denom = float(np.linalg.norm(ref))
            val = float(np.linalg.norm(diff)) / (denom if denom > 0 else 1.0)
        vals.append(val)
    return vals


def write_table(path, table):
    """Write a profile table with the standard snapshot header."""
    header = ",".join(SNAPSHOT_COLUMNS)
    np.savetxt(path, table, fmt="%.17g", delimiter=",", header=header, comments="")


def read_snapshot(path):
    """Snapshot file -> dict of column arrays."""
    data = np.genfromtxt(path, delimiter=",", names=True)
    return {name: np.atleast_1d(data[name]) for name in data.dtype.names}
