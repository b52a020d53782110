"""Re-expansion of Hermite series about a new velocity/temperature frame.

A frame change (u, theta) -> (u', theta') acts separably per axis through a
lower-triangular Toeplitz convolution built from the kernel

    h_0 = 1,   n h_n = (u_d - u'_d) h_{n-1} + (theta - theta') h_{n-2},

so new_f_beta = sum_{gamma+delta=beta} f_gamma prod_d h_{delta_d}.  The map is
graded-triangular: coefficients of order k depend only on input orders <= k,
which makes the round trip exact on every retained order when nothing is
truncated away.

The shift-matrix tables and the grade mask are cached per cube layout
(``moments``): an even-only axis takes the even rows and columns of its
matrix, which is exact while that axis's frame velocity stays put.
"""

from functools import lru_cache

import numpy as np

from .moments import axis_steps, grade_mask, low_moments, work_array


def shift_kernel(du, dtheta, nmax):
    """Kernel h_0..h_nmax for one axis; ``du``/``dtheta`` broadcast batched."""
    batch = np.broadcast(du, dtheta).shape
    h = np.zeros(batch + (nmax + 1,))
    h[..., 0] = 1.0
    if nmax >= 1:
        h[..., 1] = du
    for n in range(2, nmax + 1):
        h[..., n] = (du * h[..., n - 1] + dtheta * h[..., n - 2]) / n
    return h


@lru_cache(maxsize=None)
def _toeplitz(cube):
    """Shift-matrix tables of cubes of shape ``cube``: for each axis, over
    the orders it stores, T[a, b] = h_{a-b} for a >= b and 0 otherwise.

    Returns the gather index into the three axes' kernels, flattened to
    (3 K,), and the mask a >= b, both concatenated over the three
    row-major matrices (axis 3's transposed), and each matrix's (start,
    stop, edge) in them.  On an even-only axis the matrix is the even rows
    and columns of the full one: the kernel's odd entries vanish when that
    axis's frame velocity does not move, which the mirror symmetry
    guarantees.
    """
    K = cube[1]
    index, lower, blocks, stop = [], [], [], 0
    for d, step in enumerate(axis_steps(cube)):
        r = np.arange(0, K, step)
        diff = r[:, None] - r[None, :]
        # axis 3's matrix is stored transposed, as its right-multiply reads it
        diff = (diff.T if d == 2 else diff).ravel()
        index.append(d * K + np.clip(diff, 0, None))
        lower.append(diff >= 0)
        blocks.append((stop, stop + diff.size, r.size))
        stop += diff.size
    tables = np.concatenate(index), np.concatenate(lower)
    for t in tables:
        t.setflags(write=False)
    return tables + (tuple(blocks),)


def _shift_matrices(du, dtheta, cube):
    """The lower-triangular banded matrices T_d[a, b] = h_{a-b} of cubes of
    shape ``cube`` for axes 1 and 2, and T_3 transposed; ``du`` (..., 3),
    ``dtheta`` (..., 1)."""
    index, lower, blocks = _toeplitz(cube)
    h = shift_kernel(du, dtheta, cube[1] - 1)
    # np.take gathers into a C-ordered array; fancy indexing would pick
    # inverted output strides and push the matmuls downstream off their
    # fast path
    T = np.take(h.reshape(h.shape[:-2] + (-1,)), index, axis=-1)
    T *= lower
    return tuple(T[..., a:b].reshape(T.shape[:-1] + (n, n))
                 for a, b, n in blocks)


def project_coeffs(coeffs, u, theta, u_new, theta_new, out=None):
    """Apply the frame change to batched coefficient cubes.

    ``coeffs``: (..., K1, K, K3) in any layout of ``moments``;
    ``u``/``u_new``: (..., 3); ``theta``/``theta_new``: (...,), arrays
    each broadcasting to the batch ``coeffs.shape[:-3]``.  On an even-only
    axis the frame velocity must not change.  Cube entries beyond the retained
    order |alpha| <= K-1 are re-zeroed after the convolution.
    ``out``, if given, is a C-contiguous array of the result's shape, not
    overlapping ``coeffs``, that receives the result; otherwise a new array
    does.
    """
    batch, cube = coeffs.shape[:-3], coeffs.shape[-3:]
    n1, K, n3 = cube
    dtheta = theta - theta_new
    # one kernel build for all three axes
    t1, t2, t3 = _shift_matrices(u - u_new, dtheta[..., None], cube)
    if out is None:
        out = np.empty(batch + cube)
    mid = work_array("projection", out.shape)
    # three stacked matmuls, one per cube axis, each phrased so every cube's
    # trailing axes stay contiguous: axis 1 as T (n1 x K n3), axis 2 with T
    # broadcast across the leading cube axis, axis 3 as one right-multiply
    # (n1 K x n3) T_3^T per cube; the input reshape is a view for any batch
    # strides
    flat = batch + (n1 * K, n3)
    src = coeffs.reshape(batch + (n1, K * n3))
    np.matmul(t1, src, out=out.reshape(batch + (n1, K * n3)))
    np.matmul(t2[..., None, :, :], out, out=mid)
    np.matmul(mid.reshape(flat), t3, out=out.reshape(flat))
    out *= grade_mask(cube, K - 1)
    return out


def renormalize_arrays(u_frame, theta_frame, coeffs, out=None):
    """Recover the represented (rho, u, theta) and re-center the expansion.

    After a conservative update the cube about the old frame has nonzero
    f_{e_d} and second-moment trace; the represented function's true mean
    velocity and temperature follow from the low-order slots:

        u_d     = u_frame_d + f_{e_d} / f_0
        theta   = theta_frame
                  + (2 sum_d f_{2e_d} - sum_d f_{e_d}^2 / f_0) / (3 f_0)

    Projecting onto the recovered frame zeroes those slots again.
    Returns (u, theta, coeffs) batched like the inputs; ``out`` is as in
    ``project_coeffs`` and receives the coeffs.
    """
    rho, f1, f2sum = low_moments(coeffs)
    u_new = u_frame + f1 / rho[..., None]
    theta_new = theta_frame + (2.0 * f2sum - np.sum(f1**2, axis=-1) / rho) / (3.0 * rho)
    c = project_coeffs(coeffs, u_frame, theta_frame, u_new, theta_new, out=out)
    return u_new, theta_new, c
