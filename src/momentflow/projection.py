"""Re-expansion of Hermite series about a new velocity/temperature frame.

A frame change (u, theta) -> (u', theta') acts separably per axis through a
lower-triangular Toeplitz convolution built from the kernel

    h_0 = 1,   n h_n = (u_d - u'_d) h_{n-1} + (theta - theta') h_{n-2},

so new_f_beta = sum_{gamma+delta=beta} f_gamma prod_d h_{delta_d}.  The map is
graded-triangular: coefficients of order k depend only on input orders <= k,
which makes the round trip exact on every retained order when nothing is
truncated away.
"""

from functools import lru_cache

import numpy as np

from .moments import grade_mask, work_array


def shift_kernel(du, dtheta, nmax):
    """Kernel h_0..h_nmax for one axis; ``du``/``dtheta`` broadcast batched."""
    du = np.asarray(du, dtype=float)
    dtheta = np.asarray(dtheta, dtype=float)
    batch = np.broadcast(du, dtheta).shape
    h = np.zeros(batch + (nmax + 1,))
    h[..., 0] = 1.0
    if nmax >= 1:
        h[..., 1] = du
    for n in range(2, nmax + 1):
        h[..., n] = (du * h[..., n - 1] + dtheta * h[..., n - 2]) / n
    return h


@lru_cache(maxsize=None)
def _toeplitz(K):
    """Gather index max(a - b, 0) into the kernel, and the mask a >= b, of
    the K x K shift matrix."""
    diff = np.arange(K)[:, None] - np.arange(K)[None, :]
    tables = np.clip(diff, 0, None), diff >= 0
    for t in tables:
        t.setflags(write=False)
    return tables


def _shift_matrix(du, dtheta, K):
    """Lower-triangular banded matrix T[a, b] = h_{a-b}."""
    index, lower = _toeplitz(K)
    # np.take gathers into a C-ordered array; fancy indexing would pick
    # inverted output strides and push the matmuls downstream off their
    # fast path
    T = np.take(shift_kernel(du, dtheta, K - 1), index, axis=-1)
    T *= lower
    return T


def project_coeffs(coeffs, u, theta, u_new, theta_new, out=None):
    """Apply the frame change to batched coefficient cubes.

    ``coeffs``: (..., K, K, K); ``u``/``u_new``: (..., 3);
    ``theta``/``theta_new``: (...,).  Cube entries beyond the retained order
    |alpha| <= K-1 are re-zeroed after the convolution.  ``out``, if given,
    is a C-contiguous array of the result's shape, not overlapping
    ``coeffs``, that receives the result; otherwise a new array does.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    K = coeffs.shape[-1]
    u = np.asarray(u, dtype=float)
    u_new = np.asarray(u_new, dtype=float)
    dtheta = np.asarray(theta, dtype=float) - np.asarray(theta_new, dtype=float)
    # one kernel build for all three axes: batch axis -3 runs over x, y, z
    t123 = _shift_matrix(u - u_new, dtheta[..., None], K)
    t1, t2, t3 = (t123[..., d, :, :] for d in range(3))
    batch = np.broadcast(coeffs[..., 0, 0, 0], t1[..., 0, 0]).shape
    if out is None:
        out = np.empty(batch + (K, K, K))
    mid = work_array("projection", out.shape)
    # three stacked matmuls, one per cube axis, each phrased so every cube's
    # trailing axes stay contiguous: axis 1 as T (K x K^2), axis 2 with T
    # broadcast across the leading cube axis, axis 3 as one right-multiply
    # (K^2 x K) T^T per cube; the input reshape is a view for any batch
    # strides
    flat = batch + (K * K, K)
    if coeffs.shape[:-3] != batch:
        coeffs = np.broadcast_to(coeffs, batch + (K, K, K))
    src = coeffs.reshape(batch + (K, K * K))
    np.matmul(t1, src, out=out.reshape(batch + (K, K * K)))
    np.matmul(t2[..., None, :, :], out, out=mid)
    np.matmul(mid.reshape(flat), np.swapaxes(t3, -1, -2), out=out.reshape(flat))
    out *= grade_mask(K, K - 1)
    return out


def renormalize_arrays(u_frame, theta_frame, coeffs):
    """Recover the represented (rho, u, theta) and re-center the expansion.

    After a conservative update the cube about the old frame has nonzero
    f_{e_d} and second-moment trace; the represented function's true mean
    velocity and temperature follow from the low-order slots:

        u_d     = u_frame_d + f_{e_d} / f_0
        theta   = theta_frame
                  + (2 sum_d f_{2e_d} - sum_d f_{e_d}^2 / f_0) / (3 f_0)

    Projecting onto the recovered frame zeroes those slots again.
    Returns (u, theta, coeffs) batched like the inputs.
    """
    rho = coeffs[..., 0, 0, 0]
    f1 = np.stack(
        [coeffs[..., 1, 0, 0], coeffs[..., 0, 1, 0], coeffs[..., 0, 0, 1]], axis=-1
    )
    f2sum = coeffs[..., 2, 0, 0] + coeffs[..., 0, 2, 0] + coeffs[..., 0, 0, 2]
    u_new = u_frame + f1 / rho[..., None]
    theta_new = theta_frame + (2.0 * f2sum - np.sum(f1**2, axis=-1) / rho) / (3.0 * rho)
    c = project_coeffs(coeffs, u_frame, theta_frame, u_new, theta_new)
    return u_new, theta_new, c
