"""Gradient-based prediction of the top-order coefficients.

The evolved system stores orders <= M; the order-(M+1) block needed by the
transport fluxes is predicted from first derivatives of the lower moments and
of (rho, u, theta), scaled by the relaxation time.  Only wall-normal (y)
derivatives survive in a 1-D channel, while the velocity space keeps all
three dimensions, so the inner dimension sums always run over d = 1..3.
Coefficients whose index would go negative are zero.
"""

from functools import lru_cache

import numpy as np

from .moments import order_cube


# index shifts s at which the prediction reads the mean cube, alpha - s
_SHIFTS = (
    (0, 1, 0), (2, 0, 0), (0, 2, 0), (0, 0, 2),
    (1, 1, 0), (0, 1, 1),
    (2, 1, 0), (0, 3, 0), (0, 1, 2),
    (2, -1, 0), (0, -1, 2),
)


@lru_cache(maxsize=None)
def _top_reads(K):
    """Gather tables for evaluating the prediction only on |alpha| = M+1.

    Returns the top-grade multi-indices (T, 3); the flat cube index of
    alpha - s for each shift s of ``_SHIFTS`` and top slot alpha (11, T),
    clipped into the cube where alpha - s leaves it; and the positions of
    those out-of-range reads, which must read as zero, in the flattened
    (11, T) block and in its first row.
    """
    tops = np.argwhere(order_cube(K) == K - 1)
    src = tops[None, :, :] - np.asarray(_SHIFTS)[:, None, :]
    outside = np.any((src < 0) | (src > K - 1), axis=-1)
    flat = np.ravel_multi_index(tuple(np.moveaxis(src, -1, 0)), (K,) * 3,
                                mode="clip")
    tables = tops, flat, np.flatnonzero(outside), np.flatnonzero(outside[0])
    for t in tables:
        t.setflags(write=False)
    return tables


def closure_coeffs(mean_coeffs, mean_theta, grad_coeffs, grad_u, grad_theta,
                   grad_ptheta, tau, out=None):
    """Top-grade coefficient cube from mean values and y-gradients.

    ``mean_coeffs``: (..., K, K, K) with evolved orders <= M filled;
    ``grad_coeffs``: d/dy of the same; ``grad_u``: (..., 3); the scalars
    broadcast over the batch.  Returns a new cube nonzero only at
    |alpha| = M+1; or, if ``out`` is given, writes the prediction into the
    top-grade slots of ``out`` (broadcast over its extra leading axes),
    leaves its other slots as they are and returns it.
    """
    c = np.asarray(mean_coeffs, dtype=float)
    g = np.asarray(grad_coeffs, dtype=float)
    K = c.shape[-1]
    tops, flat, zero, zero0 = _top_reads(K)
    batch = c.shape[:-3]
    # every read of the mean cube in one gather, one row per shift of
    # _SHIFTS, and the one read of the gradient cube, at shift (0, 1, 0)
    r = np.take(c.reshape(batch + (K**3,)), flat, axis=-1)
    r.reshape(batch + (-1,))[..., zero] = 0.0
    rg = np.take(g.reshape(batch + (K**3,)), flat[0], axis=-1)
    rg[..., zero0] = 0.0
    (c010, c200, c020, c002, c110, c011, c210, c030, c012, c2m0,
     c0m2) = (r[..., i, :] for i in range(len(_SHIFTS)))

    theta = np.asarray(mean_theta, dtype=float)[..., None]
    gth = np.asarray(grad_theta, dtype=float)[..., None]
    gpt = np.asarray(grad_ptheta, dtype=float)[..., None]
    rho = c[..., 0, 0, 0][..., None]
    gu = np.asarray(grad_u, dtype=float)

    acc = gpt / rho * c010
    sum2 = c200 + c020 + c002
    acc += theta / 3.0 * gu[..., 1][..., None] * sum2
    acc -= theta * rg

    a2_plus_1 = tops[:, 1] + 1.0
    for d, e_shift, two_up, two_dn in (
        (0, c110, c210, c2m0),
        (1, c020, c030, c010),
        (2, c011, c012, c0m2),
    ):
        acc -= gu[..., d][..., None] * theta * e_shift
        acc -= 0.5 * gth * (theta * two_up + a2_plus_1 * two_dn)

    acc *= np.asarray(tau, dtype=float)[..., None]
    if out is None:
        out = np.zeros(batch + (K, K, K))
    out[..., tops[:, 0], tops[:, 1], tops[:, 2]] = acc
    return out
