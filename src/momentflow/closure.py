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


@lru_cache(maxsize=None)
def _top_reads(K):
    """Gather tables for evaluating the prediction only on |alpha| = M+1.

    For each needed index shift s, precompute which top-grade slots have
    alpha - s in range and the flat indices to read there.
    """
    tops = np.argwhere(order_cube(K) == K - 1)
    shifts = [
        (0, 1, 0), (2, 0, 0), (0, 2, 0), (0, 0, 2),
        (1, 1, 0), (0, 1, 1),
        (2, 1, 0), (0, 3, 0), (0, 1, 2),
        (2, -1, 0), (0, -1, 2),
    ]
    table = {}
    for s in shifts:
        src = tops - np.asarray(s)
        ok = np.all((src >= 0) & (src <= K - 1), axis=1)
        table[s] = (np.flatnonzero(ok), src[ok, 0], src[ok, 1], src[ok, 2])
    return tops, table


def closure_coeffs(mean_coeffs, mean_theta, grad_coeffs, grad_u, grad_theta,
                   grad_ptheta, tau):
    """Top-grade coefficient cube from mean values and y-gradients.

    ``mean_coeffs``: (..., K, K, K) with evolved orders <= M filled;
    ``grad_coeffs``: d/dy of the same; ``grad_u``: (..., 3); the scalars
    broadcast over the batch.  Returns a cube nonzero only at |alpha| = M+1.
    """
    c = np.asarray(mean_coeffs, dtype=float)
    g = np.asarray(grad_coeffs, dtype=float)
    K = c.shape[-1]
    tops, table = _top_reads(K)
    batch = c.shape[:-3]
    T = tops.shape[0]

    def rd(arr, s):
        sel, ii, jj, kk = table[s]
        out = np.zeros(batch + (T,))
        out[..., sel] = arr[..., ii, jj, kk]
        return out

    theta = np.asarray(mean_theta, dtype=float)[..., None]
    gth = np.asarray(grad_theta, dtype=float)[..., None]
    gpt = np.asarray(grad_ptheta, dtype=float)[..., None]
    rho = c[..., 0, 0, 0][..., None]
    gu = np.asarray(grad_u, dtype=float)

    acc = gpt / rho * rd(c, (0, 1, 0))
    sum2 = rd(c, (2, 0, 0)) + rd(c, (0, 2, 0)) + rd(c, (0, 0, 2))
    acc += theta / 3.0 * gu[..., 1][..., None] * sum2
    acc -= theta * rd(g, (0, 1, 0))

    a2_plus_1 = tops[:, 1] + 1.0
    for d, e_shift, two_up, two_dn in (
        (0, (1, 1, 0), (2, 1, 0), (2, -1, 0)),
        (1, (0, 2, 0), (0, 3, 0), (0, 1, 0)),
        (2, (0, 1, 1), (0, 1, 2), (0, -1, 2)),
    ):
        acc -= gu[..., d][..., None] * theta * rd(c, e_shift)
        acc -= 0.5 * gth * (
            theta * rd(c, two_up) + a2_plus_1 * rd(c, two_dn)
        )

    acc *= np.asarray(tau, dtype=float)[..., None]
    out = np.zeros(batch + (K, K, K))
    out[..., tops[:, 0], tops[:, 1], tops[:, 2]] = acc
    return out
