"""Gradient-based prediction of the top-order coefficients.

The evolved system stores orders <= M in cubes of edge M + 1 along a2; the
order-(M+1) block that closes the transport fluxes is predicted from first
derivatives of the lower moments and of (rho, u, theta), scaled by the
relaxation time, as a compact (..., T) block that is never stored; only
its slots with alpha2 >= 1 are predicted, as the a2-flux reads no other,
and on an even-only axis of the cube layout (``moments``) only its even
orders.  Only wall-normal (y) derivatives survive in a 1-D channel, while
the velocity space keeps all three dimensions, so the inner dimension sums
always run over d = 1..3.  Coefficients whose index would go negative, or
that the layout does not store, are zero.  The gather tables are cached
per cube layout.
"""

from functools import lru_cache

import numpy as np

from .moments import order_cube, stored_index


# index shifts s at which the prediction reads the mean cube, alpha - s
_SHIFTS = (
    (0, 1, 0), (2, 0, 0), (0, 2, 0), (0, 0, 2),
    (1, 1, 0), (0, 1, 1),
    (2, 1, 0), (0, 3, 0), (0, 1, 2),
    (2, -1, 0), (0, -1, 2),
)


@lru_cache(maxsize=None)
def _top_reads(cube):
    """Gather tables of the prediction on |alpha| = K from cubes of shape
    ``cube`` (K1, K, K3), in any layout of ``moments``.

    Only the top slots with alpha2 >= 1 are predicted: the flux reads the
    top grade as alpha2 P_alpha at alpha - e2, so alpha2 = 0 never enters
    it, and alpha - e2 always lies in the cube; and only those with even
    orders along an even-only axis, as the others are zero by symmetry.
    Returns those multi-indices (T, 3), T = K (K + 1) / 2 in the full
    layout; the flat cube indices of the distinct slots read, and for each
    shift s of ``_SHIFTS`` and top slot alpha (11, T) the position among
    them of alpha - s, pointing at slot 0 where alpha - s is absent from
    the layout; the positions of those absent reads, which must read as
    zero, in the flattened (11, T) block; and the flat indices of
    alpha - e2 and alpha2.
    """
    K = cube[1]
    tops = np.argwhere(order_cube((K + 1,) * 3) == K)
    # alpha - e2 is stored exactly when alpha2 >= 1 and the orders along the
    # even-only axes are even
    tops = tops[~stored_index(cube, tops - [0, 1, 0])[1]]
    src, outside = stored_index(cube, tops[None] - np.asarray(_SHIFTS)[:, None])
    flat = np.ravel_multi_index(tuple(np.moveaxis(src, -1, 0)), cube)
    slots, rows = np.unique(flat, return_inverse=True)
    tables = (tops, slots, rows.reshape(flat.shape), np.flatnonzero(outside),
              flat[0], tops[:, 1] * 1.0)
    for t in tables:
        t.setflags(write=False)
    return tables


def gradient_reads(cubes):
    """The one slot per top-grade slot alpha at which the prediction reads
    the gradient field, f_{alpha - e2}, from every cube of ``cubes``
    (..., K1, K, K3): an (..., T) block.

    The read is linear, so differencing the reads of the field values gives
    the reads of their difference.
    """
    flat = cubes.reshape(cubes.shape[:-3] + (-1,))
    return flat[..., _top_reads(cubes.shape[-3:])[4]]


def add_top_flux(flux, top):
    """Add the top grade's part of the a2-flux, alpha2 P_alpha at
    alpha - e2 for the prediction ``top`` (..., T) of ``closure_coeffs``,
    to the C-contiguous cubes ``flux`` (..., K1, K, K3); returns ``flux``."""
    *_, slots, a2 = _top_reads(flux.shape[-3:])
    flux.reshape(flux.shape[:-3] + (-1,))[..., slots] += top * a2
    return flux


def closure_coeffs(traces, mean_theta, grad_reads, grad_u, grad_theta,
                   grad_ptheta, tau):
    """Top-grade prediction from mean values and y-gradients.

    ``traces``: (2, ..., K1, K, K3), the two traces at each interface, with
    the evolved orders <= M = K - 1 filled; the prediction reads their
    mean, gathered at the 11 index shifts of ``_SHIFTS`` and only there.
    ``grad_reads``: (..., T), d/dy of the ``gradient_reads`` of the
    coefficient field; ``grad_u``: (..., 3); the scalars broadcast over the
    batch.  Returns the (..., T) prediction on the indices |alpha| = M+1
    of ``_top_reads``.
    """
    c = np.asarray(traces, dtype=float)
    tops, slots, rows, zero, *_ = _top_reads(c.shape[-3:])
    batch = c.shape[1:-3]
    # the slots read of both traces in one gather, averaged on that small
    # block, then spread to one row per shift of _SHIFTS
    pair = np.take(c.reshape(c.shape[:-3] + (-1,)), slots, axis=-1)
    mean = np.add(pair[0], pair[1], out=pair[0])
    mean *= 0.5
    r = np.take(mean, rows, axis=-1)
    r.reshape(batch + (-1,))[..., zero] = 0.0
    (c010, c200, c020, c002, c110, c011, c210, c030, c012, c2m0,
     c0m2) = (r[..., i, :] for i in range(len(_SHIFTS)))

    theta = np.asarray(mean_theta, dtype=float)[..., None]
    gth = np.asarray(grad_theta, dtype=float)[..., None]
    gpt = np.asarray(grad_ptheta, dtype=float)[..., None]
    rho = (0.5 * (c[0, ..., 0, 0, 0] + c[1, ..., 0, 0, 0]))[..., None]
    gu = np.asarray(grad_u, dtype=float)

    acc = gpt / rho * c010
    sum2 = c200 + c020 + c002
    acc += theta / 3.0 * gu[..., 1][..., None] * sum2
    acc -= theta * grad_reads

    a2_plus_1 = tops[:, 1] + 1.0
    for d, e_shift, two_up, two_dn in (
        (0, c110, c210, c2m0),
        (1, c020, c030, c010),
        (2, c011, c012, c0m2),
    ):
        acc -= gu[..., d][..., None] * theta * e_shift
        acc -= 0.5 * gth * (theta * two_up + a2_plus_1 * two_dn)

    acc *= np.asarray(tau, dtype=float)[..., None]
    return acc
