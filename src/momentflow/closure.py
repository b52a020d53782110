"""Gradient-based prediction of the top-order coefficients.

Cubes store the orders <= M (edge M + 1 along a2); the order-(M+1) block
that closes the transport fluxes is predicted from first y-derivatives,
scaled by the relaxation time, as a compact (..., T) block that is never
stored.  Only its slots with alpha2 >= 1 are predicted, as the a2-flux reads
no other, and on an even-only axis of the layout (``moments``) only its even
orders; a read outside the layout is zero.  Only y-derivatives survive in a
slab, while the velocity space keeps all three dimensions.  The gather
tables are cached per cube layout.

The prediction differentiates one column block per state,
``closure_columns(u, theta, coeffs)``: u (3), theta, rho theta and the reads
f_{alpha - e2} of the cube, one per top slot alpha.  ``closure_coeffs``
takes the y-derivative D of that block whole; with f the mean of the two
traces, read at the 11 index shifts s of ``_TERMS``, and the scaled
derivatives g = (theta Du1, theta Du2, theta Du3, theta Dtheta,
D(rho theta) / rho), it predicts

    P_alpha / tau = sum_s (g W)_s f_{alpha - s} - theta D f_{alpha - e2}
                    - (alpha2 + 1) Dtheta / 2 sum_d f_{alpha - 2 e_d + e2},

where W = ``_WEIGHTS`` is the constant (5, 11) table of ``_TERMS``, and the
last sum runs over its last three shifts.
"""

from functools import lru_cache

import numpy as np

from .moments import order_cube, stored_index

# index shift s -> its weights on g: theta Du2 / 3 on each f_{alpha - 2 e_d},
# less theta Du_d on f_{alpha - e_d - e2} (so -2/3 at 2 e2), -theta Dtheta / 2
# on f_{alpha - 2 e_d - e2} and D(rho theta) / rho on f_{alpha - e2}; the
# last three shifts carry only the (alpha2 + 1) term
_TERMS = {
    (2, 0, 0): (0.0, 1.0 / 3.0, 0.0, 0.0, 0.0),
    (0, 2, 0): (0.0, -2.0 / 3.0, 0.0, 0.0, 0.0),
    (0, 0, 2): (0.0, 1.0 / 3.0, 0.0, 0.0, 0.0),
    (1, 1, 0): (-1.0, 0.0, 0.0, 0.0, 0.0),
    (0, 1, 1): (0.0, 0.0, -1.0, 0.0, 0.0),
    (2, 1, 0): (0.0, 0.0, 0.0, -0.5, 0.0),
    (0, 3, 0): (0.0, 0.0, 0.0, -0.5, 0.0),
    (0, 1, 2): (0.0, 0.0, 0.0, -0.5, 0.0),
    (2, -1, 0): (0.0, 0.0, 0.0, 0.0, 0.0),
    (0, 1, 0): (0.0, 0.0, 0.0, 0.0, 1.0),
    (0, -1, 2): (0.0, 0.0, 0.0, 0.0, 0.0),
}
_SHIFTS = tuple(_TERMS)
_WEIGHTS = np.array(list(_TERMS.values())).T
_WEIGHTS.setflags(write=False)


@lru_cache(maxsize=None)
def _top_reads(cube):
    """Gather tables of the prediction from cubes of shape ``cube``
    (K1, K, K3), in any layout of ``moments``: the predicted top slots
    alpha (T, 3), |alpha| = K, those with alpha2 >= 1 (the flux reads the
    top grade as alpha2 P_alpha at alpha - e2) and even orders along an
    even-only axis (the others are zero by symmetry), T = K (K + 1) / 2 in
    the full layout; the flat indices of the distinct slots read; for each
    shift s of ``_SHIFTS`` and top slot (11, T) the position among them of
    alpha - s, slot 0 where that is absent from the layout; the positions
    of those absent reads, which must read as zero, in the flattened
    (11, T) block; and the flat indices of alpha - e2 and alpha2.
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
              flat[_SHIFTS.index((0, 1, 0))], tops[:, 1] * 1.0)
    for t in tables:
        t.setflags(write=False)
    return tables


def closure_columns(u, theta, coeffs):
    """The (..., 5 + T) block the prediction differentiates, of states
    u (..., 3), theta (...), coeffs (..., K1, K, K3): u, theta, rho theta
    and the (linear) reads f_{alpha - e2} of each top slot alpha."""
    flat = coeffs.reshape(coeffs.shape[:-3] + (-1,))
    rho_theta = flat[..., 0] * theta
    return np.concatenate([u, theta[..., None], rho_theta[..., None],
                           flat[..., _top_reads(coeffs.shape[-3:])[4]]],
                          axis=-1)


def add_top_flux(flux, top):
    """Add the top grade's part of the a2-flux, alpha2 P_alpha at
    alpha - e2 for the prediction ``top`` (..., T) of ``closure_coeffs``,
    to the C-contiguous cubes ``flux`` (..., K1, K, K3); returns ``flux``."""
    *_, slots, a2 = _top_reads(flux.shape[-3:])
    flux.reshape(flux.shape[:-3] + (-1,))[..., slots] += top * a2
    return flux


def closure_coeffs(traces, mean_theta, grad, tau):
    """Top-grade prediction from mean values and y-gradients.

    ``traces``: (2, ..., K1, K, K3), the two traces at each interface, with
    the evolved orders <= M = K - 1 filled; the prediction reads their
    mean, gathered at the 11 index shifts of ``_SHIFTS`` and only there.
    ``grad``: (..., 5 + T), d/dy of the ``closure_columns`` block;
    ``mean_theta`` and ``tau`` broadcast over the batch.  Returns the
    (..., T) prediction on the indices |alpha| = M+1 of ``_top_reads``.
    """
    c = np.asarray(traces, dtype=float)
    _, slots, rows, zero, _, a2 = _top_reads(c.shape[-3:])
    batch = c.shape[1:-3]
    # the slots read of both traces in one gather, averaged on that small
    # block, then spread to one row per shift of _SHIFTS
    pair = np.take(c.reshape(c.shape[:-3] + (-1,)), slots, axis=-1)
    mean = np.add(pair[0], pair[1], out=pair[0])
    mean *= 0.5
    r = np.take(mean, rows, axis=-1)
    r.reshape(batch + (-1,))[..., zero] = 0.0

    theta = np.asarray(mean_theta, dtype=float)[..., None]
    rho = 0.5 * (c[0, ..., 0, 0, 0] + c[1, ..., 0, 0, 0])
    g = grad[..., :5] * theta
    g[..., 4] = grad[..., 4] / rho
    acc = np.einsum("...s,...st->...t", g @ _WEIGHTS, r)
    # the last three shifts, alpha - 2 e_d + e2, and the Dtheta column
    acc -= (0.5 * grad[..., 3:4]) * (a2 + 1.0) * r[..., 8:, :].sum(axis=-2)
    acc -= theta * grad[..., 5:]
    acc *= np.asarray(tau, dtype=float)[..., None]
    return acc
