"""Probabilists' Hermite polynomials: value sequences, He_n(0), largest root.

All recursions are upward three-term recursions in double precision; the
degrees used anywhere in this package stay below ~15 where that is
well conditioned.
"""

from functools import lru_cache

import numpy as np
from numpy.polynomial import hermite_e


def he_sequence(nmax, x):
    """All of He_0..He_nmax at x; shape (nmax+1,) + shape(x)."""
    x = np.asarray(x, dtype=float)
    out = np.zeros((nmax + 1,) + x.shape)
    out[0] = 1.0
    if nmax >= 1:
        out[1] = x
    for k in range(1, nmax):
        out[k + 1] = x * out[k] - k * out[k - 1]
    return out


@lru_cache(maxsize=None)
def he_zeros(max_degree):
    """Cached table of He_n(0), n = 0..max_degree (odd entries vanish)."""
    vals = np.ascontiguousarray(he_sequence(max_degree, np.array(0.0)))
    vals.setflags(write=False)
    return vals


@lru_cache(maxsize=None)
def largest_he_root(n):
    """Largest root of He_n; bounds the spectrum of the streaming operator."""
    if n < 1:
        raise ValueError("degree must be positive")
    nodes, _ = hermite_e.hermegauss(n)
    return float(nodes[-1])
