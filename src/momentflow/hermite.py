"""Probabilists' Hermite polynomials: the values He_n(0) and the largest root.

The three-term recursion He_{n+1} = x He_n - n He_{n-1} at x = 0 gives
the closed form He_{2k}(0) = (-1)^k (2k-1)!!, and odd degrees vanish.  The
table multiplies the factors -(2k-1) in the recursion's order, so its
even entries round as the recursion's do.
"""

from functools import lru_cache

import numpy as np
from numpy.polynomial import hermite_e


@lru_cache(maxsize=None)
def he_zeros(max_degree):
    """Cached table of He_n(0), n = 0..max_degree (odd entries vanish)."""
    vals = np.zeros(max_degree + 1)
    vals[::2] = np.cumprod(1.0 - 2.0 * np.arange(max_degree // 2 + 1))
    vals.setflags(write=False)
    return vals


@lru_cache(maxsize=None)
def largest_he_root(n):
    """Largest root of He_n; bounds the spectrum of the streaming operator."""
    if n < 1:
        raise ValueError("degree must be positive")
    nodes, _ = hermite_e.hermegauss(n)
    return float(nodes[-1])
