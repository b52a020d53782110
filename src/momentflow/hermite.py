"""Probabilists' Hermite polynomials and weighted-basis evaluation.

All recursions are upward three-term recursions in double precision; the
degrees used anywhere in this package stay below ~15 where that is
well conditioned.
"""

import math
from functools import lru_cache

import numpy as np
from numpy.polynomial import hermite_e

SQRT_2PI = math.sqrt(2.0 * math.pi)


def he_eval(n, x):
    """Value of He_n at x (scalar or array); zero for n < 0.

    He_{n+1}(x) = x He_n(x) - n He_{n-1}(x), He_0 = 1, He_1 = x.
    """
    if n < 0:
        return np.zeros_like(np.asarray(x, dtype=float)) if np.ndim(x) else 0.0
    x = np.asarray(x, dtype=float)
    prev = np.zeros_like(x)
    cur = np.ones_like(x)
    for k in range(n):
        prev, cur = cur, x * cur - k * prev
    return cur if cur.ndim else float(cur)

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


def basis_eval(alpha, theta, v):
    """Weighted Hermite basis value at v (a 3-vector or (P,3) array).

    Product over axes of (2 pi)^{-1/2} theta^{-(a+1)/2} He_a(v_d) e^{-v_d^2/2};
    identically zero if any component of alpha is negative.
    """
    if not (theta > 0):
        raise ValueError("theta must be positive")
    v = np.asarray(v, dtype=float)
    single = v.ndim == 1
    pts = v[None, :] if single else v
    if min(alpha) < 0:
        out = np.zeros(len(pts))
        return float(out[0]) if single else out
    out = np.ones(len(pts))
    for d in range(3):
        a = alpha[d]
        out = out * (
            he_eval(a, pts[:, d])
            * np.exp(-pts[:, d] ** 2 / 2.0)
            / (SQRT_2PI * theta ** ((a + 1) / 2.0))
        )
    return float(out[0]) if single else out


def expansion_eval(coeffs, u, theta, xi):
    """Pointwise value of a Hermite-series distribution at xi.

    ``coeffs`` is a (K,K,K) coefficient cube about the frame (u, theta);
    ``xi`` is a 3-vector or (P,3) array of velocity points.
    """
    xi = np.asarray(xi, dtype=float)
    single = xi.ndim == 1
    pts = xi[None, :] if single else xi
    u = np.asarray(u, dtype=float)
    K = coeffs.shape[-1]
    v = (pts - u[None, :]) / math.sqrt(theta)
    # per-axis tables  B_d[n, p] = (2 pi)^{-1/2} theta^{-(n+1)/2} He_n(v_d) e^{-v_d^2/2}
    scale = np.array([theta ** (-(n + 1) / 2.0) / SQRT_2PI for n in range(K)])
    tables = []
    for d in range(3):
        he = he_sequence(K - 1, v[:, d])
        tables.append(he * np.exp(-v[:, d] ** 2 / 2.0)[None, :] * scale[:, None])
    vals = np.einsum("abc,ap,bp,cp->p", coeffs, tables[0], tables[1], tables[2])
    return float(vals[0]) if single else vals
