"""Accommodation wall boundary conditions in the moment picture.

The wall machinery is derived for a right-hand wall with inward normal -e2
(gas at y < wall).  It combines three ingredients:

  * half-range integrals of Hermite-basis pairs, S(m, n), filled by a
    four-case recursion seeded from He_n(0) (``_he_zeros``) -- nonzero
    only when m - n is zero or odd, with S(n, n) = 1/2;
  * the wall Maxwellian restricted to incoming velocities, whose Hermite
    coefficients factor into per-axis sequences J_s (full line, tangential
    axes) and J^_s (half line, normal axis) satisfying two-term recursions;
  * an exchange rule per odd normal-index moment mixing the diffuse part
    (accommodation chi) with the specularly reflected even moments.

The exchange reads only the even-a2 slots and rewrites only the odd ones,
so the map works on the odd-a2 slab alone: the reflected part is one
(odd a x even b) matrix, diag(theta^{a/2}) S diag(theta^{-b/2}), applied
to the even slab, and the wall density is a multiple of its (0, 1, 0)
entry.  A left wall is the right-wall map conjugated by the sign vector
s = (-1)^{a2} of the reflection v2 -> -v2, s * map(s * f); since the map
reads only slots where s = 1, that is the right-wall odd slab with its sign
flipped.  The caller names the end: ``sign`` is +1 at the right wall and -1
at the left one, so the wall's outward normal is sign * e2 (the
discrete-velocity solver's convention).  The map does not read the normal
frame velocity, and a wall never moves along its normal (``WallSpec``), so
the same frame and wall serve both ends.
"""

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .march import finite_vectors
from .moments import axis_steps, grade_mask

SQRT_2PI = math.sqrt(2.0 * math.pi)


@dataclass
class WallSpec:
    """A Maxwell accommodation wall: the diffusely re-emitted fraction
    ``chi`` in [0, 1] (the rest is reflected specularly), the wall velocity
    ``u_wall`` and temperature ``theta_wall``.  It does not name its end of
    the slab; the wall map takes that as its ``sign`` argument.

    The wall moves only in its own plane: a nonzero normal velocity
    ``u_wall[1]`` is a ValueError, as both solvers hold the slab's ends
    fixed.  ``u_wall`` is the spec's own read-only copy, so no caller can
    set it afterwards."""

    chi: float = 1.0
    u_wall: np.ndarray = field(default_factory=lambda: np.zeros(3))
    theta_wall: float = 1.0

    def __post_init__(self):
        if not (0.0 <= self.chi <= 1.0):
            raise ValueError("accommodation chi must lie in [0, 1]")
        if not (0.0 < self.theta_wall < math.inf):
            raise ValueError("wall temperature theta_wall must be positive "
                             "and finite")
        self.u_wall = finite_vectors("wall velocity u_wall", self.u_wall)
        self.u_wall.setflags(write=False)
        if self.u_wall[1] != 0.0:
            raise ValueError("wall velocity u_wall must be zero along the "
                             "normal e2, got %r" % float(self.u_wall[1]))


def _he_zeros(max_degree):
    """He_n(0) = 0 for odd n, (-1)^k (2k-1)!! for n = 2k <= max_degree: the
    factors -(2k-1) multiplied in the order of He_{n+1}(0) = -n He_{n-1}(0),
    so each entry rounds as that recursion's does."""
    vals = np.zeros(max_degree + 1)
    vals[::2] = np.cumprod(1.0 - 2.0 * np.arange(max_degree // 2 + 1))
    return vals


@lru_cache(maxsize=None)
def s_table(nmax):
    """Table of the half-range pair integrals S(m, n), 0 <= m, n <= nmax."""
    he0 = _he_zeros(nmax + 1)

    def kval(m, n):
        return he0[m - 1] * he0[n] / (SQRT_2PI * math.factorial(m))

    S = np.zeros((nmax + 1, nmax + 1))
    S[0, 0] = 0.5
    for n in range(1, nmax + 1):
        S[0, n] = kval(1, n - 1)
    for m in range(1, nmax + 1):
        S[m, 0] = kval(m, 0)
    for m in range(1, nmax + 1):
        for n in range(1, nmax + 1):
            S[m, n] = kval(m, n) + S[m - 1, n - 1] * n / m
    S.setflags(write=False)
    return S


@lru_cache(maxsize=None)
def _wall_tables(K):
    """K-only constants of the wall map: the half exponents n/2 (n < K), the
    constants c_s of H^_s and S[odd a, even b]."""
    c = np.zeros(K)
    c[1] = 1.0
    for s in range(3, K, 2):
        c[s] = -(s - 2) / (s * (s - 1)) * c[s - 2]
    tables = (np.arange(K) / 2.0, c, s_table(K - 1)[1::2, ::2])
    for t in tables:
        t.setflags(write=False)
    return tables


def _wall_factors(u, theta, wall, K):
    """theta^{n/2} for n < K, and the per-axis factors of the incoming-half
    wall Maxwellian about (u, theta): rows J_s(u1_w - u1), J^_s and
    J_s(u3_w - u3), s < K, stacked in a (3, K) array.

    One recursion s J_s = x J_{s-1} + (theta_w - theta) J_{s-2} - s H_s runs
    all three rows.  The full-line rows start from (1, x) with H = 0: this
    is the frame-change kernel ``projection.shift_kernel``.  The half-line
    row has x = 0, J^_0 = 1/2 and H^_s = c_s theta^{(s-1)/2}
    sqrt(theta_w / 2 pi) for odd s (0 for even s), with c_1 = 1 and
    c_s = -(s-2) c_{s-2} / (s (s-1)).
    """
    half, c, _ = _wall_tables(K)
    pw = theta ** half
    h = (c * pw * math.sqrt(wall.theta_wall / (2.0 * math.pi * theta))).tolist()
    dt = float(wall.theta_wall - theta)
    xs = (float(wall.u_wall[0] - u[0]), 0.0, float(wall.u_wall[2] - u[2]))
    rows = [[1.0, xs[0]], [0.5, -h[1]], [1.0, xs[2]]]
    for s in range(2, K):
        for row, x, hs in zip(rows, xs, (0.0, h[s], 0.0)):
            row.append((x * row[-1] + dt * row[-2]) / s - hs)
    return pw, np.array(rows)


def _odd_slab(u, theta, coeffs, wall, sign):
    """Odd-a2 slab of the wall state, sign * 2 chi / (2 - chi) (p + R) on
    the retained grades, with ``sign`` +1 at a right wall and -1 at a left
    one.

    R = diag(theta^{a/2}) S[odd a, even b] diag(theta^{-b/2}) f[:, even b, :]
    is the reflected part; p the incoming-half wall Maxwellian
    rho_wall J_{a1} J^_{a2} J_{a3}, with rho_wall = sqrt(2 pi / theta_w)
    R[0, 0, 0] balancing the mass flux.  ``coeffs`` is one cube in any
    layout of ``moments``; along an even-only a1 or a3 axis the J row keeps
    its even entries, the odd ones being zero when the wall and the frame
    do not move along that axis.
    """
    K = coeffs.shape[1]
    S = _wall_tables(K)[2]
    s1, _, s3 = axis_steps(coeffs.shape)
    pw, J = _wall_factors(u, theta, wall, K)
    R = (pw[1::2, None] * S / pw[::2]) @ coeffs[:, ::2, :]
    rho_wall = math.sqrt(2.0 * math.pi / wall.theta_wall) * R[0, 0, 0]
    R += ((rho_wall * J[0, ::s1])[:, None, None]
          * (J[1, 1::2, None] * J[2, ::s3]))
    R *= grade_mask(coeffs.shape, K - 1)[:, 1::2, :]
    R *= sign * (2.0 * wall.chi / (2.0 - wall.chi))
    return R


def ghost_state(u, theta, coeffs, wall, sign):
    """Reflected extrapolation encoding the wall: coefficients 2 f^b - f about
    the center 2 u^b - u at the gas temperature; returns ``(u, theta, f)``.
    The wall state u^b is the frame u with u2 = 0, as the wall does not move
    along its normal, so the ghost's frame is u with u2 mirrored.  ``sign``
    is +1 at the right wall (outward normal +e2) and -1 at the left one.
    Its even-a2 slots are those of ``coeffs``."""
    g = np.array(coeffs, dtype=float)
    odd = g[:, 1::2, :]
    np.subtract(2.0 * _odd_slab(u, theta, coeffs, wall, sign), odd, out=odd)
    return np.multiply(u, (1.0, -1.0, 1.0)), theta, g
