"""Accommodation wall boundary conditions in the moment picture.

The wall machinery is derived for a right-hand wall with inward normal -e2
(gas at y < wall).  It combines three ingredients:

  * half-range integrals of Hermite-basis pairs, S(m, n), filled by a
    four-case recursion seeded from He_n(0) -- nonzero only when m - n is
    zero or odd, with S(n, n) = 1/2;
  * the wall Maxwellian restricted to incoming velocities, whose Hermite
    coefficients factor into per-axis sequences J_s (full line, tangential
    axes) and J^_s (half line, normal axis) satisfying two-term recursions;
  * an exchange rule per odd normal-index moment mixing the diffuse part
    (accommodation chi) with the specularly reflected even moments.

A left wall is the right-wall map conjugated by the sign vector
s = (-1)^{a2} of the reflection v2 -> -v2: s * map(s * f).  The map reads
neither the normal frame velocity nor the wall's normal velocity, so the
same frame and wall serve both sides.
"""

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .hermite import he_zeros
from .moments import grade_mask

SQRT_2PI = math.sqrt(2.0 * math.pi)


@dataclass
class WallSpec:
    chi: float = 1.0
    u_wall: np.ndarray = field(default_factory=lambda: np.zeros(3))
    theta_wall: float = 1.0
    side: str = "right"

    def __post_init__(self):
        if not (0.0 <= self.chi <= 1.0):
            raise ValueError("accommodation chi must lie in [0, 1]")
        if not (self.theta_wall > 0):
            raise ValueError("wall temperature must be positive")
        if self.side not in ("left", "right"):
            raise ValueError("side must be 'left' or 'right'")
        self.u_wall = np.asarray(self.u_wall, dtype=float)
        if self.u_wall.shape != (3,) or not np.all(np.isfinite(self.u_wall)):
            raise ValueError("wall velocity u_wall must be a finite 3-vector")


@lru_cache(maxsize=None)
def s_table(nmax):
    """Table of the half-range pair integrals S(m, n), 0 <= m, n <= nmax."""
    he0 = he_zeros(nmax + 1)

    def kval(m, n):
        if m - 1 < 0 or n < 0:
            return 0.0
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


def _cutoff_matrix(theta, K):
    """B[a, b] = S(a, b) theta^{(a-b)/2} for even b, 0 for odd b: the axis-2
    action of the v2 >= 0 cut-off on the even-a2 part of a state."""
    S = s_table(K - 1)
    a = np.arange(K)
    power = np.asarray(theta, dtype=float)[..., None, None] ** (
        (a[:, None] - a[None, :]) / 2.0
    )
    mat = S * power
    return mat * (np.arange(K)[None, :] % 2 == 0)


def wall_density(coeffs, theta, theta_wall):
    """Density of the diffusely re-emitted Maxwellian balancing the mass flux.

    sqrt(2 pi / theta_wall) * sum_k S(1, 2k) theta^{1/2 - k} f_{2k e2};
    assumes the frame already rides at the wall's normal velocity.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    K = coeffs.shape[-1]
    S = s_table(K - 1)
    b = np.arange(0, K, 2)
    terms = S[1, b] * np.asarray(theta, dtype=float)[..., None] ** ((1 - b) / 2.0)
    return math.sqrt(2.0 * math.pi / theta_wall) * np.sum(
        terms * coeffs[..., 0, b, 0], axis=-1
    )


def j_full(nmax, theta, theta_wall, x):
    """Full-line moment sequence J_0..J_nmax of the shifted wall Gaussian.

    J_s = [(theta_wall - theta) J_{s-2} + x J_{s-1}] / s,  J_0 = 1.
    """
    dt = np.asarray(theta_wall, dtype=float) - np.asarray(theta, dtype=float)
    x = np.asarray(x, dtype=float)
    batch = np.broadcast(dt, x).shape
    J = np.zeros(batch + (nmax + 1,))
    J[..., 0] = 1.0
    if nmax >= 1:
        J[..., 1] = x
    for s in range(2, nmax + 1):
        J[..., s] = (dt * J[..., s - 2] + x * J[..., s - 1]) / s
    return J


def j_hat(nmax, theta, theta_wall):
    """Half-line (incoming side) moment sequence at zero relative velocity.

    J^_s = (theta_wall - theta) J^_{s-2} / s - H^_s  with  J^_0 = 1/2,
    H^_1 = sqrt(theta_wall / 2 pi),
    H^_s = -(s-2) / (s (s-1)) * theta * H^_{s-2}.
    """
    theta = np.asarray(theta, dtype=float)
    dt = np.asarray(theta_wall, dtype=float) - theta
    batch = np.broadcast(dt, theta).shape
    J = np.zeros(batch + (nmax + 1,))
    H = np.zeros(batch + (nmax + 1,))
    J[..., 0] = 0.5
    if nmax >= 1:
        H[..., 1] = np.sqrt(np.asarray(theta_wall, dtype=float) / (2.0 * math.pi))
        J[..., 1] = -H[..., 1]
    for s in range(2, nmax + 1):
        H[..., s] = -(s - 2) / (s * (s - 1)) * theta * H[..., s - 2]
        J[..., s] = dt * J[..., s - 2] / s - H[..., s]
    return J


def half_maxwellian_coeffs(u, theta, wall, rho_wall, K):
    """Coefficient cube of the incoming-half wall Maxwellian about (u, theta).

    Separable: p[a1, a2, a3] = rho_wall * J_{a1}(u1_w - u1) * J^_{a2}
    * J_{a3}(u3_w - u3), truncated to the retained orders.
    """
    j1 = j_full(K - 1, theta, wall.theta_wall, wall.u_wall[0] - u[0])
    j3 = j_full(K - 1, theta, wall.theta_wall, wall.u_wall[2] - u[2])
    jh = j_hat(K - 1, theta, wall.theta_wall)
    cube = rho_wall * np.einsum("i,j,k->ijk", j1, jh, j3)
    cube *= grade_mask(K, K - 1)
    return cube


def _bc_cube(u, theta, coeffs, wall):
    """Right-wall exchange map in coefficient space.

    Even-a2 coefficients pass through; each odd-a2 coefficient becomes
    2 chi / (2 - chi) * [p_alpha + sum over even b2 of
    S(a2, b2) theta^{(a2-b2)/2} f_{(a1, b2, a3)}].
    """
    K = coeffs.shape[-1]
    rho_wall = wall_density(coeffs, theta, wall.theta_wall)
    p = half_maxwellian_coeffs(u, theta, wall, rho_wall, K)
    B = _cutoff_matrix(theta, K)
    reflected = np.einsum("...ab,...ibk->...iak", B, coeffs)
    pref = 2.0 * wall.chi / (2.0 - wall.chi)
    odd = (np.arange(K) % 2 == 1)[None, :, None]
    fb = np.where(odd, pref * (p + reflected), coeffs)
    fb *= grade_mask(K, K - 1)
    return fb


def apply_wall_bc(u, theta, coeffs, wall):
    """Map a boundary-adjacent state onto one satisfying the wall condition.

    Returns ``(u_b, theta, f_b)``.  The exchange acts directly on the stored
    coefficients: even-a2 slots are kept verbatim, odd-a2 slots are rebuilt
    from them, and the result is declared about the center
    u_b = (u1, u2_wall, u3) at the gas temperature.  Keeping the even slots
    untouched is what preserves the zero first-moment and zero-trace
    constraints for any admissible input.
    """
    u_b = np.array([u[0], wall.u_wall[1], u[2]])
    if wall.side == "right":
        return u_b, theta, _bc_cube(u_b, theta, coeffs, wall)
    K = coeffs.shape[-1]
    s = np.where(np.arange(K) % 2 == 1, -1.0, 1.0)[:, None]
    return u_b, theta, s * _bc_cube(u_b, theta, s * coeffs, wall)


def ghost_state(u, theta, coeffs, wall):
    """Reflected extrapolation encoding the wall: coefficients 2 f^b - f about
    the center 2 u^b - u at the gas temperature; returns ``(u, theta, f)``."""
    u_b, _, fb = apply_wall_bc(u, theta, coeffs, wall)
    return 2.0 * u_b - u, theta, 2.0 * fb - coeffs
