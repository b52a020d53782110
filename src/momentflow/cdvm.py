"""Conservative discrete-velocity reference solver for the Shakhov model.

Independent of the moment machinery: the distribution is carried on a fixed
Cartesian velocity grid with trapezoidal weights and advanced by first-order
splitting of upwind transport (optional minmod-limited second order, at
CFL 0.5 at most) and an exact relaxation step

    f(t+dt) = G + B exp(-Pr dt/tau) + (f - G - B) exp(-dt/tau),

where G is a discrete Gaussian whose parameters are Newton-corrected so its
*quadrature* mass, momentum and energy are the cell's
(``conservative_gaussian``), and B is the heat-flux (Shakhov) correction
projected so its quadrature collision invariants vanish.  Collision
therefore conserves the discrete invariants to solver tolerance, and the
accommodation-wall fluxes balance mass exactly by construction of the
re-emitted density.  The Newton starts from the correction the cell needed
at its previous collision (``DvField.correction``, zeros on a new field);
on axes that resolve the Gaussian (24 nodes on [-8, 8]) that drifts less
than the Newton tolerance, so most collisions take one evaluation.

The quadrature weights, the Gaussian and the Shakhov polynomial all factor
per axis.  One kernel, ``_axis_gaussians``, evaluates the per-axis
Gaussians: the Newton's tables and sums, and the factors of every nodal
Maxwellian (``DvGrid.maxwellian``: initial fields, wall emission).  A
step passes over the velocity cube three times, in place, and keeps no
temporary the size of the state.  Per cell, the Newton and the
conservative projection touch only tables of the axes: the Gram matrix and
right-hand side are one GEMM of the products S1[a] S2[b] S3[c] of per-axis
sums.  Per block of whole cells of about ``BLOCK`` entries, while the
block is in cache: transport (one pass, from the top down) forms the face
differences, scales them by dt xi_2 / dx and updates; the collision (two
passes) takes the moment GEMM of ``dv_moments``, then the xi_2
contraction, the GEMM, the update f <- f e_full + G P and the block's
minimum, which feeds the negativity warning (``collide_field``).  Once
per grid, wall and side, a wall's unit Maxwellian and inflow flux are
built; a step reads the end cell's outgoing half-flux and writes the
inflow in one pass, plus the end cell's mirror if chi < 1.

Where a slab run keeps xi_d -> -xi_d symmetric (d = 1 or 3: no wall
velocity along d and u_d = 0 initially), the distribution stays even in
xi_d and the grid stores only the xi_d >= 0 half of that axis with doubled
weights (``DvGrid.mirrored``).  The odd per-axis sums are zero, so u_d, q_d
and the shear stresses sigma_dj stay exactly 0.0, and every kernel runs
unchanged on a cube half the size per mirrored axis: the Couette and
Poiseuille presets mirror xi_3, the shock xi_1 and xi_3.

``dv_run`` marches through ``march.march``, the loop shared with the moment
solver, so ``steady_tol`` and ``converged`` mean the same for both.
"""

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .collision import relaxation_time
from .march import (RunOptions, Slab, check_choice, check_collision,
                    check_slab, initial_fields, march, minmod, require_mirror,
                    require_positive)
from .moments import fields_table, work_array

NEWTON_TOL = 1e-13
NEWTON_MAX_ITER = 40
NEGATIVITY_WARN = 1e-12
# entries per block of the two sub-steps of a step, which work on one block
# while it is in cache and keep no state-sized temporary (2^15 and 2^16 took
# the same time, and the smaller block the smaller peak)
BLOCK = 1 << 15

# the solver has no body force term
_NO_FORCE = (0.0, 0.0, 0.0)


def check_grid(half_width, counts, mirrored=()):
    """ValueError unless ``DvGrid(half_width, counts, mirrored)`` is valid."""
    if not (0.0 < half_width < math.inf):
        raise ValueError("half_width must be positive and finite")
    if len(counts) != 3 or min(counts) < 8:
        raise ValueError("need three axes of at least 8 nodes, got %r"
                         % (counts,))
    if not set(mirrored) <= {0, 2}:
        raise ValueError("only velocity axes 0 and 2 can be mirrored, "
                         "got %r" % (mirrored,))


@dataclass(unsafe_hash=True)
class DvGrid:
    """Cartesian velocity grid with trapezoidal weights: axis d has
    ``counts[d]`` >= 8 equally spaced nodes on [-half_width, half_width],
    built so that x[i] == -x[n-1-i] exactly (the middle node of an odd axis
    is 0.0), as the specular wall mirror and a mirrored axis need.

    Along each axis d in ``mirrored`` (0 and/or 2; the normal xi_2 carries
    the transport and is never mirrored) a state even in xi_d is stored on
    the upper half alone: nodes n//2 .. n-1, with the weights of the other
    half added to their mirrors, so doubled except on the middle node of an
    odd axis.  A sum over the full axis of an even function is then the sum
    over the stored nodes, and of an odd one it is zero: the odd columns
    k = 1, 3 of the moment tables and the odd sums S_d[k] of
    ``_axis_gaussians`` are zero there (``parity``).  ``axes``,
    ``weights`` and ``shape`` are the stored nodes, weights and edge
    lengths, which every kernel reads, so a full and a mirrored axis run
    the same code.  Grids of equal fields compare and hash equal."""

    half_width: float
    counts: tuple          # (n1, n2, n3)
    mirrored: tuple = ()   # velocity axes stored as their xi_d >= 0 half

    def __post_init__(self):
        check_grid(self.half_width, self.counts, self.mirrored)
        self.counts, self.mirrored = tuple(self.counts), tuple(self.mirrored)
        axes, weights, parity = [], [], []
        for d, n in enumerate(self.counts):
            # an odd integer grid 2i - (n - 1) is exactly antisymmetric,
            # and so is every rounding of it scaled
            x = self.half_width * (2.0 * np.arange(n) - (n - 1)) / (n - 1)
            h = 2.0 * self.half_width / (n - 1)
            w = h * np.r_[0.5, np.ones(n - 2), 0.5]
            p = np.ones(7)
            if d in self.mirrored:
                x, w = x[n // 2:], 2.0 * w[n // 2:]
                if n % 2:
                    w[0] *= 0.5
                p[1::2] = 0.0
            axes.append(x)
            weights.append(w)
            parity.append(p)
        self.axes, self.weights = tuple(axes), tuple(weights)
        self.shape = tuple(map(len, axes))
        # row d: 1 for the sums S_d[k], k <= 6, that the stored nodes give,
        # 0 for the odd ones of a mirrored axis
        self.parity = np.stack(parity)
        # the moment tables V_d[n, k] = w_d x_d^k, k <= 3, of ``dv_moments``
        self.moment_tables = tuple(
            w[:, None] * x[:, None] ** np.arange(4) * p[:4]
            for x, w, p in zip(axes, weights, parity))
        # the three axes end to end, as ``_axis_gaussians`` reads them: the
        # nodes, the axis of each, the slice of each axis and the (3, n1 +
        # n2 + n3) weights, w_d on the nodes of axis d and 0 elsewhere
        self.nodes = np.concatenate(axes)
        self.node_axis = np.repeat(np.arange(3), self.shape)
        ends = np.cumsum((0,) + self.shape)
        self.axis_slices = tuple(map(slice, ends[:-1], ends[1:]))
        self.node_weights = np.where(self.node_axis == np.arange(3)[:, None],
                                     np.concatenate(weights), 0.0)

    def maxwellian(self, rho, u, theta):
        """Nodal Maxwellian values rho (2 pi theta)^-3/2 g1 g2 g3, batched
        over the leading dims that u (..., 3) and theta (...) share; g_d are
        the k = 0 columns of ``_axis_gaussians``."""
        u, theta = np.asarray(u, dtype=float), np.asarray(theta, dtype=float)
        g = [t[..., 0] for t in _axis_gaussians(self, u, theta)[0]]
        norm = np.multiply(rho, (2.0 * math.pi * theta) ** -1.5)
        return ((norm[..., None] * g[0])[..., :, None, None]
                * g[1][..., None, :, None] * g[2][..., None, None, :])


# unit multi-indices, and the raw-moment indices e_a + e_b of the momentum
# flux P_ab and e_a + 2 e_b of the heat-flux sums (and of the Shakhov
# polynomial's terms c_a c_b^2), as index-array tuples
_E = np.eye(3, dtype=int)
_PAIR = tuple(np.moveaxis(_E[:, None] + _E[None, :], -1, 0))
_TRIPLE = tuple(np.moveaxis(_E[:, None] + 2 * _E[None, :], -1, 0))


def dv_moments(values, grid):
    """Macroscopic fields of nodal data: dict with rho, u, theta, sigma, q.

    The weights and monomials factor per axis, so the raw moments
    M[i, j, k] = sum w1 w2 w3 x1^i x2^j x3^k f, i + j + k <= 3, are a GEMM
    of the cube against the tables V_d[n, k] = w_d x_d^k (z first), then two
    small matmuls over x and y, per block of cells of about ``BLOCK``
    entries (the sums over z fill a work array of one block), converted to
    the central quantities; works on any batch shape (..., n1, n2, n3).
    """
    V1, V2, V3 = grid.moment_tables
    cells = values.reshape((-1,) + values.shape[-3:])
    n1, n2 = cells.shape[1:3]
    M = np.empty((len(cells), 4, 4, 4))
    rows = max(1, BLOCK // cells[0].size)
    mz = work_array("moment sums over z", (rows * n1 * n2, 4))
    for a in range(0, len(cells), rows):
        f = cells[a:a + rows]
        z = np.matmul(f.reshape(-1, f.shape[-1]), V3, out=mz[:len(f) * n1 * n2])
        x = V1.T @ z.reshape(len(f), n1, n2 * 4)            # (cells, i, y k)
        np.matmul(V2.T, x.reshape(len(f), 4, n2, 4), out=M[a:a + rows])
    M = M.reshape(values.shape[:-3] + (4, 4, 4))
    rho = M[..., 0, 0, 0]
    m = M[(Ellipsis,) + tuple(_E)]
    P = M[(Ellipsis,) + _PAIR]
    Q = M[(Ellipsis,) + _TRIPLE].sum(axis=-1)
    u = m / rho[..., None]
    T0 = P[..., 0, 0] + P[..., 1, 1] + P[..., 2, 2]
    usq = np.sum(u**2, axis=-1)
    theta = (T0 - rho * usq) / (3.0 * rho)
    Theta = P - rho[..., None, None] * u[..., :, None] * u[..., None, :]
    sigma = Theta - (rho * theta)[..., None, None] * np.eye(3)
    q = 0.5 * (
        Q
        - 2.0 * np.einsum("...j,...ij->...i", u, P)
        + usq[..., None] * m
        - u * (T0 - rho * usq)[..., None]
    )
    return {"rho": rho, "u": u, "theta": theta, "sigma": sigma, "q": q}


def _axis_gaussians(grid, u, theta):
    """Per axis d, the nodal table g c^k, k = 0..6, of g = exp(-c^2 / 2 theta)
    at c = xi_d - u_d, shape (..., n_d, 7), and the weighted sums S[..., d,
    k] = sum w_d g c^k, shape (..., 3, 7), the odd ones zero on a mirrored
    axis (where u_d is zero).

    One pass over the nodes of the three axes end to end (``DvGrid.nodes``):
    one exp, six running products, one weight matmul and one parity
    multiply; the per-axis tables are views of the (..., n1 + n2 + n3, 7)
    table.
    """
    c = grid.nodes - u[..., grid.node_axis]
    gc = np.empty(c.shape + (7,))
    np.exp(-c**2 / (2.0 * theta[..., None]), out=gc[..., 0])
    for k in range(1, 7):
        np.multiply(gc[..., k - 1], c, out=gc[..., k])
    sums = grid.node_weights @ gc
    sums *= grid.parity
    return [gc[..., s, :] for s in grid.axis_slices], sums


@np.errstate(divide="ignore", invalid="ignore")
def conservative_gaussian(grid, rho, u, theta, start):
    """Gaussian parameters whose quadrature mass, momentum and T0 = <|xi|^2
    f> are those of a cell of density ``rho``, velocity ``u`` and
    temperature ``theta``: rho, rho u and rho (3 theta + |u|^2).  This is
    the conservative discrete equilibrium of Mieussens, JCP 162 (2000).

    Under quadrature the Gaussian rho_G (2 pi theta_G)^-3/2 g_1 g_2 g_3 is
    a product of 1-D distributions; along axis d the normalized moments of
    c = xi_d - u_G,d are m_k = S_d[k] / S_d[0] (``_axis_gaussians``), the
    mean is u_G,d + m_1 and the variance v_d = m_2 - m_1^2.  The density is
    eliminated (rho_G = rho (2 pi theta_G)^3/2 / prod_d S_d[0] makes the
    mass exact), so Newton runs in (u_G, theta_G) on the residuals

        r_d = u_G,d + m_1 - u_d,
        r_theta = sum_d v_d - 3 theta.

    It starts from (u, theta) + ``start``, shape (..., 4): the correction
    (u_G - u, theta_G - theta) the cell needed at its previous collision,
    which moves little from one step to the next, or zeros for (u, theta)
    itself.  Where a cell's u_d is zero on a mirrored axis, its start there
    must be zero too, so that u_G,d stays exactly 0.0.

    Axis d depends on u_G,d and theta_G alone, so the Jacobian, from
    dE[phi]/du_d = Cov(phi, xi_d) / theta and dE[phi]/dtheta = Cov(phi,
    c^2) / (2 theta^2), is an arrow, solved by its Schur complement.  It
    stops once momentum over rho sqrt(theta) and T0 over rho (3 theta +
    |u|^2) are within ``NEWTON_TOL``; a step moves u_G by at most
    sqrt(theta_G), theta_G by at most theta_G / 2.  An unreachable cell may
    run to a zero variance on the way: it fails that test like any other.

    Returns (rho_G, u_G, theta_G, tables, sums), the tables and sums of
    ``_axis_gaussians`` at the returned parameters; raises RuntimeError
    naming the first cell still off after ``NEWTON_MAX_ITER`` evaluations.
    """
    u_g, th_g = u + start[..., :3], theta + start[..., 3]
    var_t = 3.0 * theta
    scale_u = np.sqrt(theta)[..., None]
    scale_th = var_t + np.sum(u**2, axis=-1)
    for _ in range(NEWTON_MAX_ITER):
        tables, S = _axis_gaussians(grid, u_g, th_g)
        m1, m2, m3, m4 = (S[..., k] / S[..., 0] for k in range(1, 5))
        var = m2 - m1**2
        r_u = u_g + m1 - u
        r_th = np.sum(var, axis=-1) - var_t
        err = np.maximum(np.max(np.abs(r_u) / scale_u, axis=-1),
                         np.abs(r_th) / scale_th)
        if np.all(err < NEWTON_TOL):
            rho_g = rho * (2.0 * math.pi * th_g) ** 1.5 / np.prod(S[..., 0], axis=-1)
            return rho_g, u_g, th_g, tables, S

        # arrow: d mean_d / d u_d = a_d, d mean_d / d theta = b_d,
        # d v_d / d u_d = c_d (c_a = c_d / a_d), d sum_d v_d / d theta = e
        th = th_g[..., None]
        a = var / th
        b = (m3 - m1 * m2) / (2.0 * th**2)
        c_a = (m3 - 3.0 * m1 * m2 + 2.0 * m1**3) / th / a
        e = np.sum(m4 - 2.0 * m1 * m3 + 2.0 * m1**2 * m2 - m2**2, axis=-1) / (
            2.0 * th_g**2)
        d_th = (np.sum(c_a * r_u, axis=-1) - r_th) / (e - np.sum(c_a * b, axis=-1))
        d_u = -(r_u + b * d_th[..., None]) / a
        u_g = u_g + np.clip(d_u, -np.sqrt(th), np.sqrt(th))
        th_g = th_g + np.clip(d_th, -0.5 * th_g, 0.5 * th_g)
    j = int(np.flatnonzero(~(err < NEWTON_TOL))[0])
    raise RuntimeError(
        "conservative Gaussian correction did not converge in cell %d in "
        "collision (scaled residual %.3g after %d iterations)"
        % (j, float(np.ravel(err)[j]), NEWTON_MAX_ITER)
    )


# cubic polynomials in c = xi - u are tensors p[..., i, j, k] of the
# coefficients of c1^i c2^j c3^k: _BASIS holds c_a |c|^2, c_a (a = 1..3) and
# psi = 1, c1, c2, c3, |c|^2, coefficients 1; _GRAM_MAP[m, (i, t)] is that of
# psi_i _BASIS[t] at monomial m, of quadrature prod sums.flat[_ABC[:, m]]
_BASIS = np.zeros((11, 4, 4, 4))
_BASIS[(np.arange(3)[:, None],) + _TRIPLE] = 1.0
_BASIS[(np.r_[3:6, 7:10],) + tuple(np.tile(_E, 2))] = 1.0
_BASIS[6, 0, 0, 0] = 1.0
_BASIS[(10,) + tuple(2 * _E)] = 1.0
_T, _I = np.argwhere(_BASIS), np.argwhere(_BASIS[6:])   # (term, exponents)
_GRAM_MAP = np.zeros((6, 6, 6, 5, 11))
np.add.at(_GRAM_MAP, tuple(np.moveaxis(_T[:, None, 1:] + _I[:, 1:], -1, 0))
          + (_I[:, 0], _T[:, None, 0]), 1.0)
_ABC = np.add(np.nonzero(_GRAM_MAP.any(axis=(3, 4))), [[0], [7], [14]])
_GRAM_MAP = _GRAM_MAP[_GRAM_MAP.any(axis=(3, 4))].reshape(-1, 55)


def collide_field(values, grid, kn, pr, dt, correction):
    """Exact Shakhov relaxation with discrete conservation (batched cells),
    written into ``values`` in place; returns ``values``.  ``correction``
    (cells, 4) is where the Newton of ``conservative_gaussian`` starts,
    (u_G - u, theta_G - theta) of the previous collision (zeros start it at
    the cell's own u and theta), and is overwritten with this collision's.

    The relaxed state G + B e_pr + (f - G - B) e_full is written in
    separable form as f e_full + G P(c), with G = norm g1 g2 g3 the
    conservative Gaussian, c = xi - u_G and the cubic

        P = (1 - e_full) + (e_pr - e_full) (b - lam . psi),

    where b = (c . q) (|c|^2 / theta_G - 5) / (5 rho theta^2) is the Shakhov
    polynomial and lam projects out the invariants psi = (1, c, |c|^2), so
    the quadrature mass, momentum and energy of B = G (b - lam . psi)
    vanish.  The quadrature of G c1^a c2^b c3^c is norm S1[a] S2[b] S3[c]
    (the Newton's last per-axis sums), so per cell one GEMM of these
    products against ``_GRAM_MAP`` gives the Gram matrix and right-hand
    side, a 5 x 5 solve lam, and two GEMMs P and sum_k P_ijk g3 c3^k.  Per
    block of about ``BLOCK`` entries, in work arrays kept across calls, the
    g2 c2^j contraction, the GEMM with g1 c1^i, the update f <- f e_full
    + G P and the block's minimum run in cache; a value below
    -``NEGATIVITY_WARN`` is a RuntimeWarning naming the cell of the
    smallest.  ``values`` is (cells, n1, n2, n3).
    """
    mom = dv_moments(values, grid)
    rho, u, theta, q = mom["rho"], mom["u"], mom["theta"], mom["q"]
    require_positive(rho, "density", "in cell %d in collision")
    require_positive(theta, "temperature", "in cell %d in collision")
    rho_g, u_g, th_g, tables, sums = conservative_gaussian(grid, rho, u, theta,
                                                           correction)
    correction[:, :3] = u_g - u
    correction[:, 3] = th_g - theta
    norm = rho_g * (2.0 * math.pi * th_g) ** -1.5
    tau = relaxation_time(rho, theta, kn)
    e_full = np.exp(-dt / tau)
    e_pr = np.exp(-pr * dt / tau)

    # over norm: Gram <G psi_i psi_j>, rhs <G b psi_i>, b = b . _BASIS[:6]
    T = (sums.reshape(-1, 21)[:, _ABC].prod(1) @ _GRAM_MAP).reshape(-1, 5, 11)
    sq = q / (5.0 * rho * theta**2)[..., None]
    b = np.hstack([sq / th_g[:, None], -5.0 * sq])
    lam = np.linalg.solve(T[..., 6:], T[..., :6] @ b[..., None])
    z = np.hstack([b, -lam[..., 0]]) * (e_pr - e_full)[:, None]
    z[:, 6] += 1.0 - e_full
    P = (z @ _BASIS.reshape(11, 64)).reshape(-1, 16, 4)

    # with H_d[..., n, i] = g_d c_d^i, Z = sum_k P_ijk H3[z, k] for all
    # cells, then per block Y = sum_j H2[y, j] Z_ijz and G P = X Y
    H = [t[..., :4] for t in tables]
    X = norm[:, None, None] * H[0]
    Z = (P @ np.swapaxes(H[2], 1, 2)).reshape(len(P), 4, 4, -1)
    rows = max(1, BLOCK // values[0].size)
    y = work_array("collision factor", (rows, 4) + values.shape[2:])
    gp = work_array("collision", (rows, values.shape[1], y[0, 0].size))
    worst = np.inf
    for a in range(0, len(values), rows):
        s = slice(a, a + rows)
        f = values[s]
        yb = np.matmul(H[1][s, None], Z[s], out=y[:len(f)])
        g = np.matmul(X[s], yb.reshape(len(f), 4, -1), out=gp[:len(f)])
        f *= e_full[s, None, None, None]
        f += g.reshape(f.shape)
        worst = np.minimum(worst, f.min())
    if worst < -NEGATIVITY_WARN:
        cell = int(np.argmin(values.reshape(len(values), -1).min(axis=1)))
        warnings.warn("distribution went negative (min %.3e in cell %d) after "
                      "collision" % (worst, cell), RuntimeWarning)
    return values


@dataclass
class DvField(Slab):
    """Distribution values on a slab of spatial cells (``march.Slab``), one
    ``grid.shape`` cube per cell: on a mirrored velocity axis the xi_d >= 0
    half of a distribution even in xi_d, whose mean velocity u_d is then
    zero.

    ``correction`` (N, 4) holds each cell's (u_G - u, theta_G - theta) of
    the conservative Gaussian at its last collision, where the next one's
    Newton starts (``collide_field``).  A new field holds zeros, so its
    first step starts from the cell's own (u, theta); along a mirrored axis
    the correction stays exactly 0.0."""

    grid: DvGrid
    y_lo: float
    y_hi: float
    values: np.ndarray      # (N,) + grid.shape

    def __post_init__(self):
        if self.values.shape[1:] != self.grid.shape:
            raise ValueError("values do not match the velocity grid")
        # a cell of zero density has u and theta NaN; its density fails
        with np.errstate(divide="ignore", invalid="ignore"):
            m = self.moments()
        check_slab(self.y_lo, self.y_hi, m["rho"], m["u"], m["theta"],
                   self.grid.mirrored)
        self.correction = np.zeros((self.n, 4))

    @property
    def n(self):
        return self.values.shape[0]

    @classmethod
    def from_fields(cls, grid, y_lo, y_hi, rho, u, theta):
        """Cells of local Maxwellians of the fields
        (``march.initial_fields``)."""
        rho, u, theta = initial_fields(y_lo, y_hi, rho, u, theta,
                                       grid.mirrored)
        return cls(grid, y_lo, y_hi, grid.maxwellian(rho, u, theta))

    def moments(self):
        return dv_moments(self.values, self.grid)


@lru_cache(maxsize=8)
def _wall_emission(grid, u_wall, theta_wall, sgn):
    """The wall's unit Maxwellian, its inflow flux and the outgoing weights
    w2 max(sgn xi_2, 0), read only and kept by value, not identity."""
    w1, w2, w3 = grid.weights
    speed = sgn * grid.axes[1]                # outward-normal speed
    phi = grid.maxwellian(1.0, u_wall, theta_wall)
    out_weights = w2 * np.maximum(speed, 0.0)
    phi.setflags(write=False)
    out_weights.setflags(write=False)
    return phi, w1 @ (phi @ w3) @ (w2 * np.minimum(speed, 0.0)), out_weights


def _wall_incoming(grid, wall, f_out, sgn):
    """Re-emitted nodal distribution at a wall with outward normal sgn*e2.

    chi rho_w phi_w + (1 - chi) specular mirror, with phi_w the wall's unit
    Maxwellian (``_wall_emission``) and rho_w balancing the discrete mass
    flux exactly; chi rho_w phi_w is written in one pass.
    """
    phi, flux_in, out_weights = _wall_emission(
        grid, tuple(wall.u_wall.tolist()), float(wall.theta_wall), sgn)
    flux_out = grid.weights[0] @ (f_out @ grid.weights[2]) @ out_weights
    rho_w = -flux_out / flux_in if wall.chi > 0.0 else 0.0
    phi = np.multiply(phi, wall.chi * rho_w)
    if wall.chi < 1.0:
        phi += (1.0 - wall.chi) * f_out[:, ::-1, :]
    return phi


def _faces(v, i, j, sign, out, scratch):
    """The minmod faces t[k] = v[k] + sign minmod(v[k] - v[k-1], v[k+1] -
    v[k]), sign +/-1/2 by xi_2, of cells i <= k < j along axis 0, into
    ``out[:j - i]``; an end cell keeps t = v; ``scratch`` takes d."""
    n = len(v)
    t = out[:j - i]
    s0, s1 = max(i, 1), min(j, n - 1)       # the cells with a slope
    if s1 > s0:
        e = np.subtract(v[s0:s1 + 1], v[s0 - 1:s1], out=scratch[:s1 - s0 + 1])
        slope = minmod(e[:-1], e[1:], t[s0 - i:s1 - i])
        slope *= sign
        slope += v[s0:s1]
    if i == 0 < j:
        t[0] = v[0]
    if j == n:
        t[-1] = v[-1]
    return t


def transport_field(field, dt, left, right, limiter):
    """One upwind (``limiter`` "none") or minmod-limited transport sweep,
    in place.

    Node xi_2 of cell i takes v[i] -= dt xi_2 / dx (F[i] - F[i-1]) if xi_2 >
    0 and (F[i+1] - F[i]) if xi_2 < 0: faces F = v, or with minmod F = v +/-
    minmod(d[i], d[i+1]) / 2 (the sign of xi_2, d[i] = v[i] - v[i-1], no
    slope in an end cell).  Faces -1 and n are the ghosts: a wall inflow
    built from the state before the update, or the end cell at a free end.
    The xi_2 = 0 plane of an odd axis moves by 0 (F[i] - F[i-1]).

    Whole cells are walked in blocks of about ``BLOCK`` entries from the top
    down, so a block reads only values not yet updated: the xi_2 < 0 half of
    the difference across its top face (with minmod, its top cell's face
    too) was saved by the block above.  The xi_2 < 0 half of the differences
    moves down one face and v -= nu d runs over contiguous cells.
    Temporaries: the differences and faces, a block and a cell each, a cell
    of nu, the saved cells and one block of ``minmod``.
    """
    v, grid = field.values, field.grid
    n, half = len(v), grid.counts[1] // 2
    lo = v[0] if left is None else _wall_incoming(grid, left, v[0], -1.0)
    hi = v[-1] if right is None else _wall_incoming(grid, right, v[-1], 1.0)
    nu = (dt / field.dx) * np.broadcast_to(grid.axes[1][:, None], v.shape[1:])
    rows = max(1, BLOCK // v[0].size)
    d = work_array("transport differences", (rows + 1,) + v.shape[1:])
    d_below = work_array("transport difference below", v[0, :, :half].shape)
    if limiter == "minmod":
        sign = 0.5 * np.sign(nu[0])         # the sign of xi_2, over 2
        faces = work_array("transport faces", d.shape)
        f_below = work_array("transport face below", v.shape[1:])
    for b in range(n, 0, -rows):
        a = max(b - rows, 0)
        r, c = b - a, max(a - 1, 0)
        # the faces of cells c .. b-1: from the one below the block, or from
        # the block's first cell at the low end, where the ghost is
        if limiter == "none":
            x = v[c:b]
        else:   # the face of cell b-1 is the block above's, if there is one
            x = faces[:b - c]
            _faces(v, c, b if b == n else b - 1, sign, faces, d)
            if b < n:
                np.copyto(x[-1], f_below)
            np.copyto(f_below, x[0])
        np.subtract(x[1:], x[:-1], out=d[c + 1 - a:r])
        if a == 0:
            np.subtract(x[0], lo, out=d[0])
        if b == n:
            np.subtract(hi, x[-1], out=d[r])
        else:
            np.copyto(d[r, :, :half], d_below)
        np.copyto(d_below, d[0, :, :half])
        # the xi_2 < 0 nodes read the face above
        for k in range(r):
            np.copyto(d[k, :, :half], d[k + 1, :, :half])
        v[a:b] -= np.multiply(d[:r], nu, out=d[:r])


def dv_step(field, dt, left, right, kn, pr, limiter):
    """First-order split step: transport then conservative relaxation, whose
    Newton starts from ``field.correction`` and stores the new one there.

    Raised as a ValueError before the state changes: a ``limiter`` not in
    ``RunOptions.LIMITERS`` or a ``kn`` or ``pr`` that breaks
    ``march.check_collision``, each with the config's message, a wall that
    moves along a mirrored velocity axis (``march.require_mirror``), and a
    ``dt`` above ``dv_cfl_timestep(field, 1.0, limiter)``.  Within that bound
    upwind and minmod transport keep a non-negative state non-negative, so
    the collision's negativity warning names the phase that made a value
    negative."""
    check_choice("limiter", limiter, RunOptions.LIMITERS)
    check_collision(kn, pr)
    require_mirror(field.grid.mirrored, _NO_FORCE, (left, right))
    bound = dv_cfl_timestep(field, 1.0, limiter)
    if dt > bound:
        raise ValueError("time step %.6g exceeds the stability bound %.6g of "
                         "%s transport" % (dt, bound, limiter))
    transport_field(field, dt, left, right, limiter)
    collide_field(field.values, field.grid, kn, pr, dt, field.correction)
    return field


def dv_cfl_timestep(field, cfl, limiter):
    """The upwind bound cfl dx / max |xi_2|, with ``cfl`` capped at 0.5 for
    ``limiter`` "minmod"; the limiter is checked by ``dv_step``."""
    eff = min(cfl, 0.5) if limiter == "minmod" else cfl
    return eff * field.dx / float(np.max(np.abs(field.grid.axes[1])))


def dv_snapshot_table(field):
    """Profile table with the shared snapshot column layout."""
    return fields_table(field.centers, **field.moments())


def dv_run(field, config, snapshot_interval=0, on_step=None):
    """March the field to the stop set by ``config``, a ``march.RunOptions``,
    with ``march.march``, the loop, steady residual and stop meaning shared
    with ``solver1d.run``."""
    return march(field, config,
                 lambda: dv_cfl_timestep(field, config.cfl, config.limiter),
                 lambda dt: dv_step(field, dt, config.left, config.right,
                                    config.kn, config.pr, config.limiter),
                 lambda: dv_snapshot_table(field), snapshot_interval, on_step)
