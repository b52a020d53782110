"""Conservative discrete-velocity reference solver for the Shakhov model.

Independent of the moment machinery: the distribution is carried on a fixed
Cartesian velocity grid with trapezoidal weights and advanced by first-order
splitting of upwind transport (optional minmod-limited second order) and an
exact relaxation step

    f(t+dt) = G + B exp(-Pr dt/tau) + (f - G - B) exp(-dt/tau),

where G is a discrete Gaussian whose parameters are Newton-corrected so its
*quadrature* moments match the pre-collision mass, momentum and energy, and
B is the heat-flux (Shakhov) correction projected so its quadrature
collision invariants vanish.  Collision therefore conserves the discrete
invariants to solver tolerance, and the accommodation-wall fluxes balance
mass exactly by construction of the re-emitted density.

All Gaussian moment sums factor per axis, so the Newton iteration touches
only (cells x nodes-per-axis) data; full velocity-cube passes are limited to
the transport sweep and a handful of elementwise updates per step.

``dv_run`` marches through ``march.march``, the loop shared with the moment
solver, so ``steady_tol`` means the same for both: every 10 steps, the max
over cells and snapshot columns (all but y) of |change| / (|previous| +
1e-8), per unit time since the previous check.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .boundary import WallSpec
from .collision import relaxation_time
from .march import check_stop_options, march
from .moments import SNAPSHOT_COLUMNS

NEWTON_TOL = 1e-13
NEWTON_MAX_ITER = 40
NEGATIVITY_WARN = 1e-12


@dataclass
class DvGrid:
    """Cartesian velocity grid, symmetric per axis, trapezoidal weights."""

    bounds: tuple          # ((lo, hi),) * 3
    counts: tuple          # (n1, n2, n3)

    def __post_init__(self):
        for (lo, hi), n in zip(self.bounds, self.counts):
            if not (hi > lo) or n < 8:
                raise ValueError("each axis needs hi > lo and at least 8 nodes")
            if abs(lo + hi) > 1e-12 * (hi - lo):
                raise ValueError("axes must be symmetric about zero")
        self.axes = tuple(
            np.linspace(lo, hi, n) for (lo, hi), n in zip(self.bounds, self.counts)
        )
        self.weights = []
        for ax in self.axes:
            w = np.full(ax.shape, ax[1] - ax[0])
            w[0] *= 0.5
            w[-1] *= 0.5
            self.weights.append(w)
        self.weights = tuple(self.weights)

    @classmethod
    def cube(cls, half_width, n):
        return cls(((-half_width, half_width),) * 3, (n, n, n))

    @property
    def w3(self):
        w1, w2, w3 = self.weights
        return w1[:, None, None] * w2[None, :, None] * w3[None, None, :]

    def maxwellian(self, rho, u, theta):
        """Nodal Maxwellian values, batched over leading dims of rho/u/theta."""
        rho = np.asarray(rho, dtype=float)
        u = np.asarray(u, dtype=float)
        theta = np.asarray(theta, dtype=float)
        norm = rho * (2.0 * math.pi * theta) ** -1.5
        out = norm[..., None, None, None] * np.ones(self.counts)
        shapes = (
            (Ellipsis, slice(None), None, None),
            (Ellipsis, None, slice(None), None),
            (Ellipsis, None, None, slice(None)),
        )
        for d in range(3):
            g = np.exp(
                -((self.axes[d] - u[..., d, None]) ** 2) / (2.0 * theta[..., None])
            )
            out = out * g[shapes[d]]
        return out


def dv_moments(values, grid):
    """Macroscopic fields of nodal data: dict with rho, u, theta, sigma, q.

    Raw quadrature moments are taken over xi and converted to the central
    quantities; works on any batch shape (..., n1, n2, n3).
    """
    x1, x2, x3 = grid.axes
    fw = values * grid.w3
    rho = fw.sum(axis=(-3, -2, -1))
    m = np.stack(
        [
            np.einsum("...xyz,x->...", fw, x1),
            np.einsum("...xyz,y->...", fw, x2),
            np.einsum("...xyz,z->...", fw, x3),
        ],
        axis=-1,
    )
    P = np.empty(rho.shape + (3, 3))
    P[..., 0, 0] = np.einsum("...xyz,x->...", fw, x1**2)
    P[..., 1, 1] = np.einsum("...xyz,y->...", fw, x2**2)
    P[..., 2, 2] = np.einsum("...xyz,z->...", fw, x3**2)
    P[..., 0, 1] = P[..., 1, 0] = np.einsum("...xyz,x,y->...", fw, x1, x2)
    P[..., 0, 2] = P[..., 2, 0] = np.einsum("...xyz,x,z->...", fw, x1, x3)
    P[..., 1, 2] = P[..., 2, 1] = np.einsum("...xyz,y,z->...", fw, x2, x3)
    Q = np.stack(
        [
            np.einsum("...xyz,x->...", fw, x1**3)
            + np.einsum("...xyz,x,y->...", fw, x1, x2**2)
            + np.einsum("...xyz,x,z->...", fw, x1, x3**2),
            np.einsum("...xyz,y->...", fw, x2**3)
            + np.einsum("...xyz,x,y->...", fw, x1**2, x2)
            + np.einsum("...xyz,y,z->...", fw, x2, x3**2),
            np.einsum("...xyz,z->...", fw, x3**3)
            + np.einsum("...xyz,x,z->...", fw, x1**2, x3)
            + np.einsum("...xyz,y,z->...", fw, x2**2, x3),
        ],
        axis=-1,
    )
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
    """Per-axis factors exp(-(x - u_d)^2 / 2 theta) and their weighted
    moment sums A[k] = sum w x^k g for k = 0..4; shapes (..., n_d) / (..., 5)."""
    gs, As = [], []
    for d in range(3):
        x = grid.axes[d]
        w = grid.weights[d]
        g = np.exp(-((x[None] - u[..., d, None]) ** 2) / (2.0 * theta[..., None]))
        wx = np.stack([w * x**k for k in range(5)], axis=0)     # (5, n)
        As.append(np.einsum("...n,kn->...k", g, wx))
        gs.append(g)
    return gs, As


def conservative_gaussian(grid, rho_t, m_t, T0_t, u_seed, theta_seed):
    """Gaussian parameters whose discrete moments hit the targets exactly.

    Newton in (rho, u1, u2, u3, theta) matching quadrature mass, momentum
    and total second moment T0 = <|xi|^2 f>.  Returns (rho, u, theta, axis
    factors, axis moment tables); raises if the iteration stalls.
    """
    rho = np.array(rho_t, dtype=float)
    u = np.array(u_seed, dtype=float)
    theta = np.array(theta_seed, dtype=float)
    scale = np.stack(
        [
            rho_t,
            rho_t * np.sqrt(theta_seed),
            rho_t * np.sqrt(theta_seed),
            rho_t * np.sqrt(theta_seed),
            np.abs(T0_t),
        ],
        axis=-1,
    )
    targets = np.stack([rho_t, m_t[..., 0], m_t[..., 1], m_t[..., 2], T0_t], axis=-1)

    for _ in range(NEWTON_MAX_ITER):
        gs, As = _axis_gaussians(grid, u, theta)
        norm = rho * (2.0 * math.pi * theta) ** -1.5
        A0 = [As[d][..., 0] for d in range(3)]
        A1 = [As[d][..., 1] for d in range(3)]
        A2 = [As[d][..., 2] for d in range(3)]

        def others(d):
            e, f = [x for x in range(3) if x != d]
            return A0[e] * A0[f]

        prod0 = A0[0] * A0[1] * A0[2]
        mom = np.empty(targets.shape)
        mom[..., 0] = norm * prod0
        for d in range(3):
            mom[..., 1 + d] = norm * A1[d] * others(d)
        mom[..., 4] = norm * sum(A2[d] * others(d) for d in range(3))
        r = mom - targets
        if np.max(np.abs(r) / scale) < NEWTON_TOL:
            return rho, u, theta, gs, As

        # d/du_d and d/dtheta of the axis sums
        Bu = [
            [
                (As[d][..., k + 1] - u[..., d] * As[d][..., k]) / theta
                for k in range(4)
            ]
            for d in range(3)
        ]
        Bt = [
            [
                (
                    As[d][..., k + 2]
                    - 2.0 * u[..., d] * As[d][..., k + 1]
                    + u[..., d] ** 2 * As[d][..., k]
                )
                / (2.0 * theta**2)
                for k in range(3)
            ]
            for d in range(3)
        ]
        J = np.empty(targets.shape + (5,))
        J[..., :, 0] = mom / rho[..., None]
        for d in range(3):
            e, f = [x for x in range(3) if x != d]
            dprod = Bu[d][0] * A0[e] * A0[f]
            J[..., 0, 1 + d] = norm * dprod
            for dd in range(3):
                if dd == d:
                    J[..., 1 + dd, 1 + d] = norm * Bu[d][1] * A0[e] * A0[f]
                else:
                    ee = [x for x in range(3) if x not in (d, dd)][0]
                    J[..., 1 + dd, 1 + d] = norm * A1[dd] * Bu[d][0] * A0[ee]
            term = Bu[d][2] * A0[e] * A0[f]
            for dd in (e, f):
                ee = [x for x in range(3) if x not in (d, dd)][0]
                term = term + A2[dd] * Bu[d][0] * A0[ee]
            J[..., 4, 1 + d] = norm * term
        dn = -1.5 * norm / theta
        dprod_t = (
            Bt[0][0] * A0[1] * A0[2]
            + A0[0] * Bt[1][0] * A0[2]
            + A0[0] * A0[1] * Bt[2][0]
        )
        J[..., 0, 4] = dn * prod0 + norm * dprod_t
        for d in range(3):
            e, f = [x for x in range(3) if x != d]
            t = Bt[d][1] * A0[e] * A0[f]
            t = t + A1[d] * (Bt[e][0] * A0[f] + A0[e] * Bt[f][0])
            J[..., 1 + d, 4] = dn * A1[d] * others(d) + norm * t
        t = 0.0
        for d in range(3):
            e, f = [x for x in range(3) if x != d]
            t = t + Bt[d][2] * A0[e] * A0[f]
            t = t + A2[d] * (Bt[e][0] * A0[f] + A0[e] * Bt[f][0])
        J[..., 4, 4] = dn * sum(A2[d] * others(d) for d in range(3)) + norm * t

        delta = np.linalg.solve(J, -r[..., None])[..., 0]
        rho = rho + np.clip(delta[..., 0], -0.5 * rho, 0.5 * rho)
        cap = np.sqrt(theta)
        u = u + np.clip(delta[..., 1:4], -cap[..., None], cap[..., None])
        theta = theta + np.clip(delta[..., 4], -0.5 * theta, 0.5 * theta)
    raise RuntimeError("conservative Gaussian correction did not converge")


def _outer3(norm, gs):
    return norm[..., None, None, None] * np.einsum(
        "...x,...y,...z->...xyz", gs[0], gs[1], gs[2]
    )


def _central_axis_moments(As, u):
    """Per-axis central sums Ac[k] = sum w (x-u)^k g from the raw tables."""
    out = []
    for d in range(3):
        a = [As[d][..., k] for k in range(5)]
        ud = u[..., d]
        out.append(
            [
                a[0],
                a[1] - ud * a[0],
                a[2] - 2 * ud * a[1] + ud**2 * a[0],
                a[3] - 3 * ud * a[2] + 3 * ud**2 * a[1] - ud**3 * a[0],
                a[4] - 4 * ud * a[3] + 6 * ud**2 * a[2] - 4 * ud**3 * a[1]
                + ud**4 * a[0],
            ]
        )
    return out


def collide_field(values, grid, kn, pr, dt):
    """Exact Shakhov relaxation with discrete conservation (batched cells)."""
    mom = dv_moments(values, grid)
    rho, u, theta, q = mom["rho"], mom["u"], mom["theta"], mom["q"]
    ok = (rho > 0) & (theta > 0)
    if not np.all(ok):
        j = int(np.flatnonzero(~ok)[0])
        raise RuntimeError(
            "non-positive or non-finite density %r or temperature %r in cell "
            "%d in collision" % (float(rho[j]), float(theta[j]), j)
        )
    x1, x2, x3 = grid.axes
    m = rho[..., None] * u
    T0 = (3.0 * theta + np.sum(u**2, axis=-1)) * rho
    rho_g, u_g, th_g, gs, As = conservative_gaussian(grid, rho, m, T0, u, theta)
    norm = rho_g * (2.0 * math.pi * th_g) ** -1.5
    G = _outer3(norm, gs)

    tau = relaxation_time(rho, theta, kn)
    e_full = np.exp(-dt / tau)[..., None, None, None]
    e_pr = np.exp(-pr * dt / tau)[..., None, None, None]
    if pr == 1.0:
        return G + (values - G) * e_full

    c1 = x1[None] - u_g[..., 0, None]
    c2 = x2[None] - u_g[..., 1, None]
    c3 = x3[None] - u_g[..., 2, None]
    ax = (Ellipsis, slice(None), None, None)
    ay = (Ellipsis, None, slice(None), None)
    az = (Ellipsis, None, None, slice(None))
    cq = (
        (q[..., 0, None] * c1)[ax]
        + (q[..., 1, None] * c2)[ay]
        + (q[..., 2, None] * c3)[az]
    )
    csq = (c1**2)[ax] + (c2**2)[ay] + (c3**2)[az]
    th4 = th_g[..., None, None, None]
    B = G * cq * (csq / th4 - 5.0) / (5.0 * (rho * theta**2)[..., None, None, None])

    # project out the discrete collision invariants: B -= G * (lam . psi),
    # psi = (1, c1, c2, c3, |c|^2), so that quadrature mass/momentum/energy
    # of B vanish exactly
    Ac = _central_axis_moments(As, u_g)
    def pmom(k1, k2, k3):
        return norm * Ac[0][k1] * Ac[1][k2] * Ac[2][k3]

    gram = np.empty(rho.shape + (5, 5))
    kdelta = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    gram[..., 0, 0] = pmom(0, 0, 0)
    for d, kd in enumerate(kdelta):
        gram[..., 0, 1 + d] = gram[..., 1 + d, 0] = pmom(*kd)
    gram[..., 0, 4] = gram[..., 4, 0] = sum(
        pmom(*(2 * np.array(kd))) for kd in kdelta
    )
    for d, kd in enumerate(kdelta):
        for e, ke in enumerate(kdelta):
            gram[..., 1 + d, 1 + e] = pmom(*(np.array(kd) + np.array(ke)))
    for d, kd in enumerate(kdelta):
        t = pmom(*(3 * np.array(kd)))
        for e, ke in enumerate(kdelta):
            if e != d:
                t = t + pmom(*(np.array(kd) + 2 * np.array(ke)))
        gram[..., 1 + d, 4] = gram[..., 4, 1 + d] = t
    t = sum(pmom(*(4 * np.array(kd))) for kd in kdelta)
    for d in range(3):
        for e in range(d + 1, 3):
            t = t + 2.0 * pmom(*(2 * np.array(kdelta[d]) + 2 * np.array(kdelta[e])))
    gram[..., 4, 4] = t

    Bw = B * grid.w3
    rhs = np.empty(rho.shape + (5,))
    rhs[..., 0] = Bw.sum(axis=(-3, -2, -1))
    rhs[..., 1] = np.einsum("...xyz,...x->...", Bw, c1)
    rhs[..., 2] = np.einsum("...xyz,...y->...", Bw, c2)
    rhs[..., 3] = np.einsum("...xyz,...z->...", Bw, c3)
    rhs[..., 4] = (
        np.einsum("...xyz,...x->...", Bw, c1**2)
        + np.einsum("...xyz,...y->...", Bw, c2**2)
        + np.einsum("...xyz,...z->...", Bw, c3**2)
    )
    lam = np.linalg.solve(gram, rhs[..., None])[..., 0]
    poly = (
        lam[..., 0, None, None, None]
        + (lam[..., 1, None] * c1)[ax]
        + (lam[..., 2, None] * c2)[ay]
        + (lam[..., 3, None] * c3)[az]
        + lam[..., 4, None, None, None] * csq
    )
    B = B - G * poly

    return G + B * e_pr + (values - G - B) * e_full


@dataclass
class DvField:
    """Distribution values on a slab of spatial cells."""

    grid: DvGrid
    y_lo: float
    y_hi: float
    values: np.ndarray      # (N, n1, n2, n3)

    def __post_init__(self):
        if self.values.shape[1:] != self.grid.counts:
            raise ValueError("values do not match the velocity grid")

    @property
    def n(self):
        return self.values.shape[0]

    @property
    def dx(self):
        return (self.y_hi - self.y_lo) / self.n

    @property
    def centers(self):
        return self.y_lo + (np.arange(self.n) + 0.5) * self.dx

    @classmethod
    def from_fields(cls, grid, y_lo, y_hi, rho, u, theta):
        rho = np.asarray(rho, dtype=float)
        n = rho.shape[0]
        u = np.broadcast_to(np.asarray(u, dtype=float), (n, 3)).copy()
        theta = np.broadcast_to(np.asarray(theta, dtype=float), (n,)).copy()
        return cls(grid, y_lo, y_hi, grid.maxwellian(rho, u, theta))

    def moments(self):
        return dv_moments(self.values, self.grid)


def _wall_phi(grid, wall):
    if wall.u_wall[1] != 0.0:
        raise NotImplementedError("moving-normal walls are not supported")
    return grid.maxwellian(1.0, wall.u_wall, wall.theta_wall)


def _wall_incoming(grid, wall, f_out, sgn):
    """Re-emitted nodal distribution at a wall with outward normal sgn*e2.

    chi rho_w phi_w + (1 - chi) specular mirror, with rho_w balancing the
    discrete mass flux through the interface exactly.
    """
    xi2 = grid.axes[1][None, :, None]
    w3 = grid.w3
    phi = _wall_phi(grid, wall)
    outgoing = np.maximum(sgn * xi2, 0.0)     # outward-normal speed, outgoing nodes
    incoming = np.minimum(sgn * xi2, 0.0)
    flux_out = float(np.sum(w3 * outgoing * f_out))
    denom = float(np.sum(w3 * incoming * phi))
    rho_w = -flux_out / denom if wall.chi > 0.0 else 0.0
    mirror = f_out[:, ::-1, :]
    return wall.chi * rho_w * phi + (1.0 - wall.chi) * mirror


def transport_field(field, dt, left, right, limiter="none"):
    """One upwind (optionally minmod-limited) transport sweep, in place."""
    vals = field.values
    grid = field.grid
    dx = field.dx
    n = field.n
    xi2 = grid.axes[1][None, :, None]
    pos = np.maximum(xi2, 0.0)
    neg = np.minimum(xi2, 0.0)

    ext = np.concatenate([vals[:1], vals, vals[-1:]], axis=0)
    if limiter == "minmod":
        fwd = ext[2:] - ext[1:-1]
        bwd = ext[1:-1] - ext[:-2]
        slope = np.where(
            fwd * bwd > 0.0, np.sign(fwd) * np.minimum(np.abs(fwd), np.abs(bwd)), 0.0
        )
        tl = np.concatenate([ext[:1], ext[1:-1] + 0.5 * slope], axis=0)
        tr = np.concatenate([ext[1:-1] - 0.5 * slope, ext[-1:]], axis=0)
    else:
        tl = ext[:-1]
        tr = ext[1:]
    # interface i has left state tl[i] (cell i-1 side) and right state tr[i]
    flux = pos * tl + neg * tr

    if left is not None:
        f_out = tr[0] if limiter == "minmod" else vals[0]
        f_in = _wall_incoming(grid, left, f_out, -1.0)
        flux[0] = pos * f_in + neg * f_out
    if right is not None:
        f_out = tl[n] if limiter == "minmod" else vals[-1]
        f_in = _wall_incoming(grid, right, f_out, 1.0)
        flux[n] = pos * f_out + neg * f_in

    vals += (dt / dx) * (flux[:-1] - flux[1:])
    worst = float(vals.min())
    if worst < -NEGATIVITY_WARN:
        warnings.warn(
            "distribution went negative (min %.3e) during transport" % worst,
            RuntimeWarning,
        )
    return field


def dv_step(field, dt, left, right, kn, pr, limiter="none"):
    """First-order split step: transport then conservative relaxation."""
    transport_field(field, dt, left, right, limiter)
    field.values = collide_field(field.values, field.grid, kn, pr, dt)
    return field


@dataclass
class DvRunConfig:
    """Options of a discrete-velocity slab run; the stop options and their
    steady residual are those of ``march.march`` (see the module docstring).
    """

    kn: float
    pr: float = 2.0 / 3.0
    cfl: float = 0.95
    t_end: float = None
    steady_tol: float = None
    max_steps: int = 200000
    left: WallSpec = None
    right: WallSpec = None
    limiter: str = "none"

    def __post_init__(self):
        check_stop_options(self)
        if not (self.kn > 0):
            raise ValueError("Knudsen number must be positive")
        if not (0.0 < self.pr <= 1.0):
            raise ValueError("Prandtl number must lie in (0, 1]")
        if self.limiter not in ("none", "minmod"):
            raise ValueError("limiter must be 'none' or 'minmod'")


def dv_cfl_timestep(field, cfl, limiter="none"):
    eff = min(cfl, 0.5) if limiter == "minmod" else cfl
    return eff * field.dx / float(np.max(np.abs(field.grid.axes[1])))


def dv_snapshot_table(field):
    """Profile table with the shared snapshot column layout."""
    mom = field.moments()
    cols = {
        "y": field.centers,
        "rho": mom["rho"],
        "u1": mom["u"][:, 0],
        "u2": mom["u"][:, 1],
        "u3": mom["u"][:, 2],
        "theta": mom["theta"],
        "sigma11": mom["sigma"][:, 0, 0],
        "sigma12": mom["sigma"][:, 0, 1],
        "sigma22": mom["sigma"][:, 1, 1],
        "q1": mom["q"][:, 0],
        "q2": mom["q"][:, 1],
    }
    return np.stack([cols[name] for name in SNAPSHOT_COLUMNS], axis=-1)


def dv_run(field, config, snapshot_interval=None, on_step=None):
    """March the field to the configured stop with ``march.march``, the loop
    and steady residual shared with ``solver1d.run`` (module docstring)."""
    return march(field, config,
                 lambda: dv_cfl_timestep(field, config.cfl, config.limiter),
                 lambda dt: dv_step(field, dt, config.left, config.right,
                                    config.kn, config.pr, config.limiter),
                 lambda: dv_snapshot_table(field), snapshot_interval, on_step)
