"""Finite-volume slab solver for the Hermite moment system.

One step = transport -> renormalize -> collision -> acceleration (Lie
splitting).  There is no Strang variant: the kick u += dt a only adds to
u, so half kicks around the rest conjugate the Lie step and give its answer
with u read half a kick earlier.  Each transport flux pass reconstructs
linear in-cell profiles of every stored quantity, predicts the top-grade
coefficients from interface gradients (regularized closure), and applies an
HLL flux in a per-interface common frame; two such passes form a
trapezoidal (Heun) update, which is what keeps linear reconstruction stable
at the working CFL.  Fluxes are re-framed to each adjacent cell before the
update, which makes the scheme conservative in mass, momentum and energy by
telescoping.

Cubes hold the evolved grades <= M in a layout of ``moments``: along a1
or a3 the even orders alone when the run is mirror symmetric in that
velocity component (``march.mirror_breaker``).  The top grade M + 1 is
never stored: the closure predicts it at each interface from the traces'
mean and from centered differences of its ``closure_columns``, and the HLL
flux takes it in one term.
Beyond either end one rule (``_beyond_end``), rebuilt at every Heun stage,
gives the end cell itself at a free end and a wall ghost at a wall: of the
end cell for its slope, of the inner trace for the outer trace, so the wall
mass flux vanishes identically for a non-moving wall at both stages.

A state that is non-positive or non-finite (NaN) in density or temperature
stops the step with a RuntimeError naming the cell or interface and the
phase where it was found.

Frames are a gauge: the flux divergence is accumulated into the coefficient
cube at fixed (u, theta), after which the renormalization moves the frame to
restore f_{e_d} = 0 and the second-moment trace constraint exactly.

Work arrays: a step keeps its full-cube intermediates (stacked traces, in
whose place the HLL flux is formed once the closure has read them, and
their projection; face fluxes, the two transport rates, stage update, the
projection's middle product, the renormalized stage) in
``moments.work_array`` buffers, one per shape, from one step to the next.
The one fresh cube of a step is the renormalized final one, which is
collided in place and becomes ``grid.coeffs``.  No array a step leaves in
the grid is a work array.
"""

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from numpy.polynomial import hermite_e

from .boundary import ghost_state
from .closure import add_top_flux, closure_coeffs, closure_columns
from .collision import collide_coeffs, relaxation_time
from .march import (RunOptions, Slab, check_slab, finite_vectors,
                    initial_fields, march, minmod, require_mirror,
                    require_positive)
from .moments import (axis_steps, grade_mask, low_moments, snapshot_table,
                      work_array)
from .projection import project_coeffs, renormalize_arrays

# HLL wave speeds u2 +- SIGNAL_SPEED_FACTOR largest_he_root(M+1) sqrt(theta)
SIGNAL_SPEED_FACTOR = 1.2


@dataclass
class Grid1D(Slab):
    """Uniform cell-centered mesh (``march.Slab``) with per-cell moment data.

    ``u``: (N, 3) frame velocities, ``theta``: (N,), ``coeffs``:
    (N, K1, K, K3) with K = M + 1 in a layout of ``moments``, zero beyond
    the evolved grades <= M.  ``mirrored`` are the velocity axes d whose
    a_d holds the even orders alone, which ``march.check_slab`` (that also
    checks the domain, density, velocity and temperature) and ``step``
    read.
    """

    y_lo: float
    y_hi: float
    u: np.ndarray
    theta: np.ndarray
    coeffs: np.ndarray

    def __post_init__(self):
        self.u = np.array(self.u, dtype=float)
        self.theta = np.array(self.theta, dtype=float)
        self.coeffs = np.array(self.coeffs, dtype=float)
        n, *cube = self.coeffs.shape
        if self.u.shape != (n, 3) or self.theta.shape != (n,):
            raise ValueError("inconsistent field shapes")
        if len(cube) != 3 or cube[1] < 4:
            raise ValueError("coefficient cubes must be (N, K1, K, K3), M >= 3")
        steps = axis_steps(tuple(cube))
        self.mirrored = tuple(d for d in (0, 2) if steps[d] == 2)
        check_slab(self.y_lo, self.y_hi, self.coeffs[:, 0, 0, 0], self.u,
                   self.theta, self.mirrored)

    @property
    def n(self):
        return self.coeffs.shape[0]

    @property
    def M(self):
        return self.coeffs.shape[-2] - 1

    @classmethod
    def from_fields(cls, y_lo, y_hi, rho, u, theta, M, mirrored=()):
        """Cells of local Maxwellians of the given fields
        (``march.initial_fields``), the even orders alone along a_d for
        each axis d of ``mirrored`` (0 and/or 2)."""
        rho, u, theta = initial_fields(y_lo, y_hi, rho, u, theta, mirrored)
        cubes = np.zeros((len(rho),) + tuple(
            M // 2 + 1 if d in mirrored else M + 1 for d in range(3)))
        cubes[:, 0, 0, 0] = rho
        return cls(y_lo, y_hi, u, theta, cubes)

    def total_mass(self):
        return float(np.sum(self.coeffs[:, 0, 0, 0]) * self.dx)

    def total_momentum(self):
        rho, f1, _ = low_moments(self.coeffs)
        return np.sum(rho[:, None] * self.u + f1, axis=0) * self.dx

    def total_energy(self):
        rho, f1, f2 = low_moments(self.coeffs)
        e = 0.5 * rho * np.sum(self.u**2, axis=-1) + np.sum(self.u * f1, axis=-1)
        e += 1.5 * rho * self.theta + f2
        return float(np.sum(e) * self.dx)


@dataclass(kw_only=True)
class RunConfig(RunOptions):
    """Options of an NRxx slab run: the shared ones of ``march.RunOptions``
    (collision, CFL, stop, walls and limiter) and these, all keyword only.
    Every step collides; a large ``kn`` approaches the free-molecular limit.

    ``M``: highest evolved moment order, at least 3 (the cube edge is M + 1).
    ``force``: constant body acceleration, a finite 3-vector
    (``march.finite_vectors``), applied as the kick u += dt a after
    transport and collision (one step order; see the module docstring for
    why there is no Strang variant).
    ``limiter``: "none" (first order), "central" (the default) or "minmod".
    ``signal_speed`` (derived): c in the HLL wave speeds u2 +- c sqrt(theta),
    the constant ``SIGNAL_SPEED_FACTOR`` times ``largest_he_root(M + 1)``.
    """

    LIMITERS = ("none", "central", "minmod")

    M: int
    force: np.ndarray = field(default_factory=lambda: np.zeros(3))
    limiter: str = "central"

    def __post_init__(self):
        super().__post_init__()      # checks the kind of M too
        if self.M < 3:
            raise ValueError("moment order M must be at least 3")
        self.force = finite_vectors("force", self.force)

    @property
    def signal_speed(self):
        return SIGNAL_SPEED_FACTOR * largest_he_root(self.M + 1)


@lru_cache(maxsize=None)
def largest_he_root(n):
    """Largest root of He_n; bounds the spectrum of the streaming operator."""
    nodes, _ = hermite_e.hermegauss(n)
    return float(nodes[-1])


def _flux_cube(u2, theta, weight, shift, K):
    """Banded flux operators weight A(u2, theta) + shift I on axis a2.

    A is the K x K tridiagonal matrix of the slot flux
    theta f_{a-e2} + u2 f_a + (a2+1) f_{a+e2}: theta below the diagonal,
    u2 on it and 1, ..., K-1 above it.  ``u2`` and ``theta`` share one
    shape, against which the arrays ``weight`` and ``shift`` broadcast;
    returns (..., K, K), the three bands written into zeroed operators
    through the strided views of each flattened block.  ``np.matmul(op[...,
    None, :, :], cube)`` applies an operator along a2; of the result grades
    < M are the flux, and grade M is once ``add_top_flux`` adds the top
    grade.
    """
    diag = u2 * weight + shift
    ops = np.zeros(diag.shape + (K, K))
    bands = ops.reshape(diag.shape + (K * K,))
    bands[..., K::K + 1] = (theta * weight)[..., None]
    bands[..., ::K + 1] = diag[..., None]
    bands[..., 1::K + 1] = weight[..., None] * np.arange(1.0, K)
    return ops


# the jump term enters the two sides' operators as -wj I and +wj I
_JUMP_SIGNS = np.array([[-1.0], [1.0]])


def _hll_combine(a, b, top, u2, theta, lam_l, lam_r, out):
    """HLL flux of the interface states ``a`` | ``b``, both about (u2, theta)
    and closed by the top-grade prediction ``top`` of ``closure_coeffs``.

    The flux is linear in the state, so HLL with the signal speeds clipped
    to lam_l <= 0 <= lam_r is wa F(a) + wb F(b) + wj (b - a) on the
    evolved grades, with F = A(u2, theta) on axis a2 (``_flux_cube``): one
    banded operator per side, (wa A - wj I) on ``a`` and (wb A + wj I) on
    ``b``, applied as two batched matmuls.  The top grade is ``top`` on both
    sides and wa + wb = 1, so its part is the closure flux term alone,
    alpha2 P_alpha at alpha - e2 (``add_top_flux``).  The clipped weights
    are exactly (1, 0, 0) for lam_l >= 0 and (0, 1, 0) for lam_r <= 0,
    which makes the result the upwind state's flux.  Grades > M of the
    result are not flux; the frame change that follows drops them.
    ``out`` is a C-contiguous (2,) + a.shape array, not overlapping ``a``
    or ``b``, that receives the two sides' products; returns ``out[0]``.
    """
    lo = np.minimum(lam_l, 0.0)
    hi = np.maximum(lam_r, 0.0)
    # rows wa, wb, wj
    w = np.stack([hi, -lo, lo * hi]) / (hi - lo)
    ops = _flux_cube(u2, theta, w[:2], w[2] * _JUMP_SIGNS, a.shape[-2])
    F = np.matmul(ops[0, :, None], a, out=out[0])
    F += np.matmul(ops[1, :, None], b, out=out[1])
    return add_top_flux(F, top)


def cfl_timestep(grid, cfl, signal_c):
    """dt = cfl dx / max_cells(|u2| + c sqrt(theta))."""
    speed = np.abs(grid.u[:, 1]) + signal_c * np.sqrt(grid.theta)
    smax = np.max(speed)
    if not math.isfinite(smax):
        raise RuntimeError(
            "non-finite signal speed in cell %d in the time-step choice"
            % int(np.flatnonzero(~np.isfinite(speed))[0])
        )
    return cfl * grid.dx / smax


def _slope(diff, limiter, out):
    """Per-cell slopes into ``out`` from the N+1 differences across the cell
    faces (divided by dx)."""
    bwd, fwd = diff[:-1], diff[1:]
    if limiter == "none":
        out[...] = 0.0
    elif limiter == "central":
        np.multiply(np.add(fwd, bwd, out=out), 0.5, out=out)
    else:
        minmod(bwd, fwd, out)
    return out


def _beyond_end(state, j, wall, sign, inner=None):
    """``(u, theta, coeffs)`` beyond the end cell j (0 or N - 1) of the
    state of those arrays: at a wall (the left one for ``sign`` -1, the
    right one for +1) the wall ghost of ``inner``, by default the cell
    itself; at a free end the cell itself."""
    cell = tuple(a[j] for a in state)
    if wall is None:
        return cell
    return ghost_state(*(cell if inner is None else inner), wall, sign)


def closure_time(rho, theta, kn, dt):
    """Effective relaxation time feeding the top-grade prediction,
    tau_c = tau (1 - e^{-dt/tau}) with tau the Shakhov relaxation time.

    The top grade is predicted afresh every step, so its value over the
    step is the relaxation integral from zero towards the quasi-static
    balance.  tau_c lies below both tau and dt; it nears tau only for
    dt >~ 3 tau, and no preset runs there.  At the first step tau_c / tau
    is 3 % on the Couette and Poiseuille presets (M = 5, 100 cells), 0.5 %
    on the shock (M = 5, 500 cells) and 19 % on Couette M = 3 at 20 cells,
    so in practice tau_c is about dt and the regularization is weaker than
    the model's, the more so as the cells are refined.  The cap keeps the
    gradient part of the closure inside the explicit diffusion stability
    limit at the advective CFL step for every M (max diffusion number about
    0.63 (M+1) / r^2 < 1/2, r the largest root of He_{M+1}); with tau_c =
    tau the explicit scheme fails.
    """
    tau = relaxation_time(rho, theta, kn)
    return -tau * np.expm1(-dt / tau)


def _interface_data(state, dx, config):
    """Traces at every interface of the state ``(u, theta, coeffs)`` on
    cells of width ``dx``, and the common frame they are projected to.

    Returns ``((u, theta, coeffs), (u_c, theta_c))``.  The traces are
    stacked over a leading axis of 2, left trace first, then the N+1
    interfaces; they are work arrays that the next call overwrites.  The
    common frame is the mean of the flanking pair: the adjacent cell values
    in the interior, the inner trace and its trace-built ghost at a wall.
    """
    n = len(state[1])
    ends = ((config.left, -1.0, 0), (config.right, 1.0, n - 1))
    gl, gr = (_beyond_end(state, j, wall, sign) for wall, sign, j in ends)
    traces = []
    for cells, lo, hi in zip(state, gl, gr):
        diff = work_array("face differences", (n + 1,) + cells.shape[1:])
        np.subtract(cells[1:], cells[:-1], out=diff[1:-1])
        diff[0], diff[n] = cells[0] - lo, hi - cells[-1]
        diff /= dx
        t = work_array("traces", (2, n + 1) + cells.shape[1:])
        half_step = _slope(diff, config.limiter, t[1, :n])
        half_step *= 0.5 * dx
        np.add(cells, half_step, out=t[0, 1:])
        np.subtract(cells, half_step, out=t[1, :n])
        traces.append(t)
    tu, tth, tc = traces
    require_positive(
        np.minimum(tth[0, 1:], tth[1, :n]), "trace temperature",
        "in cell %d in reconstruction",
    )

    # outer trace at end interface i (side 0 left of it): the ghost of the
    # inner trace at a wall, the end cell for a free boundary
    for side, (wall, sign, j) in enumerate(ends):
        i = side * n
        inner = tu[1 - side, i], tth[1 - side, i], tc[1 - side, i]
        tu[side, i], tth[side, i], tc[side, i] = _beyond_end(
            state, j, wall, sign, inner)

    # at a wall the flanking pair is (trace, its ghost), which pins the
    # common frame to (u_trace_tangential, 0, theta_trace): the ghost mirrors
    # u2, as the wall does not move along its normal
    frame = []
    for cells, t in zip(state, (tu, tth)):
        al = np.concatenate([t[0, :1], cells])
        br = np.concatenate([cells, t[1, n:]])
        if config.left is not None:
            br[0] = t[1, 0]
        if config.right is not None:
            al[n] = t[0, n]
        frame.append(0.5 * (al + br))
    return (tu, tth, tc), tuple(frame)


def _transport_rate(state, dx, config, dt, out):
    """One flux-divergence evaluation of the state ``(u, theta, coeffs)`` on
    cells of width ``dx``: d(coeffs)/dt in each cell's own frame, written
    into ``out``; returns ``out``."""
    u, theta, coeffs = state
    n = len(theta)

    (tu, tth, tc), (u_c, th_c) = _interface_data(state, dx, config)
    p_pair = project_coeffs(tc, tu, tth, u_c, th_c,
                            out=work_array("projected traces", tc.shape))
    rho_bar = 0.5 * (p_pair[0, :, 0, 0, 0] + p_pair[1, :, 0, 0, 0])
    require_positive(rho_bar, "density", "at interface %d in the closure")
    # Closure gradients: centered two-point differences of the single-valued
    # reconstructed interface values over 2 dx, raw (stored-frame)
    # slot-wise -- the formula's derivatives are of the locally-framed
    # coefficient field, with frame variation carried by its explicit du/dy,
    # dtheta/dy terms.  The wide stencil is also what keeps the scheme stable
    # at the advective CFL step: the HLL dissipation alone puts the
    # highest-frequency mode near the stability edge, and this stencil does
    # not see that mode.
    v = closure_columns(tu, tth, tc)
    v = np.add(v[0], v[1], out=v[0])
    v *= 0.5
    grad = np.empty_like(v)
    np.divide(np.subtract(v[2:], v[:-2], out=grad[1:-1]), 2.0 * dx,
              out=grad[1:-1])
    # end interfaces: one-sided differences of the adjacent raw cell data; a
    # wall ghost's odd-normal-order entries do not track the interior ones,
    # so differencing against it is not a gradient estimate and would couple
    # back into the top grade
    ends = [0, min(1, n - 1), max(n - 2, 0), n - 1]
    cells = closure_columns(u[ends], theta[ends], coeffs[ends])
    np.divide(cells[1::2] - cells[::2], dx, out=grad[::n])
    # the one prediction closes both traces
    top = closure_coeffs(p_pair, th_c, grad,
                         closure_time(rho_bar, th_c, config.kn, dt))

    # signal speeds: the extremes of u2 -+ c sqrt(theta) over both traces
    c_sqrt = config.signal_speed * np.sqrt(tth)
    lam_l = np.min(tu[..., 1] - c_sqrt, axis=0)
    lam_r = np.max(tu[..., 1] + c_sqrt, axis=0)
    # the raw trace cubes are spent, so the HLL products take their place
    F = _hll_combine(p_pair[0], p_pair[1], top, u_c[:, 1], th_c, lam_l, lam_r,
                     out=tc)

    # the two faces of every cell, as a zero-copy (2, N, ...) view of F
    faces = np.ndarray((2,) + F[1:].shape, buffer=F,
                       strides=F.strides[:1] + F.strides)
    f_pair = project_coeffs(
        faces, np.stack([u_c[:-1], u_c[1:]]), np.stack([th_c[:-1], th_c[1:]]),
        u, theta, out=work_array("face fluxes", (2,) + coeffs.shape))
    rate = np.subtract(f_pair[0], f_pair[1], out=out)
    rate /= dx
    return rate


def _stage_state(grid, coeffs, stage, out=None):
    """Renormalize a provisional coefficient update, its cube into ``out``
    as in ``project_coeffs``; returns the new ``(u, theta, coeffs)``.  The
    projection keeps f_0, so the density checked here is the density of
    the result."""
    require_positive(coeffs[:, 0, 0, 0], "density", "in cell %d after " + stage)
    u_new, th_new, c_ren = renormalize_arrays(grid.u, grid.theta, coeffs,
                                              out=out)
    require_positive(th_new, "temperature", "in cell %d after " + stage)
    return u_new, th_new, c_ren


def step(grid, config, dt=None):
    """Advance the grid in place by one split step; returns the dt used.

    Transport is integrated with a two-stage trapezoidal (Heun) update:
    one flux evaluation per stage, stage states renormalized, the two rates
    averaged in the step-start frames.  A single forward-Euler pass over the
    linearly reconstructed fluxes is weakly unstable at the working CFL on
    any fixed grid; the second stage restores stability up to CFL 1 while
    keeping every stage a plain reconstruct -> close -> HLL sweep.
    """
    if grid.M != config.M:
        raise ValueError("grid and config disagree on the moment order")
    require_mirror(grid.mirrored, config.force, (config.left, config.right))
    if dt is None:
        dt = cfl_timestep(grid, config.cfl, config.signal_speed)

    rates = work_array("transport rates", (2,) + grid.coeffs.shape)
    r1 = _transport_rate((grid.u, grid.theta, grid.coeffs), grid.dx, config,
                         dt, out=rates[0])
    stage = np.multiply(dt, r1, out=work_array("stage", r1.shape))
    stage += grid.coeffs
    u1, th1, c1 = _stage_state(grid, stage, "transport stage 1",
                               out=work_array("stage state", stage.shape))
    # the second-stage rate comes back in the stage frames; re-express it in
    # the step-start frames before averaging (the frame map is linear)
    r2 = project_coeffs(
        _transport_rate((u1, th1, c1), grid.dx, config, dt, out=rates[1]),
        u1, th1, grid.u, grid.theta, out=stage)
    new_c = np.add(r1, r2, out=r1)
    new_c *= 0.5 * dt
    new_c += grid.coeffs
    u_new, th_new, c_ren = _stage_state(grid, new_c, "transport stage 2")

    tau = relaxation_time(c_ren[:, 0, 0, 0], th_new, config.kn)
    collide_coeffs(c_ren, tau, config.pr, dt, out=c_ren)

    u_new = u_new + dt * config.force

    grid.u = u_new
    grid.theta = th_new
    grid.coeffs = c_ren
    return dt


@lru_cache(maxsize=None)
def _evolved_slots(cube, M):
    """Flat indices, in C order, of the grades <= M of a cube of shape
    ``cube``."""
    slots = np.flatnonzero(grade_mask(cube, M))
    slots.setflags(write=False)
    return slots


def _state_vector(grid):
    """Each cell's u, theta and evolved coefficients (grades <= M, in the
    cube's C order, f_0 first) in a row, rows concatenated: a new flat
    vector of the grid's own arrays, in no common frame.  The slots beyond
    grade M are zero in every state, so they are left out."""
    slots = _evolved_slots(grid.coeffs.shape[1:], grid.M)
    x = np.empty((grid.n, 4 + slots.size))
    x[:, :3] = grid.u
    x[:, 3] = grid.theta
    x[:, 4:] = grid.coeffs.reshape(grid.n, -1)[:, slots]
    return x.ravel()


def _put_state_vector(grid, x):
    """Write the ``_state_vector`` layout ``x`` into the grid's arrays in
    place and return True, or return False and leave the grid as it is if a
    density or temperature of ``x`` is not positive.  The arrays must be
    C-contiguous and unshared, as every step leaves them; the slots beyond
    grade M keep their zeros."""
    rows = x.reshape(grid.n, -1)
    # theta and rho = f_0 are the adjacent columns 3 and 4 (NaN fails too)
    if not rows[:, 3:5].min() > 0:
        return False
    slots = _evolved_slots(grid.coeffs.shape[1:], grid.M)
    grid.u[...] = rows[:, :3]
    grid.theta[...] = rows[:, 3]
    grid.coeffs.reshape(grid.n, -1)[:, slots] = rows[:, 4:]
    return True


def run(grid, config, snapshot_interval=0, on_step=None):
    """March the grid to the configured stop with ``march.march``, the loop,
    steady residual and stop meaning shared with ``cdvm.dv_run``; returns a
    ``march.RunResult``.

    A pure steady run (``steady_tol`` set, ``t_end`` None) solves the fixed
    point of ``step`` with ``march``'s Anderson mixing, on the vector of
    every cell's (u, theta, coeffs) in its own frame (``_state_vector``).
    The gauge conditions f_{e_d} = 0 and sum_d f_{2 e_d} = 0 and the
    density rho = f_0 are linear in it, so a mix is a valid state up to
    positivity and keeps the total mass; a mix with a non-positive density
    or temperature is rejected and the window restarts.  ``t`` is then a
    pseudo-time.  A run with ``t_end`` set marches plainly.
    """
    # step, cfl_timestep and snapshot_table are looked up at call time, so
    # a wrapper bound to these module names sees every call
    return march(grid, config,
                 lambda: cfl_timestep(grid, config.cfl, config.signal_speed),
                 lambda dt: step(grid, config, dt),
                 lambda: snapshot_table(grid.centers, grid.u, grid.theta,
                                        grid.coeffs),
                 snapshot_interval, on_step,
                 (lambda: _state_vector(grid),
                  lambda x: _put_state_vector(grid, x)))
