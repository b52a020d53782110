"""What both slab solvers share: the run options ``RunOptions``, declared
and checked once (``solver1d.RunConfig`` adds its own and names its
limiters; the discrete-velocity solver runs on ``RunOptions`` as is), the
slab front end (``Slab``, the cells of a state, and ``initial_fields``),
the loop ``march``, the input rules ``check_kinds``, ``check_collision``,
``check_choice``, ``finite_vectors`` and ``check_slab``, the slope limiter
``minmod``, ``require_positive``, whose message names the quantity, the
value, the cell and the phase, and the mirror rule (``mirror_breaker``,
``require_mirror``) by which both solvers store half of a velocity axis.
This module imports no other module of the package.

A solver passes ``march`` its state and three callables: the CFL time step,
an in-place advance by a given dt, and the snapshot table of the current
state (``moments.SNAPSHOT_COLUMNS`` layout).  The loop stops at ``t_end``
(the last step is clipped to hit it), at steady state, or after
``max_steps`` steps, whichever comes first; only the last is reported as not
converged.  A solver may also pass a get/put pair over its state as one
flat vector; a pure steady run (``steady_tol`` set, ``t_end`` None) then
solves the fixed point of one step by Anderson mixing (``Anderson``).

The steady residual is defined once, on the snapshot table: every
``CHECK_EVERY`` = 10 steps, and only when ``steady_tol`` is set, the max
over cells and columns but y of |cur - prev| / (|prev| + 1e-8), divided by
the time since the previous check (the initial state for the first).  The
check is sparse because a discrete-velocity table costs about a sixth of a
discrete-velocity step (0.33 ms against 1.9-2.0 ms on 24^3 nodes x 50
cells; NRxx M = 3 on 20 cells: 0.033 ms against 1.1-1.3 ms, about 3 %;
best of 7 timeit repeats, one BLAS thread, 2-core host).  A column
exactly zero at steady state (u2, q1 or q2 on the centre cell of an odd
Couette grid, by symmetry) keeps a round-off ripple of ~1e-17, which over
a check window of ~0.5 against the floor 1e-8 reads ~1e-8: a
``steady_tol`` below about 1e-8 can be unreachable.  A step whose dt no
longer advances t (a runaway state) is a RuntimeError naming the step, dt
and t.
"""

import math
import numbers
from dataclasses import dataclass, fields

import numpy as np

CHECK_EVERY = 10
RESIDUAL_FLOOR = 1e-8
# past steps whose residual differences the Anderson mixing keeps, chosen
# by the total wall time of 14 steady Couette and Poiseuille solves (M = 3
# to 10, 20 to 160 cells, tol 1e-4 to 1e-9; one BLAS thread): 26.3 / 22.8
# / 15.8 / 14.0 / 13.0 s at windows 30 / 60 / 100 / 150 / 200, and 250
# saved nothing over 200 (11.8 s each on eight of them).  Steps at 30 / 100 /
# 150 / 200: Couette M = 3, 20 cells, tol 1e-4: 100 / 80 / 80 / 80;
# Couette M = 3, 80 cells, tol 1e-6: 1 890 / 820 / 420 / 380; Couette
# M = 5, 160 cells, tol 1e-6: 6 840 / 3 630 / 2 940 / 2 510.  The two rings
# hold 2 WINDOW n doubles, 19.5 MB for the last (n = 6 080)
WINDOW = 200
# relative Tikhonov shift of the Gram matrix's diagonal, which keeps the
# window-size solve defined when the residual differences are dependent;
# at window 200 the 14 solves took 13.3 / 13.2 / 13.0 / 13.1 / 13.5 s at
# 1e-14 / 1e-12 / 1e-10 / 1e-8 / 1e-6, with no restart
GRAM_SHIFT = 1e-10
# how far the residual |G(x) - x| of a mix x may grow over that of the last
# iterate kept before the mix is dropped (``Anderson``).  The 2-cell Couette
# (M = 3, CFL 0.475, tol 1e-10), which the unguarded mix heats to theta
# 1.2e24 by step 80, reaches its tolerance in 50 / 90 / 110 steps with
# 6 / 4 / 2 restarts at 2 / 10 / 100, max theta 1.0751 each.  At 10 and
# 100, Couette M = 3 on 20 cells at tol 1e-4 (seeds 1-40 of the benchmark's
# density ripple) keeps its 80 or 90 steps and Couette M = 5 on 80 cells at
# tol 1e-6 its 600, with no restart; at 2 the 8-cell steady Couette at
# M = 5 and Poiseuille at M = 3 restart
RESIDUAL_GROWTH = 10.0
# the kind a number field must be, as an error names it
KINDS = {int: "an integer", float: "a number"}


@dataclass(kw_only=True)
class RunOptions:
    """The options both solvers take, checked at construction.

    ``kn``, ``pr``: Knudsen and Prandtl numbers of the Shakhov collision.
    ``cfl``: fraction of the advective CFL limit used as the time step.
    ``t_end``, ``steady_tol``, ``max_steps``: stop at the end time, at the
    first steady check whose residual is below the tolerance, or after the
    step budget, whichever comes first (see ``march``).
    ``left``, ``right``: ``boundary.WallSpec`` per end, None for a free
    (zero-gradient) boundary; the solver passes each wall map its end.
    ``limiter``: in-cell slopes, one of the class's ``LIMITERS``, here the
    two both solvers have.  ``solver1d.RunConfig`` extends the class with
    its own fields, limiters and default; the discrete-velocity solver runs
    on it as is, whose minmod transport runs at CFL 0.5 at most
    (``cdvm.dv_cfl_timestep`` caps a larger ``cfl``).

    A value under which no step could run, or a number field of the wrong
    kind (``check_kinds``), is a ValueError.  Each test is written ``not (x
    > 0)`` so that NaN fails it too.
    """

    LIMITERS = ("none", "minmod")

    kn: float
    pr: float = 2.0 / 3.0
    cfl: float = 0.95
    t_end: float = None
    steady_tol: float = None
    max_steps: int = 200000
    left: object = None
    right: object = None
    limiter: str = "none"

    def __post_init__(self):
        check_kinds(self)
        if self.t_end is None and self.steady_tol is None:
            raise ValueError("set an end time and/or a steady tolerance")
        for name in ("t_end", "steady_tol"):
            value = getattr(self, name)
            if value is not None and not (value > 0):
                raise ValueError("%s must be positive, got %r" % (name, value))
        if not (self.max_steps > 0):
            raise ValueError("max_steps must be positive, got %r" % (self.max_steps,))
        if not (0.0 < self.cfl <= 1.0):
            raise ValueError("CFL must lie in (0, 1]")
        check_collision(self.kn, self.pr)
        check_choice("limiter", self.limiter, self.LIMITERS)


def is_kind(value, kind):
    """Whether ``value`` is of the number kind ``kind``, int or float: an
    ``Integral`` for an int, a ``Real`` for a float, never a bool."""
    number = numbers.Integral if kind is int else numbers.Real
    return isinstance(value, number) and not isinstance(value, bool)


def kind_name(f):
    """The kind a value of the dataclass field ``f`` must be, as an error
    names it; a tuple field's names its default's length."""
    if f.type is tuple:
        return "a list of numbers of length %d" % len(f.default)
    return KINDS[f.type]


def check_kinds(options):
    """Reject a field of the dataclass ``options`` declared ``int`` or
    ``float`` whose value is not of its kind (``is_kind``), None only where
    the default is None, or declared ``tuple`` whose value is not a sequence
    of the default's length and entry kinds.  The message names the field
    and its kind (``kind_name``)."""
    for f in fields(options):
        value = getattr(options, f.name)
        if f.type is tuple:
            ok = (np.iterable(value) and len(value) == len(f.default)
                  and all(map(is_kind, value, map(type, f.default))))
        elif f.type in KINDS:
            ok = value is None and f.default is None or is_kind(value, f.type)
        else:
            continue
        if not ok:
            raise ValueError("%s must be %s, got %r"
                             % (f.name, kind_name(f), value))


def check_collision(kn, pr):
    """Reject a Knudsen number ``kn`` that is not positive or a Prandtl
    number ``pr`` outside (0, 1]: the collision rules of ``RunOptions``,
    which ``cdvm.dv_step`` applies to the numbers it is given."""
    if not (kn > 0):
        raise ValueError("Knudsen number must be positive")
    if not (0.0 < pr <= 1.0):
        raise ValueError("Prandtl number must lie in (0, 1]")


def check_choice(name, value, choices):
    """Reject option ``name`` unless its ``value`` is one of ``choices``."""
    if value not in choices:
        raise ValueError("%s must be %s or %r, got %r" % (
            name, ", ".join(map(repr, choices[:-1])), choices[-1], value))


def finite_vectors(name, value, cells=()):
    """``value`` as a new float array of shape ``cells`` + (3,): one
    3-vector, or one per cell for ``cells`` (N,).  Another shape, or an
    entry that is not finite (NaN too), is a ValueError naming ``name`` and,
    of a batch, the first cell that fails."""
    v = np.array(value, dtype=float)
    ok = (np.isfinite(v).all(axis=-1) if v.shape == cells + (3,)
          else np.zeros(cells, dtype=bool))
    if not np.all(ok):
        raise ValueError("%s must be a finite 3-vector%s" % (
            name, " in cell %d" % np.argmin(ok) if cells else ""))
    return v


def minmod(a, b, out):
    """minmod(a, b) = max(min(a, b), 0) + min(max(a, b), 0), an exact sum
    as one term is zero, into ``out``, which overlaps neither ``a`` nor
    ``b``; returns ``out``.  One pass with one temporary the size of
    ``out``, which is small: ``cdvm._faces`` passes a block and a cell at
    most (``cdvm.BLOCK``), and ``solver1d._slope`` the slopes of one state,
    27 000 entries on the largest preset (the 500-cell M = 5 shock)."""
    pos = np.minimum(a, b)
    np.maximum(pos, 0.0, out=pos)
    np.minimum(np.maximum(a, b, out=out), 0.0, out=out)
    out += pos
    return out


def require_positive(x, what, where, error=RuntimeError):
    """Raise ``error`` unless every entry of ``x`` is > 0 (NaN fails too).

    The message names ``what`` and the value of the first failing entry,
    and ``where`` formatted with its index: the cell or interface and the
    phase, as in "in cell %d in collision".
    """
    if not np.all(x > 0):
        i = int(np.flatnonzero(~(x > 0))[0])
        raise error(
            "non-positive or non-finite %s (%r) %s" % (what, float(x[i]), where % i)
        )


def check_slab(y_lo, y_hi, rho, u, theta, mirrored=()):
    """Reject, with a ValueError, a slab state of both solvers that no step
    may start from: an empty or infinite domain [``y_lo``, ``y_hi``], a
    density ``rho`` or temperature ``theta`` per cell that is not positive
    and finite (``require_positive``), or a velocity ``u`` that is not a
    finite 3-vector in every cell (``finite_vectors``) or is nonzero along a
    ``mirrored`` velocity axis, of which the state stores one half."""
    if not (y_hi > y_lo):
        raise ValueError("empty domain")
    if not math.isfinite(y_hi - y_lo):
        raise ValueError("infinite domain")
    require_positive(np.asarray(rho), "density", "in cell %d", ValueError)
    require_positive(np.asarray(theta), "temperature", "in cell %d", ValueError)
    u = finite_vectors("velocity u", u, np.shape(rho))
    for d in mirrored:
        if np.any(u[:, d] != 0.0):
            raise ValueError("velocity u%d must be zero along a mirrored "
                             "velocity axis" % (d + 1))


def initial_fields(y_lo, y_hi, rho, u, theta, mirrored=()):
    """The fields of a slab state of ``len(rho)`` cells as float arrays:
    ``rho`` (N,), ``u`` broadcast to (N, 3) and ``theta`` to (N,), checked
    by ``check_slab``."""
    rho = np.asarray(rho, dtype=float)
    u = np.broadcast_to(np.asarray(u, dtype=float), rho.shape + (3,))
    theta = np.broadcast_to(np.asarray(theta, dtype=float), rho.shape)
    check_slab(y_lo, y_hi, rho, u, theta, mirrored)
    return rho, u, theta


class Slab:
    """The cells of a slab state on [``y_lo``, ``y_hi``], ``n`` of them, all
    three given by the state: the cell width ``dx`` and centres
    ``centers``."""

    @property
    def dx(self):
        return (self.y_hi - self.y_lo) / self.n

    @property
    def centers(self):
        return self.y_lo + (np.arange(self.n) + 0.5) * self.dx


def mirror_breaker(d, force, walls):
    """The option that breaks the mirror symmetry xi_d -> -xi_d of a slab
    run along velocity axis ``d`` (0 or 2), named "force[d]" or
    "u_wall_<side>[d]", or None.  ``walls`` are the left and right
    ``WallSpec`` (None at a free end).  Without a body force or wall
    velocity along axis d, a state that is even in xi_d - its mean velocity
    u_d zero - stays so: the NRxx moments keep their odd orders along a_d
    zero, the discrete-velocity values f(xi_d) = f(-xi_d)."""
    if force[d] != 0.0:
        return "force[%d]" % d
    for side, wall in zip(("left", "right"), walls):
        if wall is not None and wall.u_wall[d] != 0.0:
            return "u_wall_%s[%d]" % (side, d)
    return None


def require_mirror(axes, force, walls):
    """Raise a ValueError naming the option (``mirror_breaker``) that breaks
    the mirror symmetry along one of the velocity ``axes``, those of which
    a state stores one half."""
    for d in axes:
        name = mirror_breaker(d, force, walls)
        if name:
            raise ValueError(
                "%s is nonzero, which breaks the mirror symmetry xi_%d -> "
                "-xi_%d of a state that stores one half of that axis"
                % (name, d + 1, d + 1))


class Anderson:
    """Type-II Anderson mixing of a fixed-point map x -> G(x) on vectors of
    length ``n`` (D. G. Anderson, J. ACM 12 (1965); H. F. Walker and P. Ni,
    SIAM J. Numer. Anal. 49 (2011)).

    ``mix(x, g)`` takes an iterate x and g = G(x) and returns the next
    iterate g - dG gamma, where the columns of dF and dG are the differences
    of the last ``WINDOW`` residuals f = G(x) - x and images g, and gamma
    minimizes |f - dF gamma|.  The weights of the images sum to 1, so the
    mix is affine: it keeps every linear constraint that all images keep.
    The differences live in preallocated (window, n) arrays used as a ring,
    their Gram matrix gains one row and column per call, its diagonal
    raised by the fraction ``GRAM_SHIFT``, and gamma solves the window-size
    normal equations.  Without a column the mix is g itself.
    ``restart(g)`` drops every column, counts the restart in ``restarts``
    and returns g; ``mix`` restarts so when the solve fails or gives a
    non-finite gamma (a zero difference of residuals makes it singular).

    The mix is safeguarded (J. Zhang, B. O'Donoghue and S. Boyd, SIAM J.
    Optim. 30 (2020)): an x that ``mix`` returned is kept only while its
    residual |f| stays within ``RESIDUAL_GROWTH`` times that of the last
    iterate kept (a NaN residual does not).  Otherwise ``mix`` drops x and
    restarts with that iterate's image, a plain step from it.
    """

    def __init__(self, n):
        self.df = np.empty((WINDOW, n))
        self.dg = np.empty((WINDOW, n))
        self.gram = np.empty((WINDOW, WINDOW))
        self.columns = self.slot = self.restarts = 0
        self.f = self.g = self.norm = None
        self.mixed = False

    def restart(self, g):
        self.columns = self.slot = 0
        self.restarts += 1
        self.mixed = False
        return g

    def mix(self, x, g):
        f = g - x
        norm = math.sqrt(f @ f)
        if self.mixed and not (norm <= RESIDUAL_GROWTH * self.norm):
            return self.restart(self.g)
        self.norm = norm
        if self.f is not None:
            s = self.slot
            np.subtract(f, self.f, out=self.df[s])
            np.subtract(g, self.g, out=self.dg[s])
            self.columns = min(self.columns + 1, WINDOW)
            self.slot = (s + 1) % WINDOW
            row = self.df[:self.columns] @ self.df[s]
            row[s] *= 1.0 + GRAM_SHIFT
            self.gram[s, :self.columns] = row
            self.gram[:self.columns, s] = row
        self.f, self.g = f, g
        k = self.columns
        if k == 0:
            return g
        try:
            gamma = np.linalg.solve(self.gram[:k, :k], self.df[:k] @ f)
        except np.linalg.LinAlgError:
            return self.restart(g)
        if not math.isfinite(gamma.sum()):
            return self.restart(g)
        self.mixed = True
        return g - gamma @ self.dg[:k]


@dataclass
class RunResult:
    """The time reached, the step count, the dt of every step, the residual
    of every check, the (t, table) snapshots and the Anderson window
    restarts (0 for a run that does not mix).
    ``converged`` is False only when the step budget stopped the run: a run
    that reaches its end time or its steady tolerance converged."""

    t: float
    steps: int
    dt_history: np.ndarray
    residual_history: np.ndarray
    snapshots: list
    converged: bool
    message: str
    restarts: int


def march(state, config, timestep, advance, table, snapshot_interval=0,
          on_step=None, vector=None):
    """March ``state`` to the stop set by ``config``; returns a ``RunResult``.

    ``timestep()`` gives the CFL dt, ``advance(dt)`` moves ``state`` in
    place and ``table()`` builds its snapshot table.  The table is also kept
    every ``snapshot_interval`` steps (0: never), and always at the end.
    ``on_step(t, state)`` is called after every step.  ``converged`` is
    False only when ``max_steps`` stopped the run.  A step whose dt would
    not advance t raises; a ``steady_tol`` below about ``RESIDUAL_FLOOR``
    can be unreachable (see the module docstring for both).

    ``vector``, if given, is a pair ``(get, put)``: ``get()`` returns the
    state as a new flat vector, and ``put(x)`` sets the state to ``x`` and
    returns True, or returns False and leaves the state as it is when ``x``
    is not a valid state (a non-positive density or temperature).  A run
    with ``steady_tol`` set and ``t_end`` None then mixes: after each step
    the new state g = G(x) of the step map G is replaced by the ``Anderson``
    mix of the recent steps, put back with ``put``.  ``t`` sums the steps'
    dt and is a pseudo-time there, and the steady residual keeps its
    meaning: every ``CHECK_EVERY`` steps, the change of the table over that
    pseudo-time.  When ``put`` rejects a mix, the state stays g and the
    window restarts; when the step from a mix grows the residual too much,
    the state goes back to a plain step and the window restarts too
    (``Anderson``).  ``RunResult.restarts`` counts the restarts.  A run
    with ``t_end`` set never calls ``get`` or ``put`` and marches plainly.

    The discrete-velocity solver passes no pair.  Mixing its node values
    makes some of them negative, which the collision reports (a 12^3 x 8
    Couette at tol 1e-6, window 30: 670 -> 60 steps, nodes down to -5.6e-6
    and 34 warnings); with a restart on any negative node nearly every mix
    is rejected (560 steps, 543 restarts).
    """
    t_end = math.inf if config.t_end is None else config.t_end
    steady = config.steady_tol is not None
    t, steps = 0.0, 0
    dts, residuals, snapshots = [], [], []
    at_steady = False
    if steady:
        prev, t_prev = table()[:, 1:], 0.0
    mixer = None
    if vector is not None and steady and config.t_end is None:
        get, put = vector
        x = get()
        mixer = Anderson(x.size)
    while not at_steady and t < t_end and steps < config.max_steps:
        dt = timestep()
        if t + dt > t_end:
            dt = t_end - t
        if not (t + dt > t):
            raise RuntimeError("step %d does not advance the time: dt = %.3g "
                               "at t = %.17g" % (steps + 1, dt, t))
        advance(dt)
        t += dt
        steps += 1
        dts.append(dt)
        if mixer is not None:
            g = get()
            x = mixer.mix(x, g)
            if x is not g and not put(x):
                x = mixer.restart(g)
        if steady and steps % CHECK_EVERY == 0:
            cur = table()[:, 1:]
            change = np.abs(cur - prev) / (np.abs(prev) + RESIDUAL_FLOOR)
            residuals.append(float(np.max(change)) / (t - t_prev))
            prev, t_prev = cur, t
            at_steady = residuals[-1] < config.steady_tol
        if on_step is not None:
            on_step(t, state)
        if snapshot_interval and steps % snapshot_interval == 0:
            snapshots.append((t, table()))
    converged = at_steady or t >= t_end
    if at_steady:
        message = "steady state reached"
    elif converged:
        message = "reached end time"
    else:
        message = "step budget exhausted before reaching %s" % (
            "steady state" if steady else "end time")
    snapshots.append((t, table()))
    return RunResult(t, steps, np.asarray(dts), np.asarray(residuals),
                     snapshots, converged, message,
                     0 if mixer is None else mixer.restarts)
