"""What both slab solvers share: the run options ``RunOptions``, declared
and checked once (``solver1d.RunConfig`` and ``cdvm.DvRunConfig`` add their
own), the loop ``march``, ``check_choice``, the slope limiter ``minmod`` and
``require_positive``, whose message names the quantity, the value, the cell
and the phase.  This module imports no solver.

A solver passes ``march`` its state and three callables: the CFL time step,
an in-place advance by a given dt, and the snapshot table of the current
state (``moments.SNAPSHOT_COLUMNS`` layout).  The loop stops at ``t_end``
(the last step is clipped to hit it), at steady state, or after
``max_steps`` steps, whichever comes first; only the last is reported as not
converged.

The steady residual is defined once, on the snapshot table: every
``CHECK_EVERY`` = 10 steps, and only when ``steady_tol`` is set, the max
over cells and columns but y of |cur - prev| / (|prev| + 1e-8), divided by
the time since the previous check (the initial state for the first).  The
check is sparse because one discrete-velocity table costs about a third of
a discrete-velocity step.
"""

import math
import numbers
from dataclasses import dataclass, fields

import numpy as np

from .boundary import WallSpec

CHECK_EVERY = 10
RESIDUAL_FLOOR = 1e-8
# entries per block of ``minmod`` and of the two sub-steps of a
# discrete-velocity step, which work on one block while it is in cache and
# keep no state-sized temporary (2^15 and 2^16 took the same time, and the
# smaller block the smaller peak); a mask in place of minmod's blocks
# (ufuncs with where=) ran 30-40x slower
BLOCK = 1 << 15
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
    ``left``, ``right``: wall specification per end, None for a free
    (zero-gradient) boundary; the solver passes each wall map its end.

    A value under which no step could run, or a number field of the wrong
    kind (``check_kinds``), is a ValueError.  Each test is written ``not (x
    > 0)`` so that NaN fails it too.
    """

    kn: float
    pr: float = 2.0 / 3.0
    cfl: float = 0.95
    t_end: float = None
    steady_tol: float = None
    max_steps: int = 200000
    left: WallSpec = None
    right: WallSpec = None

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
        if not (self.kn > 0):
            raise ValueError("Knudsen number must be positive")
        if not (0.0 < self.pr <= 1.0):
            raise ValueError("Prandtl number must lie in (0, 1]")


def is_kind(value, kind):
    """Whether ``value`` is of the number kind ``kind``, int or float: an
    ``Integral`` for an int, a ``Real`` for a float, never a bool."""
    number = numbers.Integral if kind is int else numbers.Real
    return isinstance(value, number) and not isinstance(value, bool)


def check_kinds(options):
    """Reject a field of the dataclass ``options`` declared ``int`` or
    ``float`` whose value is not of its kind (``is_kind``), None only where
    the default is None.  The message names the field."""
    for f in fields(options):
        if f.type in KINDS:
            value = getattr(options, f.name)
            if not (value is None and f.default is None or is_kind(value, f.type)):
                raise ValueError("%s must be %s, got %r"
                                 % (f.name, KINDS[f.type], value))


def check_choice(name, value, choices):
    """Reject option ``name`` unless its ``value`` is one of ``choices``."""
    if value not in choices:
        raise ValueError("%s must be %s or %r, got %r" % (
            name, ", ".join(map(repr, choices[:-1])), choices[-1], value))


def minmod(a, b, out):
    """minmod(a, b) = max(min(a, b), 0) + min(max(a, b), 0), an exact sum
    as one term is zero, into ``out``, which overlaps neither ``a`` nor
    ``b``; returns ``out``.  Taken in blocks of rows along the first axis of
    about ``BLOCK`` entries, each with one temporary."""
    rows = max(1, BLOCK // out[0].size)
    for i in range(0, len(out), rows):
        x, y, o = a[i:i + rows], b[i:i + rows], out[i:i + rows]
        pos = np.minimum(x, y)
        np.maximum(pos, 0.0, out=pos)
        np.minimum(np.maximum(x, y, out=o), 0.0, out=o)
        o += pos
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


@dataclass
class RunResult:
    """The time reached, the step count, the dt of every step, the residual
    of every check and the (t, table) snapshots.
    ``converged`` is False only when the step budget stopped the run: a run
    that reaches its end time or its steady tolerance converged."""

    t: float
    steps: int
    dt_history: np.ndarray
    residual_history: np.ndarray
    snapshots: list
    converged: bool
    message: str


def march(state, config, timestep, advance, table, snapshot_interval=0,
          on_step=None):
    """March ``state`` to the stop set by ``config``; returns a ``RunResult``.

    ``timestep()`` gives the CFL dt, ``advance(dt)`` moves ``state`` in
    place and ``table()`` builds its snapshot table.  The table is also kept
    every ``snapshot_interval`` steps (0: never), and always at the end.
    ``on_step(t, state)`` is called after every step.  ``converged`` is
    False only when ``max_steps`` stopped the run.
    """
    t_end = math.inf if config.t_end is None else config.t_end
    steady = config.steady_tol is not None
    t, steps = 0.0, 0
    dts, residuals, snapshots = [], [], []
    at_steady = False
    if steady:
        prev, t_prev = table()[:, 1:], 0.0
    while not at_steady and t < t_end and steps < config.max_steps:
        dt = timestep()
        if t + dt > t_end:
            dt = t_end - t
        advance(dt)
        t += dt
        steps += 1
        dts.append(dt)
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
                     snapshots, converged, message)
