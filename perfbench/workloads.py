"""Benchmark workloads: seeded inputs, one timed solve, and the correctness gate.

Importing this module imports numpy and ``momentflow``; the caller pins the
BLAS/OpenMP thread counts and puts the checkout's ``src`` on ``sys.path``
first (see ``run.py``).  Everything here drives ``momentflow`` through its
public constructors and functions, looked up on the module at call time so
that ``tracing.Tracer`` can wrap them.

Why these three workloads (README.md has the longer version):

* ``couette-m3-steady`` -- small cubes and two walls, run to the steady
  tolerance: per-call overhead, the wall ghosts and the marching loop with
  its residual carry most of the cost.  The only workload whose step count
  depends on the stop rule.
* ``shock-m10`` -- dense K^3 arithmetic (projection, reconstruction, HLL)
  with one wall, a free inflow boundary, a minmod limiter and u2 != 0 in the
  transient; an optimisation that relies on u2 == 0 or on two walls shows
  its cost here.
* ``dvm-couette`` -- the discrete-velocity reference for a fixed number of
  steps: only ``cdvm`` runs, every NRxx layer is idle.
"""

import contextlib
import copy
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from momentflow import cdvm, moments, scenarios, solver1d

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Relative amplitude of the seeded, zero-mean density perturbation of the
# initial state.  Small enough that every seed shares one reference table
# (measured effect on the final tables: below 1e-9 of a column's scale on
# the shock, whose minmod switches amplify it most, and below 1e-12 on the
# others), large enough to change the low bits of every run.
PERTURBATION = 1e-12

# Walls carry no mass flux, so total mass may drift only by round-off.
MASS_RTOL = 1e-11


@dataclass(frozen=True)
class Workload:
    """One benchmark input: a scenario preset plus the run's size.

    ``dv_steps`` > 0 marks a discrete-velocity run of that many steps;
    otherwise the NRxx solver runs to the preset's stop condition.  The
    final table must match the reference within ``atol + rtol * scale``,
    with ``scale`` the largest magnitude in the reference column.
    """

    name: str
    scenario: str
    overrides: dict
    rtol: float
    atol: float
    dv_steps: int = 0
    steady: bool = False
    mass_check: bool = False

    def config(self):
        return scenarios.preset(self.scenario, **self.overrides)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="couette-m3-steady",
            scenario="couette",
            overrides=dict(M=3, cells=20, steady_tol=1e-4),
            # the run stops anywhere inside steady_tol: stopping at a 100x
            # tighter tolerance moves the table by up to 1e-7
            rtol=1e-6,
            atol=1e-6,
            steady=True,
            mass_check=True,
        ),
        Workload(
            name="shock-m10",
            scenario="shock",
            overrides=dict(M=10, cells=40),
            rtol=1e-6,
            atol=1e-8,
        ),
        Workload(
            name="dvm-couette",
            scenario="couette",
            overrides=dict(solver="cdvm", cells=50, dv_nodes=(24, 24, 24)),
            rtol=1e-8,
            atol=1e-10,
            dv_steps=25,
            mass_check=True,
        ),
    )
}


@dataclass
class Prepared:
    """A workload's seeded initial state, run config and reference table."""

    workload: Workload
    config: object
    initial: object
    reference: object


@dataclass
class Outcome:
    """One solve: its final state, step timestamps and stop status."""

    state: object
    steps: int
    wall_s: float
    stamps: list
    converged: bool
    mass0: float

    @property
    def step_s(self):
        return np.diff(self.stamps)


def reference_path(name):
    return REFERENCE_DIR / ("%s.csv" % name)


def load_reference(name):
    return np.loadtxt(reference_path(name), delimiter=",", skiprows=1, ndmin=2)


def initial_state(workload, seed, amplitude=PERTURBATION):
    """Preset initial state with a seeded, mass-preserving density ripple."""
    sc = workload.config()
    r = np.random.default_rng(seed).standard_normal(sc.cells)
    scale = 1.0 + amplitude * (r - r.mean())
    if workload.dv_steps:
        state = scenarios.build_dv_field(sc)
        state.values *= scale[:, None, None, None]
        return scenarios.to_dv_config(sc), state
    state = scenarios.build_grid(sc)
    state.coeffs[:, 0, 0, 0] *= scale
    return scenarios.to_run_config(sc), state


def prepare(workload, seed, reference):
    """Config, grid build and one warm-up step that fills the lookup caches."""
    config, state = initial_state(workload, seed)
    prepared = Prepared(workload, config, state, reference)
    warm = copy.deepcopy(state)
    if workload.dv_steps:
        _dv_advance(warm, config)
    else:
        solver1d.step(warm, config)
    return prepared


def _dv_advance(field, config):
    dt = cdvm.dv_cfl_timestep(field, config.cfl, config.limiter)
    cdvm.dv_step(field, dt, config.left, config.right, config.kn, config.pr,
                 config.limiter)


def total_mass(workload, state):
    if workload.dv_steps:
        return float(np.sum(state.moments()["rho"]) * state.dx)
    return state.total_mass()


def final_table(workload, state):
    if workload.dv_steps:
        return cdvm.dv_snapshot_table(state)
    return moments.snapshot_table(state.centers, state.u, state.theta,
                                   state.coeffs)


def solve(prepared, tracer=None):
    """Run the workload once from a fresh copy of its initial state.

    Only the march is timed, and only the march runs under ``tracer``.
    """
    wl, config = prepared.workload, prepared.config
    state = copy.deepcopy(prepared.initial)
    mass0 = total_mass(wl, state)
    clock = time.perf_counter
    stamps = []
    with tracer.installed() if tracer else contextlib.nullcontext():
        stamps.append(clock())
        if wl.dv_steps:
            for _ in range(wl.dv_steps):
                _dv_advance(state, config)
                stamps.append(clock())
            steps, converged = wl.dv_steps, True
        else:
            result = solver1d.run(
                state, config, on_step=lambda t, grid: stamps.append(clock())
            )
            steps, converged = result.steps, result.converged
        wall = clock() - stamps[0]
    return Outcome(state, steps, wall, stamps, converged, mass0)


def reference_table(workload):
    """Final table of the unperturbed input: what ``reference/`` holds."""
    config, state = initial_state(workload, 0, amplitude=0.0)
    outcome = solve(Prepared(workload, config, state, None))
    return final_table(workload, outcome.state)


def check(prepared, outcome):
    """Correctness gate of one solve: a list of problems, empty if it passed.

    Finiteness is checked on the final table itself, never inferred from
    the solver's ``converged`` flag or message.
    """
    wl = prepared.workload
    problems = []
    table = final_table(wl, outcome.state)
    if not np.all(np.isfinite(table)):
        return ["non-finite values in the final snapshot table"]
    if wl.steady and not outcome.converged:
        problems.append("did not reach the steady tolerance")
    if wl.mass_check:
        drift = abs(total_mass(wl, outcome.state) - outcome.mass0) / outcome.mass0
        if drift > MASS_RTOL:
            problems.append("total mass drifted by %.3e (relative)" % drift)
    ref = prepared.reference
    if ref is not None:
        if table.shape != ref.shape:
            problems.append("final table shape %s, reference %s"
                            % (table.shape, ref.shape))
        else:
            scale = np.max(np.abs(ref), axis=0)
            excess = np.abs(table - ref) - (wl.atol + wl.rtol * scale)
            if np.any(excess > 0):
                col = int(np.argmax(np.max(excess, axis=0)))
                problems.append(
                    "final table differs from the reference in column %d by %.3e"
                    % (col, float(np.max(np.abs(table - ref)[:, col])))
                )
    return problems
