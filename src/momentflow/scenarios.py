"""Benchmark scenario presets and flat-file configuration.

Three canonical slab flows drive the validation story:

  * ``shock``      -- drift against a diffusive wall on [-5, 0]; the reflected
                      front steepens into a shock, stopped at t = 1.
  * ``couette``    -- counter-moving tangential walls at +-0.6296 on
                      [-0.5, 0.5], run to steady state.
  * ``poiseuille`` -- stationary walls with a constant body force along x,
                      run to steady state.

All presets use fully diffuse walls (chi = 1) at unit wall temperature and
CFL 0.95, except that minmod discrete-velocity transport runs at CFL 0.5
(``cdvm.dv_cfl_timestep`` caps it), so the cdvm shock runs at 0.5; every
field can be overridden.  ``limiter`` is read by whichever solver runs; left
unset it becomes that solver's default (NRxx "central", cdvm "none"), and
the shock sets "minmod" for both.  A ``ScenarioConfig`` rejects a bad
value when it is built, whether in code, from flags or from a file, by
the rules of ``march`` that both solvers share, whichever solver runs, and
with a message that names the key.  Configs round-trip through a flat
``key = value`` text format with section headers (configparser syntax) so
a run is reproducible from a single diffable file.  A key is a
``ScenarioConfig`` field, read from its text by its declared type
(``parse_value``, as the CLI's flags are); any other key fails as an
"unknown config key".  ``solve`` runs a config with the solver it names.
"""

import configparser
from dataclasses import dataclass, fields

import numpy as np

from . import cdvm, solver1d
from .boundary import WallSpec
from .march import (RunOptions, check_choice, check_kinds, check_slab,
                    kind_name, mirror_breaker)

SOLVERS = ("nrxx", "cdvm")

COUETTE_WALL_SPEED = 0.6296
POISEUILLE_FORCE = 0.2555


@dataclass
class ScenarioConfig:
    """One run: scenario, solver, the options of both solvers and the
    initial state.  A default that a solver class declares is read from it;
    an unset ``limiter`` is the running solver's.  Every field is checked at
    construction, whichever solver runs; the initial state is checked as
    one cell, which mirrors no axis (``march.check_slab``)."""

    scenario: str = "custom"
    solver: str = "nrxx"
    M: int = 5
    kn: float = 0.1
    pr: float = RunOptions.pr
    chi: float = WallSpec.chi
    cfl: float = RunOptions.cfl
    cells: int = 100
    y_lo: float = -0.5
    y_hi: float = 0.5
    rho0: float = 1.0
    u0: tuple = (0.0, 0.0, 0.0)
    theta0: float = 1.0
    left_kind: str = "wall"            # "wall" | "free"
    right_kind: str = "wall"
    u_wall_left: tuple = (0.0, 0.0, 0.0)
    u_wall_right: tuple = (0.0, 0.0, 0.0)
    theta_wall_left: float = WallSpec.theta_wall
    theta_wall_right: float = WallSpec.theta_wall
    force: tuple = (0.0, 0.0, 0.0)
    t_end: float = RunOptions.t_end
    steady_tol: float = RunOptions.steady_tol
    max_steps: int = RunOptions.max_steps
    limiter: str = None                # None: the running solver's default
    dv_half_width: float = 8.0
    dv_nodes: tuple = (32, 32, 32)
    out_dir: str = "."
    snapshot_interval: int = 0         # 0: final table only

    def __post_init__(self):
        check_choice("scenario", self.scenario, SCENARIOS)
        check_choice("solver", self.solver, SOLVERS)
        if self.limiter is None:
            self.limiter = (RunOptions if self.solver == "cdvm"
                            else solver1d.RunConfig).limiter
        for kind in ("left_kind", "right_kind"):
            check_choice(kind, getattr(self, kind), ("wall", "free"))
        check_kinds(self)
        to_run_config(self)
        check_slab(self.y_lo, self.y_hi, [self.rho0], [self.u0], [self.theta0])
        if self.cells < 2:
            raise ValueError("need at least 2 cells")
        if self.snapshot_interval < 0:
            raise ValueError("snapshot_interval must be non-negative, got %r"
                             % (self.snapshot_interval,))
        cdvm.check_grid(self.dv_half_width, tuple(self.dv_nodes))
        if self.solver == "cdvm":
            to_dv_config(self)

    def wall(self, side):
        """The ``WallSpec`` at end ``side``, None at a free end."""
        if getattr(self, side + "_kind") == "free":
            return None
        return WallSpec(self.chi, getattr(self, "u_wall_" + side),
                        getattr(self, "theta_wall_" + side))


_PRESETS = {
    "shock": dict(
        y_lo=-5.0,
        y_hi=0.0,
        u0=(0.0, 0.5, 0.0),
        kn=0.5,
        left_kind="free",
        right_kind="wall",
        t_end=1.0,
        cells=500,
        limiter="minmod",
        dv_half_width=10.0,
    ),
    "couette": dict(
        y_lo=-0.5,
        y_hi=0.5,
        kn=0.1,
        u_wall_left=(-COUETTE_WALL_SPEED, 0.0, 0.0),
        u_wall_right=(COUETTE_WALL_SPEED, 0.0, 0.0),
        steady_tol=1e-6,
        cells=100,
    ),
    "poiseuille": dict(
        y_lo=-0.5,
        y_hi=0.5,
        kn=0.1,
        force=(POISEUILLE_FORCE, 0.0, 0.0),
        steady_tol=1e-6,
        cells=100,
    ),
    "custom": {},
}
SCENARIOS = tuple(_PRESETS)


def preset(scenario, **overrides):
    """Fully populated config for a named scenario, with overrides applied."""
    return ScenarioConfig(scenario=scenario,
                          **{**_PRESETS.get(scenario, {}), **overrides})


def _run_options(sc):
    """The run options both solvers take from a scenario: the collision,
    the stop and the walls."""
    return dict(kn=sc.kn, pr=sc.pr, cfl=sc.cfl, t_end=sc.t_end,
                steady_tol=sc.steady_tol, max_steps=sc.max_steps,
                left=sc.wall("left"), right=sc.wall("right"))


def to_run_config(sc):
    return solver1d.RunConfig(M=sc.M, force=sc.force, limiter=sc.limiter,
                              **_run_options(sc))


def mirrored_axes(sc):
    """The velocity axes d (0, 2) along which the run keeps xi_d -> -xi_d
    symmetric: zero initial velocity ``u0[d]`` and no force or wall velocity
    along d (``march.mirror_breaker``).  Both solvers store one half of such
    an axis.  The shock mirrors both, Couette and Poiseuille axis 2."""
    walls = sc.wall("left"), sc.wall("right")
    return tuple(d for d in (0, 2)
                 if sc.u0[d] == 0.0 and not mirror_breaker(d, sc.force, walls))


def build_grid(sc):
    """Initial NRxx grid of local Maxwellians, built in the layout of the
    run: the even orders alone along a1 and a3 on ``mirrored_axes``, which
    holds a Maxwellian cube whole since it is even on every axis."""
    rho = np.full(sc.cells, sc.rho0)
    return solver1d.Grid1D.from_fields(sc.y_lo, sc.y_hi, rho, sc.u0, sc.theta0,
                                       sc.M, mirrored_axes(sc))


def to_dv_config(sc):
    if np.any(np.asarray(sc.force, dtype=float) != 0.0):
        raise ValueError("the cdvm solver has no body force term; "
                         "force must be zero, got %r" % (sc.force,))
    return RunOptions(limiter=sc.limiter, **_run_options(sc))


def build_dv_field(sc):
    """Initial discrete-velocity field of local Maxwellians, storing the
    xi_d >= 0 half of each of the ``mirrored_axes``."""
    grid = cdvm.DvGrid(sc.dv_half_width, tuple(sc.dv_nodes), mirrored_axes(sc))
    rho = np.full(sc.cells, sc.rho0)
    return cdvm.DvField.from_fields(grid, sc.y_lo, sc.y_hi, rho, sc.u0, sc.theta0)


def solve(sc):
    """Build the state and run config of ``sc.solver`` and march them to
    the configured stop; returns the ``march.RunResult``."""
    if sc.solver == "cdvm":
        state, config, run = build_dv_field(sc), to_dv_config(sc), cdvm.dv_run
    else:
        state, config, run = build_grid(sc), to_run_config(sc), solver1d.run
    return run(state, config, snapshot_interval=sc.snapshot_interval)


def parse_value(f, text):
    """The value of field ``f`` written as ``text`` in a config file or a
    run flag of the CLI; a tuple's entries take the type of its default's
    entries.  "none" (or nothing) is None.  Text that does not convert is a
    ValueError naming the key and the kind; the value itself is checked
    when the config is built (``check_kinds``)."""
    text = text.strip()
    if f.type is str:
        # "none" is a legal literal for limiter-style options, so string
        # fields never collapse to None
        return text
    if text.lower() in ("none", ""):
        return None
    try:
        if f.type is tuple:
            return tuple(map(type(f.default[0]), text.replace(",", " ").split()))
        return f.type(text)
    except ValueError:
        raise ValueError("%s must be %s, got %r"
                         % (f.name, kind_name(f), text)) from None


def _config_parser():
    """A parser that keeps key case (M vs m) and reads every value as
    written, so that a '%' in one (an out_dir, say) is not interpolation."""
    cp = configparser.ConfigParser(interpolation=None)
    cp.optionxform = str
    return cp


def save_config(sc, path):
    """Write the config as flat key = value text (section [run])."""
    cp = _config_parser()
    cp["run"] = {}
    for f in fields(sc):
        val = getattr(sc, f.name)
        if val is None:
            text = "none"
        elif f.type is tuple:
            text = " ".join(repr(v) for v in val)
        else:
            text = val if f.type is str else repr(val)
        cp["run"][f.name] = text
    with open(path, "w") as fh:
        cp.write(fh)


def load_config(path, **overrides):
    """Read a flat config file (none for ``path`` None) onto its scenario's
    preset, then apply ``overrides``; unknown keys are an error."""
    cp = _config_parser()
    if path is not None:
        with open(path) as fh:
            cp.read_file(fh)
    known = {f.name: f for f in fields(ScenarioConfig)}
    params = {}
    for section in cp.sections():
        for key, text in cp[section].items():
            if key not in known:
                raise ValueError("unknown config key %r" % key)
            params[key] = parse_value(known[key], text)
    params.update(overrides)
    return preset(params.pop("scenario", "custom"), **params)
