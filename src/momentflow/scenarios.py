"""Benchmark scenario presets and flat-file configuration.

Three canonical slab flows drive the validation story:

  * ``shock``      -- drift against a diffusive wall on [-5, 0]; the reflected
                      front steepens into a shock, stopped at t = 1.
  * ``couette``    -- counter-moving tangential walls at +-0.6296 on
                      [-0.5, 0.5], run to steady state.
  * ``poiseuille`` -- stationary walls with a constant body force along x,
                      run to steady state.

All presets use fully diffuse walls (chi = 1) at unit wall temperature and
CFL 0.95; every field can be overridden.  Configs round-trip through a flat
``key = value`` text format with section headers (configparser syntax) so a
run is reproducible from a single diffable file.
"""

import configparser
from dataclasses import dataclass, fields

import numpy as np

from .boundary import WallSpec
from .cdvm import DvField, DvGrid, DvRunConfig
from .solver1d import Grid1D, RunConfig

SCENARIOS = ("shock", "couette", "poiseuille", "custom")
SOLVERS = ("nrxx", "cdvm")

COUETTE_WALL_SPEED = 0.6296
POISEUILLE_FORCE = 0.2555


@dataclass
class ScenarioConfig:
    scenario: str = "custom"
    solver: str = "nrxx"
    M: int = 5
    kn: float = 0.1
    pr: float = 2.0 / 3.0
    chi: float = 1.0
    cfl: float = 0.95
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
    theta_wall_left: float = 1.0
    theta_wall_right: float = 1.0
    force: tuple = (0.0, 0.0, 0.0)
    t_end: float = None
    steady_tol: float = None
    max_steps: int = 200000
    limiter: str = "central"
    splitting: str = "lie"
    signal_speed_factor: float = 1.2
    dv_half_width: float = 8.0
    dv_nodes: tuple = (32, 32, 32)
    dv_limiter: str = "none"
    out_dir: str = "."
    snapshot_interval: int = 0

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ValueError("unknown scenario %r" % (self.scenario,))
        if self.solver not in SOLVERS:
            raise ValueError("unknown solver %r" % (self.solver,))
        if self.left_kind not in ("wall", "free") or self.right_kind not in (
            "wall",
            "free",
        ):
            raise ValueError("boundary kinds must be 'wall' or 'free'")
        if self.cells < 2:
            raise ValueError("need at least 2 cells")

    def wall(self, side):
        kind = self.left_kind if side == "left" else self.right_kind
        if kind == "free":
            return None
        u = self.u_wall_left if side == "left" else self.u_wall_right
        th = self.theta_wall_left if side == "left" else self.theta_wall_right
        return WallSpec(self.chi, np.asarray(u, dtype=float), th, side)


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
        dv_limiter="minmod",
        dv_half_width=10.0,
        scenario="shock",
    ),
    "couette": dict(
        y_lo=-0.5,
        y_hi=0.5,
        kn=0.1,
        u_wall_left=(-COUETTE_WALL_SPEED, 0.0, 0.0),
        u_wall_right=(COUETTE_WALL_SPEED, 0.0, 0.0),
        steady_tol=1e-6,
        cells=100,
        scenario="couette",
    ),
    "poiseuille": dict(
        y_lo=-0.5,
        y_hi=0.5,
        kn=0.1,
        force=(POISEUILLE_FORCE, 0.0, 0.0),
        steady_tol=1e-6,
        cells=100,
        scenario="poiseuille",
    ),
    "custom": dict(scenario="custom"),
}


def preset(scenario, **overrides):
    """Fully populated config for a named scenario, with overrides applied."""
    if scenario not in _PRESETS:
        raise ValueError("unknown scenario %r" % (scenario,))
    params = dict(_PRESETS[scenario])
    params.update(overrides)
    return ScenarioConfig(**params)


def to_run_config(sc):
    return RunConfig(
        M=sc.M,
        kn=sc.kn,
        pr=sc.pr,
        cfl=sc.cfl,
        t_end=sc.t_end,
        steady_tol=sc.steady_tol,
        max_steps=sc.max_steps,
        left=sc.wall("left"),
        right=sc.wall("right"),
        force=np.asarray(sc.force, dtype=float),
        splitting=sc.splitting,
        limiter=sc.limiter,
        signal_speed_factor=sc.signal_speed_factor,
        scenario=sc.scenario,
    )


def build_grid(sc):
    rho = np.full(sc.cells, sc.rho0)
    return Grid1D.from_fields(sc.y_lo, sc.y_hi, rho, sc.u0, sc.theta0, sc.M)


def to_dv_config(sc):
    if np.any(np.asarray(sc.force, dtype=float) != 0.0):
        raise ValueError("the cdvm solver has no body force term; "
                         "force must be zero, got %r" % (sc.force,))
    return DvRunConfig(
        kn=sc.kn,
        pr=sc.pr,
        cfl=sc.cfl,
        t_end=sc.t_end,
        steady_tol=sc.steady_tol,
        max_steps=sc.max_steps,
        left=sc.wall("left"),
        right=sc.wall("right"),
        limiter=sc.dv_limiter,
    )


def build_dv_field(sc):
    if len(set(sc.dv_nodes)) == 1:
        grid = DvGrid.cube(sc.dv_half_width, sc.dv_nodes[0])
    else:
        grid = DvGrid(
            ((-sc.dv_half_width, sc.dv_half_width),) * 3, tuple(sc.dv_nodes)
        )
    rho = np.full(sc.cells, sc.rho0)
    return DvField.from_fields(grid, sc.y_lo, sc.y_hi, rho, sc.u0, sc.theta0)


_VEC_FIELDS = {"u0", "u_wall_left", "u_wall_right", "force", "dv_nodes"}
_INT_FIELDS = {"M", "cells", "max_steps", "snapshot_interval"}
_STR_FIELDS = {
    "scenario",
    "solver",
    "left_kind",
    "right_kind",
    "limiter",
    "splitting",
    "out_dir",
    "dv_limiter",
}


def _parse_value(name, text):
    text = text.strip()
    if name in _STR_FIELDS:
        # "none" is a legal literal for limiter-style options, so string
        # fields never collapse to None
        return text
    if text.lower() in ("none", ""):
        return None
    parts = text.replace(",", " ").split()
    if name in _VEC_FIELDS:
        cast = int if name == "dv_nodes" else float
        return tuple(cast(p) for p in parts)
    if name in _INT_FIELDS:
        return int(text)
    return float(text)


def save_config(sc, path):
    """Write the config as flat key = value text (section [run])."""
    cp = configparser.ConfigParser()
    cp.optionxform = str        # keep key case (M vs m)
    cp["run"] = {}
    for f in fields(sc):
        val = getattr(sc, f.name)
        if val is None:
            text = "none"
        elif f.name in _VEC_FIELDS:
            text = " ".join(repr(v) for v in val)
        else:
            text = repr(val) if not isinstance(val, str) else val
        cp["run"][f.name] = text
    with open(path, "w") as fh:
        cp.write(fh)


def load_config(path, **overrides):
    """Read a flat config file; unknown keys are an error."""
    cp = configparser.ConfigParser()
    cp.optionxform = str
    with open(path) as fh:
        cp.read_file(fh)
    known = {f.name for f in fields(ScenarioConfig)}
    params = {}
    for section in cp.sections():
        for key, text in cp[section].items():
            if key not in known:
                raise ValueError("unknown config key %r" % key)
            params[key] = _parse_value(key, text)
    base = params.pop("scenario", "custom")
    merged = dict(_PRESETS[base]) if base in _PRESETS else {}
    merged.update(params)
    merged.update(overrides)
    merged["scenario"] = base
    return ScenarioConfig(**merged)
