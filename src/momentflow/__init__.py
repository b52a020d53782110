"""momentflow: arbitrary-order Hermite moment solver for 1-D microflows,
with a conservative discrete-velocity reference solver and benchmark drivers.

Submodules are imported lazily so the CLI can configure threading before any
numerical library loads.
"""

import importlib

__version__ = "0.1.0"

_API = {
    "hermite": ("he_sequence", "largest_he_root"),
    "moments": ("stress_tensor", "heat_flux", "snapshot_table",
                "read_snapshot", "SNAPSHOT_COLUMNS"),
    "projection": ("project_coeffs", "shift_kernel"),
    "collision": ("collide_coeffs", "relaxation_time"),
    "closure": ("closure_coeffs",),
    "boundary": ("WallSpec", "s_table", "ghost_state"),
    "march": ("RunResult",),
    "solver1d": ("Grid1D", "RunConfig", "run", "step", "cfl_timestep"),
    "cdvm": ("DvGrid", "DvField", "DvRunConfig", "dv_moments", "dv_step",
             "dv_run", "dv_snapshot_table"),
    "scenarios": ("ScenarioConfig", "preset", "load_config", "save_config",
                  "build_grid", "build_dv_field", "to_run_config",
                  "to_dv_config"),
    "cli": ("main", "decay_diagnostic"),
}

_LOOKUP = {name: mod for mod, names in _API.items() for name in names}
__all__ = sorted(_LOOKUP) + sorted(_API)


def __getattr__(name):
    if name in _LOOKUP:
        module = importlib.import_module("." + _LOOKUP[name], __name__)
        return getattr(module, name)
    if name in _API:
        return importlib.import_module("." + name, __name__)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))
