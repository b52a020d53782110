"""The package's public names, and a run with only its runtime dependencies."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import momentflow

PUBLIC = [
    "DvField", "DvGrid", "DvRunConfig", "Grid1D", "RunConfig", "RunResult",
    "SNAPSHOT_COLUMNS", "ScenarioConfig", "WallSpec", "build_dv_field",
    "build_grid", "cfl_timestep", "closure_coeffs", "collide_coeffs",
    "decay_diagnostic", "dv_moments", "dv_run", "dv_snapshot_table", "dv_step",
    "ghost_state", "he_sequence", "heat_flux", "largest_he_root",
    "load_config", "main", "preset", "project_coeffs", "read_snapshot",
    "relaxation_time", "run", "s_table", "save_config", "shift_kernel",
    "snapshot_table", "step", "stress_tensor", "to_dv_config", "to_run_config",
    "boundary", "cdvm", "cli", "closure", "collision", "hermite", "march",
    "moments", "projection", "scenarios", "solver1d",
]

# names only tests used, now gone from the package or kept in tests/oracles.py
DELETED = [
    ("moments", "MomentState"), ("moments", "INVARIANT_TOL"),
    ("moments", "maxwellian"), ("moments", "n_moments"),
    ("moments", "multi_indices"), ("moments", "index_rank"),
    ("moments", "cube_from_dict"), ("moments", "write_snapshot"),
    ("hermite", "he_eval"), ("hermite", "basis_eval"),
    ("hermite", "expansion_eval"), ("boundary", "half_space_cutoff"),
    ("boundary", "mirror_state"), ("boundary", "mirror_coeffs"),
    ("boundary.WallSpec", "mirrored"), ("closure", "shifted"),
    ("solver1d.Grid1D", "cell_state"), ("solver1d", "MomentState"),
    ("boundary", "MomentState"), ("boundary", "j_full"),
    ("boundary", "j_hat"), ("boundary", "half_maxwellian_coeffs"),
    ("boundary", "wall_density"), ("boundary", "apply_wall_bc"),
    ("boundary", "check_walls"), ("cdvm.DvGrid", "cube"),
    ("march", "check_stop_options"), ("cdvm.DvGrid", "w3"),
    ("closure", "gradient_reads"), ("march", "check_run_options"),
    ("solver1d", "SPLITTINGS"), ("solver1d", "check_scheme"),
]


def test_public_names_are_pinned_and_resolve():
    assert momentflow.__all__ == PUBLIC
    for name in PUBLIC:
        assert getattr(momentflow, name) is not None


@pytest.mark.parametrize("owner, name", DELETED, ids=[
    "%s.%s" % pair for pair in DELETED])
def test_deleted_names_are_gone(owner, name):
    obj = momentflow
    for part in owner.split("."):
        obj = getattr(obj, part)
    with pytest.raises(AttributeError):
        getattr(obj, name)
    with pytest.raises(AttributeError):
        getattr(momentflow, name)


# Run in a fresh interpreter in which the test toolchain cannot be imported:
# import every public module, run five Couette steps through the CLI, and
# fail if the package so much as tried to import one of the blocked names.
_RUNTIME_ONLY = r"""
import importlib
import sys

BLOCKED = {"scipy", "sympy", "pytest", "hypothesis"}
attempts = []


class Block:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] in BLOCKED:
            attempts.append(name)
            raise ImportError("blocked: " + name)


sys.meta_path.insert(0, Block())
for name in sorted(BLOCKED):
    try:
        importlib.import_module(name)
    except ImportError:
        continue
    sys.exit("%s could be imported" % name)
del attempts[:]

import momentflow
from momentflow.cli import main

for module in momentflow._API:
    importlib.import_module("momentflow." + module)
rc = main(["run", "--scenario", "couette", "--M", "3", "--cells", "8",
           "--max-steps", "5", "--threads", "1", "--out", sys.argv[1]])
if attempts:
    sys.exit("tried to import %s" % attempts)
sys.exit(rc)
"""


def test_package_runs_without_test_dependencies(tmp_path):
    src = Path(momentflow.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-c", _RUNTIME_ONLY, str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "couette/nrxx: 5 steps" in proc.stdout
    assert (tmp_path / "out" / "final.csv").exists()
