"""Names that are gone, what importing the package loads, and a run with
only its runtime dependencies."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import momentflow

# names gone from their module: deleted, kept in tests/oracles.py, or (as
# solver1d.mirror_breaker, now march.mirror_breaker) moved to another
# module; a name of a removed module is gone with its module
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
    ("cli", "decay_diagnostic"), ("hermite", "he_sequence"),
    ("march.RunResult", "state"), ("solver1d", "mirror_breaker"),
    ("scenarios.ScenarioConfig", "dv_limiter"),
    ("solver1d.RunConfig", "collisionless"), ("moments", "decay_diagnostic"),
    ("scenarios", "_check_tuples"), ("scenarios", "_kind"),
    ("scenarios", "_KINDS"), ("hermite", "he_zeros"),
    ("hermite", "largest_he_root"), ("solver1d.Grid1D", "densities"),
    ("moments", "_fields_table"), ("solver1d", "LIMITERS"), ("cdvm", "LIMITERS"),
]
# modules removed from the package, their names moved to their callers
REMOVED_MODULES = {"hermite"}


@pytest.mark.parametrize("owner, name", DELETED, ids=[
    "%s.%s" % pair for pair in DELETED])
def test_deleted_names_are_gone(owner, name):
    module, _, attr = owner.partition(".")
    if module in REMOVED_MODULES:
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("momentflow." + module)
    else:
        obj = importlib.import_module("momentflow." + module)
        if attr:
            obj = getattr(obj, attr)
        with pytest.raises(AttributeError):
            getattr(obj, name)
    with pytest.raises(AttributeError):
        getattr(momentflow, name)


def test_package_defines_no_names():
    # each name has one home, its submodule: the package re-exports none,
    # looks none up lazily and keeps no version of its own
    own = {n for n in vars(momentflow) if not n.startswith("__")}
    own |= {"__getattr__", "__all__", "__version__"} & set(vars(momentflow))
    assert own <= {m.name for m in pkgutil.iter_modules(momentflow.__path__)}
    assert not hasattr(momentflow, "Grid1D")


def _run_python(code, *args):
    """Run ``code`` in a fresh interpreter that imports this source tree."""
    src = Path(momentflow.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=120)


def test_importing_the_cli_leaves_numpy_unloaded():
    # --threads pins the BLAS pools only if numpy loads after it is read
    proc = _run_python("import sys, momentflow, momentflow.cli; "
                       "sys.exit('numpy' in sys.modules and 'numpy loaded')")
    assert proc.returncode == 0, proc.stderr


# Run in a fresh interpreter in which the test toolchain cannot be imported:
# import every module of the package, run five Couette steps through the CLI, and
# fail if the package so much as tried to import one of the blocked names.
_RUNTIME_ONLY = r"""
import importlib
import pkgutil
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

for module in pkgutil.iter_modules(momentflow.__path__):
    importlib.import_module("momentflow." + module.name)
rc = main(["run", "--scenario", "couette", "--M", "3", "--cells", "8",
           "--max-steps", "5", "--threads", "1", "--out", sys.argv[1]])
if attempts:
    sys.exit("tried to import %s" % attempts)
sys.exit(rc)
"""


def test_package_runs_without_test_dependencies(tmp_path):
    proc = _run_python(_RUNTIME_ONLY, str(tmp_path / "out"))
    assert proc.returncode == 0, proc.stderr
    assert "couette/nrxx: 5 steps" in proc.stdout
    assert (tmp_path / "out" / "final.csv").exists()
