"""Accuracy fingerprint of both solvers: final tables of eight short runs.

The six NRxx runs cover what the three benchmark workloads leave out:
partial accommodation, a hot wall, every limiter, a body force and the
orders M = 4..12.  The two discrete-velocity runs, a Couette flow with a
partially accommodating hot wall and a shock, run the whole DVM step (wall
inflow, unlimited and minmod transport, the conservative Gaussian of the
collision) on coarse, unequal velocity axes.
``python tests/make_fingerprint.py`` writes their final snapshot tables to
``tests/data/fingerprint.npz``; ``test_fingerprint.py`` checks the current
code against that file.  Write the file again only on purpose, when a
change is meant to move the answer.
"""

from pathlib import Path

import numpy as np

from momentflow import scenarios

DATA = Path(__file__).resolve().parent / "data" / "fingerprint.npz"

# name -> (scenario, overrides); every run stops at t_end
RUNS = {
    "couette-m4-chi05-hotleft": ("couette", dict(
        M=4, cells=16, chi=0.5, theta_wall_left=1.3, t_end=0.3,
        steady_tol=None)),
    "couette-m6-minmod": ("couette", dict(
        M=6, cells=16, limiter="minmod", t_end=0.2, steady_tol=None)),
    "poiseuille-m5": ("poiseuille", dict(
        M=5, cells=16, t_end=0.2, steady_tol=None)),
    "poiseuille-m7-chi03-nolimiter": ("poiseuille", dict(
        M=7, cells=16, chi=0.3, limiter="none", t_end=0.2, steady_tol=None)),
    "shock-m9": ("shock", dict(M=9, cells=24, t_end=0.3)),
    "shock-m12-chi07": ("shock", dict(M=12, cells=30, chi=0.7, t_end=0.15)),
    "cdvm-couette-chi05-hotleft": ("couette", dict(
        solver="cdvm", cells=12, chi=0.5, theta_wall_left=1.3,
        dv_nodes=(12, 16, 12), t_end=0.2, steady_tol=None)),
    "cdvm-shock": ("shock", dict(
        solver="cdvm", cells=16, dv_nodes=(12, 16, 12), t_end=0.2)),
}


def final_table(name):
    """Snapshot table of run ``name`` at its end time."""
    scenario, overrides = RUNS[name]
    result = scenarios.solve(scenarios.preset(scenario, **overrides))
    if not result.converged:
        raise RuntimeError("%s: %s" % (name, result.message))
    return result.snapshots[-1][1]


def main():
    DATA.parent.mkdir(exist_ok=True)
    np.savez(DATA, **{name: final_table(name) for name in RUNS})
    print("wrote %s" % DATA)


if __name__ == "__main__":
    main()
