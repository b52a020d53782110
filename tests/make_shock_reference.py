"""Kinetic reference of the shock and its error budget, for the convergence
gate in M (``test_convergence.py``).

The reference is the discrete-velocity (cdvm) shock preset, minmod, to
t = 1, on ``--nodes`` nodes per velocity axis (48 by default, stored
24 x 48 x 24 since the shock mirrors xi_1 and xi_3) and ``--cells`` cells
(200).  Its budget is the per-column l2rel (``moments.column_norms``) of
the reference against the same run changed in one way each:

  * ``nodes``: a third more nodes per axis (64 for 48) on the same width;
  * ``dt``: CFL 0.25 instead of the preset's 0.5;
  * ``width``: a quarter more nodes on an axis widened to keep the node
    spacing (60 nodes on [-12.55, 12.55] for 48 on [-10, 10]).

The marched shock warns that nodes went negative after collision (about
-1e-12, from the cubic Shakhov tail); the reference run records the count
and the minimum of those warnings.

``python tests/make_shock_reference.py`` writes
``tests/data/shock_reference.npz`` (about 8 minutes on one core at the
defaults).  Write it again only on purpose: when the cdvm answer is meant
to move, or to refine the reference.
"""

import argparse
import re
import time
import warnings
from pathlib import Path

import numpy as np

from momentflow import scenarios
from momentflow.moments import SNAPSHOT_COLUMNS, column_norms

DATA = Path(__file__).resolve().parent / "data" / "shock_reference.npz"

# the snapshot columns the gate reads, the same in every layout
COLUMNS = ("rho", "u2", "theta", "sigma22", "q2")
BUDGETS = ("nodes", "dt", "width")
_NEGATIVE = re.compile(r"went negative \(min (\S+) in cell \d+\) after collision")


def profile(table):
    """The columns of a snapshot table, as ``moments.read_snapshot`` gives
    them."""
    return dict(zip(SNAPSHOT_COLUMNS, table.T))


def shock_table(nodes, cells, **overrides):
    """Final table of the cdvm shock preset on ``nodes`` velocity nodes per
    axis, with preset ``overrides``, and the minima of its negativity
    warnings."""
    sc = scenarios.preset("shock", solver="cdvm", cells=cells,
                          dv_nodes=(nodes,) * 3, **overrides)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = scenarios.solve(sc)
    minima = []
    for w in caught:
        match = _NEGATIVE.search(str(w.message))
        if match is None:
            warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
        else:
            minima.append(float(match.group(1)))
    if not result.converged:
        raise RuntimeError("cdvm shock: %s" % result.message)
    return result.snapshots[-1][1], np.array(minima)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--nodes", type=int, default=48,
                   help="velocity nodes per axis (default 48)")
    p.add_argument("--cells", type=int, default=200,
                   help="spatial cells (default 200)")
    p.add_argument("--out", type=Path, default=DATA,
                   help="output file (default tests/data/shock_reference.npz)")
    args = p.parse_args(argv)

    n = args.nodes
    width = scenarios.preset("shock").dv_half_width
    wide = n + n // 4
    runs = {
        "nodes": dict(nodes=n + n // 3),
        "dt": dict(nodes=n, cfl=0.25),
        "width": dict(nodes=wide, dv_half_width=width * (wide - 1) / (n - 1)),
    }
    start = time.perf_counter()
    table, minima = shock_table(n, args.cells)
    # every recorded minimum is negative; 0.0 when the run never warned
    lowest = minima.min(initial=0.0)
    print("reference %d^3 x %d cells: %.0f s, %d negativity warnings (min %.3g)"
          % (n, args.cells, time.perf_counter() - start, minima.size, lowest))
    budget = np.empty((len(BUDGETS), len(COLUMNS)))
    for row, name in zip(budget, BUDGETS):
        start = time.perf_counter()
        other, _ = shock_table(cells=args.cells, **runs[name])
        row[:] = column_norms(profile(table), profile(other), COLUMNS)
        print("budget %-5s %s: %s (%.0f s)" % (
            name, runs[name], " ".join("%.2e" % v for v in row),
            time.perf_counter() - start))

    args.out.parent.mkdir(parents=True, exist_ok=True)
    np.savez(args.out, table=table, columns=np.array(COLUMNS),
             budget_names=np.array(BUDGETS), budget=budget,
             nodes=n, cells=args.cells,
             negative_count=minima.size, negative_min=lowest)
    print("wrote %s" % args.out)


if __name__ == "__main__":
    main()
