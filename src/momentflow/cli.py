"""Command-line driver: scenario runs and profile comparison.

``momentflow run`` builds a scenario config from a preset, an optional flat
config file and flags, each flag but ``--config`` and ``--threads`` read as
its config key is (``scenarios.parse_value``), runs the chosen solver, and
writes CSV profile snapshots, the steady residual of every check
(``residual_history.csv``) and a plain-text run log.  ``momentflow compare``
measures the difference between two profile files column by column.  Every
value is checked by the program's own rules, so a bad one exits 1 with one
``error:`` line.

Thread control: ``--threads``, a positive integer, pins the usual BLAS/OpenMP
pool sizes via the environment before the numerical modules are imported; all
reductions in the solvers are order-deterministic, so results do not depend on
the setting.
"""

import argparse
import os
import sys
from dataclasses import fields

_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
NORMS = ("l2rel", "l2", "linf")


def build_parser():
    p = argparse.ArgumentParser(
        prog="momentflow", description="1-D kinetic microflow solvers"
    )
    sub = p.add_subparsers(dest="command")

    r = sub.add_parser("run", help="run a scenario and write CSV profiles")
    # every flag but --config and --threads holds the text of the config
    # field of its dest
    r.add_argument("--config", help="flat key = value config file")
    r.add_argument("--M", help="moment order")
    for name in ("scenario", "solver", "kn", "pr", "chi", "cells", "steady-tol",
                 "max-steps", "limiter", "snapshot-interval", "dv-half-width"):
        r.add_argument("--" + name)
    r.add_argument("--tend", dest="t_end")
    r.add_argument("--dv-nodes", nargs=3)
    r.add_argument("--out", dest="out_dir", help="output directory")
    r.add_argument("--threads")

    c = sub.add_parser("compare", help="difference report between two profiles")
    c.add_argument("file_a")
    c.add_argument("file_b", help="reference profile")
    c.add_argument("--norm", default="l2rel", help=", ".join(NORMS))
    c.add_argument("--columns", nargs="*", default=None)
    return p


def _cmd_run(args):
    if args.threads is not None:
        # checked without numpy, which must load after the pools are pinned
        if not (args.threads.isdecimal() and int(args.threads) > 0):
            raise ValueError("threads must be a positive integer, got %r"
                             % args.threads)
        for var in _THREAD_VARS:
            os.environ[var] = str(int(args.threads))

    import numpy as np

    from . import scenarios
    from .moments import write_table

    # the words of a tuple flag are read as one config value
    known = {f.name: f for f in fields(scenarios.ScenarioConfig)}
    over = {k: scenarios.parse_value(known[k], v if isinstance(v, str)
                                     else " ".join(v))
            for k, v in vars(args).items() if k in known and v is not None}
    sc = scenarios.load_config(args.config, **over)
    result = scenarios.solve(sc)
    residuals = result.residual_history

    # written only after the run, so a rejected option leaves no directory
    out = sc.out_dir
    os.makedirs(out, exist_ok=True)
    scenarios.save_config(sc, os.path.join(out, "config.ini"))

    for i, (t, table) in enumerate(result.snapshots[:-1]):
        write_table(os.path.join(out, "snapshot_%04d.csv" % i), table)
    write_table(os.path.join(out, "final.csv"), result.snapshots[-1][1])

    with open(os.path.join(out, "run_log.txt"), "w") as log:
        log.write("scenario=%s solver=%s M=%d kn=%g\n" % (sc.scenario, sc.solver,
                                                          sc.M, sc.kn))
        log.write("steps=%d restarts=%d t=%.12g converged=%s\n"
                  % (result.steps, result.restarts, result.t, result.converged))
        log.write("message: %s\n" % result.message)
        log.write("dt history:\n")
        for i, dt in enumerate(result.dt_history):
            log.write("  step %d dt %.12g\n" % (i + 1, dt))
    if residuals.size:
        np.savetxt(os.path.join(out, "residual_history.csv"),
                   np.column_stack([np.arange(1, residuals.size + 1), residuals]),
                   fmt="%.17g", delimiter=",", header="check,residual", comments="")

    print("%s/%s: %d steps to t=%.6g (%s); wrote %s"
          % (sc.scenario, sc.solver, result.steps, result.t, result.message, out))
    if not result.converged:
        print("warning: %s" % result.message, file=sys.stderr)
    return 0


def _cmd_compare(args):
    import numpy as np

    from .march import check_choice
    from .moments import SNAPSHOT_COLUMNS, read_snapshot

    check_choice("norm", args.norm, NORMS)
    a = read_snapshot(args.file_a)
    b = read_snapshot(args.file_b)
    cols = args.columns or [c for c in SNAPSHOT_COLUMNS if c != "y"]
    vals = []
    for col in cols:
        if col not in a or col not in b:
            raise ValueError("missing column %s" % col)
        ref = np.interp(a["y"], b["y"], b[col])
        diff = a[col] - ref
        if args.norm == "linf":
            val = np.max(np.abs(diff))
        elif args.norm == "l2":
            val = float(np.linalg.norm(diff))
        else:
            denom = float(np.linalg.norm(ref))
            val = float(np.linalg.norm(diff)) / (denom if denom > 0 else 1.0)
        vals.append(val)
        print("%-10s %s %.6e" % (col, args.norm, val))
    # np.max, unlike max, is NaN when any value is: a NaN cell is never hidden
    print("%-10s %s %.6e" % ("max", args.norm, np.max(vals)))
    return 0


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    try:
        return {"run": _cmd_run, "compare": _cmd_compare}[args.command](args)
    except Exception as exc:          # bad input, configuration or solver failure
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
