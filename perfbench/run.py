"""Run one benchmark workload in this process and report its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout: ``momentflow`` is imported from ``src/``
next to this directory, never from an installed copy.  The run repeats the
workload's solve until ``--seconds`` have passed (at least one solve), checks
every solve against the correctness gate in ``workloads.check``, prints a
readable report and, as the last line of stdout, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced solves and reports the per-layer metrics; its spans are
written to ``.perfbench-trace/<workload>-seed<N>.csv`` when the run ends.
BLAS and OpenMP pools are pinned to one thread before numpy loads.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".perfbench-trace"

# set-up is timed in this process and in this many fresh ones; the median
# of all of them is setup_s
SETUP_PROBES = 9
PROBE_TIMEOUT_S = 120


def pin_threads():
    """Put the checkout's sources first on the path and pin BLAS threads.

    Uses the CLI's own list of thread variables; importing the CLI module
    does not load numpy, which must not be loaded yet.
    """
    if not (SRC / "momentflow" / "__init__.py").is_file():
        raise SystemExit("perfbench: no momentflow sources under %s" % SRC)
    sys.path.insert(0, str(SRC))
    from momentflow import cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit("perfbench: momentflow imported from %s" % cli.__file__)
    if "numpy" in sys.modules:
        raise SystemExit("perfbench: numpy loaded before threads were pinned")
    for var in cli._THREAD_VARS:
        os.environ[var] = "1"
    return cli._THREAD_VARS


def environment(thread_vars):
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": "%s %s" % (blas.get("name"), blas.get("version")),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "threads": {v: os.environ[v] for v in thread_vars},
    }


def timed_setup(name, seed):
    """Import, config, grid build and warm-up step; returns (prepared, s)."""
    t0 = time.perf_counter()
    import workloads

    prepared = workloads.prepare(workloads.WORKLOADS[name], seed, reference=None)
    return prepared, time.perf_counter() - t0


def probe_setups(name, seed, count):
    """Set-up times of ``count`` fresh processes, one after another."""
    times = []
    for _ in range(count):
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", "0", "--trace", "0",
             "--setup-only"],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
        )
        times.append(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])
    return times


class Tally:
    """Solves attempted and failed, with the gate's reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            print("failed: %s" % "; ".join(problems), file=sys.stderr)


def gated_solve(prepared, tally, tracer=None):
    """One solve plus its correctness gate; the Outcome, or None on error."""
    import workloads

    try:
        outcome = workloads.solve(prepared, tracer)
    except Exception:                   # a solver error fails this solve only
        traceback.print_exc()
        tally.record(["solver raised"])
        return None
    tally.record(workloads.check(prepared, outcome))
    outcome.state = None                # keep the timings, free the state
    return outcome


def measure(prepared, seconds, tally, trace=False):
    """Solves until ``seconds`` have passed, as (untraced, traced) lists.

    With ``trace`` every other solve runs under its own tracer and is
    returned as an (outcome, tracer) pair.
    """
    import tracing

    plain, traced = [], []
    deadline = time.perf_counter() + seconds
    while tally.attempted < 1 + trace or time.perf_counter() < deadline:
        tracer = tracing.Tracer() if trace and tally.attempted % 2 else None
        outcome = gated_solve(prepared, tally, tracer)
        if outcome is None:
            continue
        if tracer is None:
            plain.append(outcome)
        else:
            traced.append((outcome, tracer))
    return plain, traced


def end_to_end(outcomes, setups):
    """The gated metrics: the upper quartile of the solve times and the p90
    of the step times, because the host's slow state is present in nearly
    every run while its fast state comes and goes (README "Noise")."""
    import numpy as np

    walls = [o.wall_s for o in outcomes]
    step_ms = 1e3 * np.concatenate([o.step_s for o in outcomes])
    n = len(outcomes)
    return {
        "setup_s": (statistics.median(setups), "s", "median of %d set-ups" % len(setups)),
        "wall_s_p75": (statistics.quantiles(walls, n=4)[2] if n > 1 else walls[0],
                       "s", "%d solves" % n),
        "steps": (statistics.median_low(o.steps for o in outcomes), "count",
                  "median of %d solves" % n),
        "step_ms_p90": (float(np.percentile(step_ms, 90)), "ms",
                        "%d steps" % step_ms.size),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "MB", "1 process"),
    }


def central(outcomes):
    """Mean solve time and median step time, printed but not gated: both
    jump by up to 1.9x between runs as the host's slow share crosses half."""
    import numpy as np

    step_ms = 1e3 * np.concatenate([o.step_s for o in outcomes])
    return {
        "wall_s": (statistics.fmean(o.wall_s for o in outcomes), "s",
                   "mean of %d solves" % len(outcomes)),
        "step_ms_p50": (float(np.percentile(step_ms, 50)), "ms",
                        "%d steps" % step_ms.size),
    }


def per_layer(prepared, plain, traced):
    import tracing

    outcomes = [o for o, _ in traced]
    tracers = [t for _, t in traced]
    wl = prepared.workload
    state_bytes = 8 * prepared.initial.values.size if wl.dv_steps else 0
    M = None if wl.dv_steps else prepared.config.M
    metrics = tracing.layer_metrics(
        tracers,
        sum(o.steps for o in outcomes),
        [o.wall_s for o in outcomes],
        [o.wall_s for o in plain],
        M,
        state_bytes,
    )
    note = "%d traced solves" % len(traced)
    return {
        name: (value, unit,
               "computed" if name in tracing.COMPUTED else note)
        for name, (value, unit) in metrics.items()
    }


def write_spans(name, seed, tracers):
    TRACE_DIR.mkdir(exist_ok=True)
    path = TRACE_DIR / ("%s-seed%d.csv" % (name, seed))
    path.unlink(missing_ok=True)
    for i, tracer in enumerate(tracers):
        tracer.write(path, i)
    return path


def report(name, seed, trace, tally, metrics, env, extra=None):
    print("perfbench %s seed=%d trace=%d: %d solves, %d failed"
          % (name, seed, trace, tally.attempted, tally.failed))
    print("env %s" % json.dumps(env, sort_keys=True))
    for metric, (value, unit, samples) in metrics.items():
        print("  %-44s %14.6g %-6s %s" % (metric, value, unit, samples))
    for metric, (value, unit, samples) in (extra or {}).items():
        print("  %-44s %14.6g %-6s %s, not gated" % (metric, value, unit, samples))
    print(json.dumps({
        "correct": tally.attempted > 0 and tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m: {"value": v, "unit": u} for m, (v, u, _) in metrics.items()},
    }))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    thread_vars = pin_threads()
    prepared, setup_s = timed_setup(args.workload, args.seed)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import workloads

    env = environment(thread_vars)
    prepared.reference = workloads.load_reference(args.workload)
    tally = Tally()
    extra = None
    if args.trace:
        plain, traced = measure(prepared, args.seconds, tally, trace=True)
        if not (plain and traced):
            raise SystemExit("perfbench: no solve finished")
        metrics = per_layer(prepared, plain, traced)
        path = write_spans(args.workload, args.seed, [t for _, t in traced])
        absent = traced[-1][1].absent
        print("spans written to %s; absent: %s"
              % (path.relative_to(ROOT), ", ".join(absent) or "none"))
    else:
        setups = [setup_s] + probe_setups(args.workload, args.seed, SETUP_PROBES)
        outcomes, _ = measure(prepared, args.seconds, tally)
        if not outcomes:
            raise SystemExit("perfbench: no solve finished")
        metrics = end_to_end(outcomes, setups)
        extra = central(outcomes)
    report(args.workload, args.seed, args.trace, tally, metrics, env, extra)
    return 0


if __name__ == "__main__":
    sys.exit(main())
