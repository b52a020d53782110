"""Per-layer spans recorded from outside the program.

``Tracer.installed()`` replaces each traced ``momentflow`` function by a
timing wrapper in every module namespace that binds it -- ``project_coeffs``
is bound in both ``solver1d`` and ``projection``, and wrapping both is what
counts the calls made inside ``renormalize_arrays`` -- and puts the
originals back on exit, so untraced runs execute the program unchanged.
The solvers look these names up at call time, so the wrappers see every
call.  Spans stay in memory as ``[span, parent, start, end]`` records; a
span's self time is its duration minus that of its direct children.
"""

import csv
import functools
import math
import statistics
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np

PACKAGE = "momentflow"

# span -> the functions it covers, as (module, attribute); the solver1d
# helpers have no public entry point and may disappear, in which case the
# span is reported as absent
SPANS = {
    "solver1d.run": (("solver1d", "run"),),
    "solver1d.step": (("solver1d", "step"),),
    "solver1d.cfl_timestep": (("solver1d", "cfl_timestep"),),
    "solver1d.reconstruct": (("solver1d", "_interface_data"),),
    "solver1d.hll": (("solver1d", "_flux_cube"), ("solver1d", "_hll_combine")),
    "projection.project_coeffs": (("projection", "project_coeffs"),),
    "projection.renormalize_arrays": (("projection", "renormalize_arrays"),),
    "boundary.ghost_state": (("boundary", "ghost_state"),),
    "closure.closure_coeffs": (("closure", "closure_coeffs"),),
    "collision.collide_coeffs": (("collision", "collide_coeffs"),),
    "moments.snapshot_table": (("moments", "snapshot_table"),),
    "cdvm.dv_step": (("cdvm", "dv_step"),),
    "cdvm.dv_cfl_timestep": (("cdvm", "dv_cfl_timestep"),),
    "cdvm.transport_field": (("cdvm", "transport_field"),),
    "cdvm.collide_field": (("cdvm", "collide_field"),),
    "cdvm.dv_moments": (("cdvm", "dv_moments"),),
    "cdvm.conservative_gaussian": (("cdvm", "conservative_gaussian"),),
}

# calls counted without a span: one per Newton iteration
COUNTERS = {"cdvm.newton_iters": (("cdvm", "_axis_gaussians"),)}

PROJECTION = "projection.project_coeffs"

SPAN_METRICS = (
    ("self_ms_per_step", "ms"),
    ("calls_per_step", "count"),
    ("share", "ratio"),
)

# metrics that are not per-span timings; "computed" ones are derived from
# array shapes, not measured
EXTRA_METRICS = (
    (PROJECTION + ".cubes_per_step", "count", "lower"),
    (PROJECTION + ".bytes_per_step", "B", "lower"),
    (PROJECTION + ".flops_per_step", "flop", "lower"),
    ("projection.useful_slot_ratio", "ratio", "higher"),
    ("cdvm.newton_iters_per_step", "count", "lower"),
    ("cdvm.state_bytes", "B", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)

COMPUTED = {
    PROJECTION + ".cubes_per_step",
    PROJECTION + ".bytes_per_step",
    PROJECTION + ".flops_per_step",
    "projection.useful_slot_ratio",
    "cdvm.state_bytes",
}


def per_layer_spec():
    """Every per-layer metric as (name, unit, better)."""
    spec = [
        ("%s.%s" % (span, metric), unit, "lower")
        for span in SPANS
        for metric, unit in SPAN_METRICS
    ]
    return spec + list(EXTRA_METRICS)


class Tracer:
    """Spans and counts of the calls made while ``installed()`` is active."""

    def __init__(self):
        self.records = []
        self.counts = Counter()
        self.cubes = []         # (cubes, K) per project_coeffs call
        self.absent = []
        self._stack = []

    @contextmanager
    def installed(self):
        patched = []
        try:
            for span, targets in SPANS.items():
                for module, attr in targets:
                    self._patch(module, attr, span, self._span, patched)
            for counter, targets in COUNTERS.items():
                for module, attr in targets:
                    self._patch(module, attr, counter, self._counter, patched)
            yield self
        finally:
            for module, name, original in reversed(patched):
                setattr(module, name, original)

    def _patch(self, module, attr, label, make, patched):
        home = sys.modules.get("%s.%s" % (PACKAGE, module))
        original = getattr(home, attr, None)
        if original is None:
            self.absent.append("%s.%s" % (module, attr))
            return
        wrapper = make(label, original)
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith(PACKAGE + "."):
                continue
            for name, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, name, wrapper)
                    patched.append((mod, name, original))

    def _span(self, span, fn):
        records, stack, clock = self.records, self._stack, time.perf_counter
        probe = self._count_cubes if span == PROJECTION else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if probe is not None:
                probe(args)
            rec = [span, stack[-1] if stack else -1, clock(), 0.0]
            stack.append(len(records))
            records.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()

        wrapper.perfbench_span = span
        return wrapper

    def _counter(self, label, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[label] += 1
            return fn(*args, **kwargs)

        wrapper.perfbench_span = label
        return wrapper

    def _count_cubes(self, args):
        """Cubes moved by one project_coeffs(coeffs, u, theta, u_new, theta_new)."""
        if len(args) != 5:
            return
        coeffs, u, theta, u_new, theta_new = (np.shape(a) for a in args)
        batch = np.broadcast_shapes(
            coeffs[:-3], u[:-1], theta, u_new[:-1], theta_new
        )
        self.cubes.append((math.prod(batch), coeffs[-1]))

    def self_times(self):
        """Per span: total self seconds and number of calls."""
        child = [0.0] * len(self.records)
        for _, parent, start, end in self.records:
            if parent >= 0:
                child[parent] += end - start
        self_s = defaultdict(float)
        calls = Counter()
        for i, (span, _, start, end) in enumerate(self.records):
            self_s[span] += end - start - child[i]
            calls[span] += 1
        return self_s, calls

    def write(self, path, solve):
        """Append this tracer's spans to a CSV file (times from the first span)."""
        t0 = self.records[0][2] if self.records else 0.0
        new = not path.exists()
        with open(path, "a", newline="") as fh:
            out = csv.writer(fh)
            if new:
                out.writerow(["solve", "index", "span", "parent", "start_s", "end_s"])
            for i, (span, parent, start, end) in enumerate(self.records):
                out.writerow([solve, i, span, parent,
                              "%.9f" % (start - t0), "%.9f" % (end - t0)])


def useful_slot_ratio(M, K):
    """Evolved slots |alpha| <= M of a K^3 cube, over K^3."""
    r = np.arange(K)
    order = r[:, None, None] + r[None, :, None] + r[None, None, :]
    return float(np.count_nonzero(order <= M)) / K**3


def layer_metrics(tracers, steps, traced_walls, untraced_walls, M, state_bytes):
    """Per-layer metrics over the traced solves, as {name: (value, unit)}.

    ``tracers`` and ``traced_walls`` hold one entry per traced solve and
    ``steps`` is their total; ``untraced_walls`` are the solve times of the
    same run with tracing off.  ``M`` is the NRxx moment order (None for the
    DVM) and ``state_bytes`` the DVM state size (0 for NRxx).
    """
    traced_wall_s = sum(traced_walls)
    self_s = defaultdict(float)
    calls = Counter()
    counts = Counter()
    cubes = []
    for tracer in tracers:
        s, c = tracer.self_times()
        for span in s:
            self_s[span] += s[span]
        calls.update(c)
        counts.update(tracer.counts)
        cubes.extend(tracer.cubes)
    out = {}
    for span in SPANS:
        out[span + ".self_ms_per_step"] = (1e3 * self_s[span] / steps, "ms")
        out[span + ".calls_per_step"] = (calls[span] / steps, "count")
        out[span + ".share"] = (self_s[span] / traced_wall_s, "ratio")
    n_cubes = sum(n for n, _ in cubes)
    moved = sum(n * K**3 for n, K in cubes)
    flops = sum(3 * 2 * n * K**4 for n, K in cubes)
    ratio = useful_slot_ratio(M, cubes[0][1]) if cubes and M else 0.0
    values = {
        PROJECTION + ".cubes_per_step": n_cubes / steps,
        PROJECTION + ".bytes_per_step": 2 * 8 * moved / steps,
        PROJECTION + ".flops_per_step": flops / steps,
        "projection.useful_slot_ratio": ratio,
        "cdvm.newton_iters_per_step": counts["cdvm.newton_iters"] / steps,
        "cdvm.state_bytes": float(state_bytes),
        "trace.overhead_ratio": (
            statistics.median(traced_walls) / statistics.median(untraced_walls)
        ),
    }
    for name, unit, _ in EXTRA_METRICS:
        out[name] = (values[name], unit)
    return out
