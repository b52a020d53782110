"""Tests of the benchmark itself: the correctness gate, the tracer and the
metric names.  Run with ``python -m pytest perfbench`` from the repo root.

They use shrunken copies of the workloads so that they finish in seconds.
"""

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SMALL = {
    "couette-m3-steady": dict(M=3, cells=8, steady_tol=1e-2),
    "shock-m10": dict(M=5, cells=16, t_end=0.1),
    "dvm-couette": dict(solver="cdvm", cells=8, dv_nodes=(12, 12, 12)),
}


def small(name, seed=1):
    wl = workloads.WORKLOADS[name]
    wl = dataclasses.replace(wl, name="small-" + name,
                             overrides=SMALL[name],
                             dv_steps=min(wl.dv_steps, 5))
    return workloads.prepare(wl, seed, reference=None)


def momentflow_bindings():
    return {
        (mod.__name__, name): value
        for mod in list(sys.modules.values())
        if getattr(mod, "__name__", "").startswith("momentflow.")
        for name, value in vars(mod).items()
    }


@pytest.mark.parametrize("name", sorted(SMALL))
def test_small_workloads_pass_the_gate(name):
    prepared = small(name)
    assert workloads.check(prepared, workloads.solve(prepared)) == []


@pytest.mark.parametrize("name", sorted(SMALL))
def test_nan_in_final_state_fails_the_gate(name):
    prepared = small(name)
    outcome = workloads.solve(prepared)
    if prepared.workload.dv_steps:
        outcome.state.values[2, 5, 5, 5] = np.nan
    else:
        outcome.state.coeffs[2, 2, 0, 0] = np.nan
    problems = workloads.check(prepared, outcome)
    assert problems and "non-finite" in problems[0]


def test_nan_input_counts_as_failed_solve():
    # the solver may still report converged on a NaN state; the gate must not
    # rely on that
    prepared = small("shock-m10")
    prepared.initial.coeffs[3, 0, 2, 0] = np.nan
    tally = run.Tally()
    run.measure(prepared, 0.0, tally)
    assert tally.attempted == 1 and tally.failed == 1


def test_reference_mismatch_fails_the_gate():
    prepared = small("shock-m10")
    table = workloads.final_table(prepared.workload,
                                  workloads.solve(prepared).state)
    prepared.reference = table
    assert workloads.check(prepared, workloads.solve(prepared)) == []
    prepared.reference = table * (1.0 + 1e-3)
    assert workloads.check(prepared, workloads.solve(prepared))


def test_mass_drift_fails_the_gate():
    prepared = small("couette-m3-steady")
    outcome = workloads.solve(prepared)
    outcome.mass0 *= 1.0 + 1e-9
    assert any("mass" in p for p in workloads.check(prepared, outcome))


@pytest.mark.parametrize("name", sorted(SMALL))
def test_tracer_leaves_no_wrapper_installed(name):
    prepared = small(name)
    before = momentflow_bindings()
    tracer = tracing.Tracer()
    workloads.solve(prepared, tracer)
    assert tracer.records and not tracer.absent
    after = momentflow_bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert not any(hasattr(v, "perfbench_span") for v in after.values())


def test_tracer_restores_after_an_error():
    before = momentflow_bindings()
    with pytest.raises(RuntimeError):
        with tracing.Tracer().installed():
            raise RuntimeError("boom")
    after = momentflow_bindings()
    assert all(after[k] is before[k] for k in before)


def test_tracer_reports_missing_helpers(monkeypatch):
    monkeypatch.setitem(tracing.SPANS, "solver1d.gone", (("solver1d", "_gone"),))
    tracer = tracing.Tracer()
    with tracer.installed():
        pass
    assert tracer.absent == ["solver1d._gone"]


@pytest.mark.parametrize("name", sorted(SMALL))
def test_self_times_account_for_the_traced_wall_time(name):
    prepared = small(name)
    tracer = tracing.Tracer()
    outcome = workloads.solve(prepared, tracer)
    self_s, _ = tracer.self_times()
    assert min(self_s.values()) >= 0.0
    assert 0.97 * outcome.wall_s <= sum(self_s.values()) <= outcome.wall_s


@pytest.mark.parametrize("name", sorted(SMALL))
def test_steps_and_calls_repeat_exactly(name):
    prepared = small(name)
    runs = []
    for _ in range(2):
        tracer = tracing.Tracer()
        outcome = workloads.solve(prepared, tracer)
        runs.append((outcome.steps, tracer.self_times()[1], tracer.counts,
                     tracer.cubes))
    assert runs[0] == runs[1]


def test_nrxx_call_counts_per_step():
    prepared = small("couette-m3-steady")
    tracer = tracing.Tracer()
    outcome = workloads.solve(prepared, tracer)
    calls = tracer.self_times()[1]
    per_step = {k: v / outcome.steps for k, v in calls.items()}
    assert per_step["projection.project_coeffs"] == 7
    assert per_step["boundary.ghost_state"] == 8
    assert per_step["projection.renormalize_arrays"] == 2


def test_setup_probe_runs_in_a_fresh_process():
    (setup_s,) = run.probe_setups("shock-m10", 1, 1)
    assert 0.0 < setup_s < run.PROBE_TIMEOUT_S


def test_useful_slot_ratio():
    assert tracing.useful_slot_ratio(3, 5) == 20 / 125
    assert tracing.useful_slot_ratio(10, 12) == 286 / 1728


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    prepared = small("dvm-couette")
    outcome = workloads.solve(prepared)
    e2e = run.end_to_end([outcome], [0.1])
    assert {m: u for m, (_, u, _) in e2e.items()} == {
        m["name"]: m["unit"] for m in spec["end_to_end"]
    }
    tracer = tracing.Tracer()
    traced = workloads.solve(prepared, tracer)
    layers = run.per_layer(prepared, [outcome], [(traced, tracer)])
    assert {m: u for m, (_, u, _) in layers.items()} == {
        m["name"]: m["unit"] for m in spec["per_layer"]
    }
    assert [
        (m["name"], m["unit"], m["better"]) for m in spec["per_layer"]
    ] == tracing.per_layer_spec()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
