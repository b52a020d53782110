"""Measure every workload over several seeds and write a baseline file.

    python3 perfbench/baseline.py

Each end-to-end run is a fresh ``run.py --trace 0`` process with its own
seed (1..10); one ``--trace 1`` run per workload adds the per-layer
numbers.  For every end-to-end metric the file holds the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the quartile spread as
a share of the median.  Runs are sequential so that they do not compete for
the cores.
"""

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10
OUT = HERE / "BENCH_1.json"


def bench_run(spec, workload, seed, trace):
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", str(trace),
    ]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=600, check=True)
    lines = out.stdout.strip().splitlines()
    env = next(json.loads(x[4:]) for x in lines if x.startswith("env "))
    return json.loads(lines[-1]), env


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / statistics.median(values),
        "values": values,
    }


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    result = {"run_seconds": spec["run_seconds"], "runs": RUNS, "workloads": {}}
    for name in [w["name"] for w in spec["workloads"]]:
        values, attempted, failed = {}, 0, 0
        for seed in range(1, RUNS + 1):
            res, env = bench_run(spec, name, seed, 0)
            attempted += res["attempted"]
            failed += res["failed"]
            for metric, v in res["metrics"].items():
                values.setdefault(metric, []).append(v["value"])
            print("%s seed %d: %s" % (name, seed, {
                m: round(v["value"], 4) for m, v in res["metrics"].items()
            }), file=sys.stderr)
        layers, _ = bench_run(spec, name, 1, 1)
        end_to_end = {}
        for m in spec["end_to_end"]:
            end_to_end[m["name"]] = dict(summarize(values[m["name"]]),
                                         unit=m["unit"])
        result["env"] = env
        result["workloads"][name] = {
            "attempted": attempted + layers["attempted"],
            "failed": failed + layers["failed"],
            "end_to_end": end_to_end,
            "per_layer": layers["metrics"],
        }
        for metric, s in end_to_end.items():
            print("%-18s %-12s median %-12.6g spread %.4f"
                  % (name, metric, s["median"], s["spread"]))
    OUT.write_text(json.dumps(result, indent=1) + "\n")
    print("wrote %s" % OUT)
    return 0


if __name__ == "__main__":
    sys.exit(main())
