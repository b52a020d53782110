"""Regenerate the reference tables that the correctness gate compares against.

    python3 perfbench/make_reference.py

Solves each workload once from its unperturbed initial
state and writes the final snapshot table to ``perfbench/reference/``.  The
committed tables come from the code the benchmark was introduced on; only
regenerate them for a change that is meant to alter the answer.
"""

import sys

from run import pin_threads


def main():
    pin_threads()
    import workloads
    from momentflow.moments import write_table

    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    for name, workload in workloads.WORKLOADS.items():
        table = workloads.reference_table(workload)
        path = workloads.reference_path(name)
        write_table(path, table)
        print("wrote %s (%d rows)" % (path, table.shape[0]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
