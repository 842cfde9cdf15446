"""Regenerate the golden records and the cost order of every workload pool.

Runs every item of every pool once, in this interpreter, and writes
`golden/<workload>.json` (one record per item) and `golden/cost_order.json`
(pool keys, cheapest first, which picks the smoke items).  Regenerate only when a change is meant to alter outputs, and say
so: the golden files are what every benchmark run is checked against.

    python3 bench/make_golden.py [workload ...]
"""

import json
import sys

from child import import_library, run_items
from run import git_sha

import_library()
import workloads  # noqa: E402


def main(names):
    orders = json.loads(workloads.COST_ORDER.read_text()) if workloads.COST_ORDER.exists() else {}
    for name in names:
        workload = workloads.Workload(name)
        pool = workload.pool()
        keys = sorted(pool)
        _, times, records, errors, wall = run_items(workload, workload.prepare(keys, pool))
        failed = [(k, e) for k, e in zip(keys, errors) if e]
        if failed:
            raise SystemExit(f"{name}: items failed: {failed}")
        golden = {
            "workload": name,
            "generated_from": git_sha(),
            "records": dict(zip(keys, records)),
        }
        workloads.golden_path(name).write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
        orders[name] = [k for _, k in sorted(zip(times, keys))]
        print(f"{name}: {len(keys)} records, {wall:.1f} s", flush=True)
    workloads.COST_ORDER.write_text(json.dumps(orders, indent=1) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:] or list(workloads.NAMES))
