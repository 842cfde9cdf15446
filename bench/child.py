"""One benchmark pass in a fresh interpreter.

The pass imports wpp_mori from the checkout's `src/`, generates or parses
its items, prints READY and the CPU seconds spent so far (its set-up time),
runs the items one by one, and writes per-item CPU and wall times, records
and peak RSS to a JSON file.  With --trace it wraps the library first and
adds per-layer statistics and a span file.

    python3 bench/child.py --workload scan_c13 --seed 1 --result out.json
"""

import argparse
import json
import resource
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--result", help="JSON file for the pass's results")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--trace", help="write spans here and add per-layer statistics")
    return p.parse_args(argv)


def import_library():
    """Import wpp_mori from the checkout's src/, never from an installed copy."""
    sys.path.insert(0, str(SRC))
    import wpp_mori

    if not Path(wpp_mori.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"wpp_mori imported from {wpp_mori.__file__}, not {SRC}")


def run_items(workload, items, tracer=None):
    """Time each item.

    Returns (wall seconds per item, CPU seconds per item, record or None,
    error or None, wall_s of the pass).
    """
    times, cpu_times, records, errors = [], [], [], []
    workload.begin()
    try:
        t0 = time.perf_counter()
        for i, item in enumerate(items):
            if tracer is not None:
                tracer.item = i
            start, cpu_start = time.perf_counter(), time.process_time()
            try:
                out = workload.run(item)
                error = None
            except Exception as e:  # an item failure is counted, the pass goes on
                error = f"{type(e).__name__}: {e}"
            cpu_times.append(time.process_time() - cpu_start)
            times.append(time.perf_counter() - start)
            if tracer is not None:
                tracer.item = -1
            record = None
            if error is None:
                try:
                    record = workload.record(out)
                except Exception as e:
                    error = f"record: {type(e).__name__}: {e}"
            records.append(record)
            errors.append(error)
        wall = time.perf_counter() - t0
    finally:
        workload.end()
    return times, cpu_times, records, errors, wall


def main(argv=None):
    args = parse_args(argv)
    import_library()
    import workloads

    workload = workloads.Workload(args.workload)
    pool = workload.pool()
    order = workloads.cost_order()[args.workload]
    keys = workloads.choose_keys(args.workload, args.seed, list(pool), order, args.smoke)
    items = workload.prepare(keys, pool)
    print(f"READY {time.process_time()!r}", flush=True)
    if args.setup_only:
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        times, cpu_times, records, errors, wall = run_items(workload, items, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    result = {
        "keys": keys,
        "times": times,
        "cpu_times": cpu_times,
        "records": records,
        "errors": errors,
        "wall_s": wall,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        result["layers"] = tracer.layer_stats()
        result["item_layers"] = {
            keys[i]: per for i, per in tracer.item_self_times().items() if i >= 0
        }
        result["spans"] = len(tracer.spans)
        tracer.write_spans(args.trace, keys)
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
