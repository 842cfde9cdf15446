"""Benchmark of wpp_mori: two workloads, golden-checked outputs, a traced layer split.

One workload (the last stdout line is the JSON result; --trace 1 gives the
per-layer metrics of one traced pass instead of the end-to-end metrics):

    python3 bench/run.py --workload scan_c13 --seed 1 --seconds 60 --trace 0

Both workloads, untraced and then traced, with the tracing overhead:

    python3 bench/run.py

Two cheap items per workload, as a smoke test:

    python3 bench/run.py --smoke

Every timed pass runs in a fresh interpreter (bench/child.py), so each pays
the library's cache fills as a CLI call does.  Passes repeat while another
one fits in --seconds.  Times are the process's CPU seconds, and every
metric is a median over the run's passes.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = workloads.OUT_DIR
CHILD = BENCH_DIR / "child.py"

DEFAULT_SEED = 1
DEFAULT_SECONDS = 60
SETUP_ONLY = 4
TAIL_BEYOND = 10
CHILD_TIMEOUT = 150

# Printed for every workload.  The JSON result line, and BENCHMARK.json,
# leave out UNBOUNDED: wall_s also counts time in which the host runs other
# guests, and on a shared 2-core machine the run-to-run spread of the item
# order statistics comes close to the largest bound a metric may have (see
# README.md).
END_TO_END = (
    ("setup_s", "s"),
    ("solve_cpu_s", "s"),
    ("wall_s", "s"),
    ("item_p50_ms", "ms"),
    ("item_tail_ms", "ms"),
    ("item_max_s", "s"),
    ("peak_rss_mb", "MB"),
)
UNBOUNDED = ("wall_s", "item_p50_ms", "item_tail_ms", "item_max_s")

# (function as traced, statistic, unit); see README.md for which end-to-end
# metric each should move and on which workload.
PER_LAYER = (
    ("linalg.rank", "calls", "count"),
    ("linalg.rank", "self_s", "s"),
    ("linalg.rank", "max_cells", "count"),
    ("linalg.kernel_basis", "calls", "count"),
    ("linalg.kernel_basis", "self_s", "s"),
    ("linalg.kernel_basis", "max_cells", "count"),
    ("linalg.in_span", "calls", "count"),
    ("linalg.in_span", "self_s", "s"),
    ("mult.condition_matrix", "calls", "count"),
    ("mult.condition_matrix", "self_s", "s"),
    ("mult.condition_matrix", "rows", "count"),
    ("mult.slice_dim", "calls", "count"),
    ("mult.slice_dim", "nonzero_ratio", "ratio"),
    ("mult.slice_kernel_vectors", "calls", "count"),
    ("mult.slice_kernel_vectors", "total_s", "s"),
    ("mult.rees_multiplicity", "calls", "count"),
    ("mult.rees_multiplicity", "self_s", "s"),
    ("orthpair.find_f1", "total_s", "s"),
    ("orthpair.find_f2", "total_s", "s"),
    ("orthpair.check_pair", "calls", "count"),
    ("orthpair.check_pair", "total_s", "s"),
    ("poly.SparsePoly.init", "calls", "count"),
    ("poly.SparsePoly.init", "self_s", "s"),
    ("poly.SparsePoly.mul", "calls", "count"),
    ("poly.SparsePoly.mul", "self_s", "s"),
    ("poly.SparsePoly.substitute", "total_s", "s"),
    ("groebner.buchberger", "calls", "count"),
    ("groebner.buchberger", "self_s", "s"),
    ("groebner.buchberger", "max_basis", "count"),
    ("groebner.normal_form", "calls", "count"),
    ("groebner.normal_form", "self_s", "s"),
    ("groebner.saturate", "total_s", "s"),
    ("groebner.ideal_equal", "total_s", "s"),
    ("groebner.quotient_by", "total_s", "s"),
    ("groebner.krull_dimension", "total_s", "s"),
    ("coxring.verify_presentation", "calls", "count"),
    ("coxring.verify_presentation", "self_s", "s"),
    ("coxring.verify_presentation", "total_s", "s"),
    ("verifygens.discover_saturation_element", "calls", "count"),
    ("verifygens.discover_saturation_element", "total_s", "s"),
    ("weights.monomials_of_degree", "calls", "count"),
    ("weights.monomials_of_degree", "self_s", "s"),
    ("cli.scan_triples", "self_s", "s"),
)

# Workloads on which every MoriDream verdict must pass through check_pair.
CHECK_PAIR_WORKLOADS = ("scan_c13",)


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


# -- run stamp ---------------------------------------------------------------


def git_sha():
    """HEAD commit read from the checkout's .git files, or None outside a repository."""
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        if (git / name).is_file():
            return (git / name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def stamp(seed):
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "seed": seed,
    }


# -- child passes -----------------------------------------------------------


def spawn(workload, seed, *, result=None, smoke=False, trace=None):
    """Run one child pass; return its set-up time (CPU seconds up to READY)."""
    cmd = [sys.executable, str(CHILD), "--workload", workload, "--seed", str(seed)]
    if result is None:
        cmd.append("--setup-only")
    else:
        cmd += ["--result", str(result)]
    if smoke:
        cmd.append("--smoke")
    if trace is not None:
        cmd += ["--trace", str(trace)]
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    setup = None
    try:
        for line in proc.stdout:
            if line.startswith("READY "):
                setup = float(line.split()[1])
                break
        proc.stdout.close()
        code = proc.wait(timeout=CHILD_TIMEOUT)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0 or setup is None:
        raise BenchError(f"{workload}: child pass exited with code {code}")
    return setup


def item_stats(times):
    """Median, tail and max of per-item times, and the index of the slowest item.

    The tail is the highest percentile with at least TAIL_BEYOND items above
    it; a workload of TAIL_BEYOND items or fewer has none, and falls back to
    its smallest item.
    """
    s = sorted(times)
    k = max(1, len(s) - TAIL_BEYOND)
    return {
        "p50": statistics.median(s),
        "tail": s[k - 1],
        "tail_pct": 100.0 * k / len(s),
        "max": s[-1],
        "argmax": times.index(s[-1]),
    }


def check_records(name, passes):
    """Keys that failed or mismatched the golden records, over all passes."""
    golden = workloads.load_golden(name)["records"]
    bad = []
    for p in passes:
        bad += workloads.mismatches(list(zip(p["keys"], p["records"])), golden)
    return bad


def run_workload(name, seed, seconds, trace, smoke=False):
    """Run one workload; return a summary dict with metrics and checks."""
    OUT_DIR.mkdir(exist_ok=True)
    result_path = OUT_DIR / f"pass_{name}_{os.getpid()}.json"
    setups, passes = [], []
    spans_path = OUT_DIR / f"spans_{name}.tsv" if trace else None
    if not trace and not smoke:
        setups += [spawn(name, seed) for _ in range(SETUP_ONLY)]
    begin = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        setups.append(spawn(name, seed, result=result_path, smoke=smoke, trace=spans_path))
        passes.append(json.loads(result_path.read_text()))
        result_path.unlink()
        now = time.perf_counter()
        if trace or smoke or now - begin + (now - pass_start) > seconds:
            break

    bad = check_records(name, passes)
    for p in passes:
        for key, error in zip(p["keys"], p["errors"]):
            if error:
                print(f"{name}: item {key} raised {error}", file=sys.stderr)
    for key in bad:
        print(f"{name}: item {key} differs from its golden record", file=sys.stderr)
    attempted = sum(len(p["keys"]) for p in passes)
    failed = len(bad)
    first = passes[0]
    summary = {
        "workload": name,
        "seed": seed,
        "passes": len(passes),
        "items": len(first["keys"]),
        "attempted": attempted,
        "fingerprint": workloads.fingerprint(zip(first["keys"], first["records"])),
    }
    if trace:
        layers = first["layers"]
        if name in CHECK_PAIR_WORKLOADS:
            mori = sum(1 for r in first["records"] if r and r["verdict"] == "MoriDream")
            calls = layers["orthpair.check_pair"]["calls"]
            summary["check_pair_invariant"] = calls == mori
            if calls != mori:
                failed += 1
                print(f"{name}: check_pair ran {calls} times for {mori} MoriDream verdicts",
                      file=sys.stderr)
        summary["layers"] = layers
        summary["item_layers"] = first["item_layers"]
        summary["item_times"] = dict(zip(first["keys"], first["times"]))
        summary["spans"] = first["spans"]
        summary["spans_file"] = str(spans_path.relative_to(ROOT))
        summary["traced_wall_s"] = first["wall_s"]
        metrics = {}
        for fn, stat, unit in PER_LAYER:
            value = layers.get(fn, {}).get(stat)
            if value is None:
                print(f"{name}: no {fn}.{stat} in the trace; reporting 0", file=sys.stderr)
                value = 0
            metrics[f"{fn}.{stat}"] = {"value": value, "unit": unit}
    else:
        # Every pass runs the same items in the same order.  CPU time leaves
        # out time the process waits while the host runs others; the median
        # over passes damps the bursts in which neighbours slow the CPU.
        cpu = [p["cpu_times"] for p in passes]
        stats = item_stats([statistics.median(ts) for ts in zip(*cpu)])
        values = {
            "setup_s": statistics.median(setups),
            "solve_cpu_s": statistics.median(sum(ts) for ts in cpu),
            "wall_s": statistics.median(p["wall_s"] for p in passes),
            "item_p50_ms": 1000 * stats["p50"],
            "item_tail_ms": 1000 * stats["tail"],
            "item_max_s": stats["max"],
            "peak_rss_mb": statistics.median(p["peak_rss_kb"] for p in passes) / 1024,
        }
        metrics = {
            m: {"value": values[m], "unit": unit}
            for m, unit in END_TO_END if m not in UNBOUNDED
        }
        summary["values"] = values
        summary["setup_samples"] = len(setups)
        summary["tail_pct"] = stats["tail_pct"]
        summary["max_item"] = first["keys"][stats["argmax"]]
    summary["failed"] = failed
    summary["failed_frac"] = failed / attempted
    summary["metrics"] = metrics
    return summary


# -- reporting --------------------------------------------------------------


def print_summary(s):
    head = (
        f"{s['workload']}: seed {s['seed']}, {s['items']} items x {s['passes']} pass(es), "
        f"failed_frac {s['failed_frac']:.4g} ({s['failed']} of {s['attempted']})"
    )
    print(head)
    print(f"  fingerprint {s['fingerprint']}")
    if "layers" in s:
        print(f"  traced wall_s {s['traced_wall_s']:.3f} s, {s['spans']} spans in {s['spans_file']}")
        wall = s["traced_wall_s"]
        top = sorted(s["layers"].items(), key=lambda kv: -kv[1]["self_s"])[:6]
        for fn, st in top:
            print(f"  self {fn:40s} {st['self_s']:9.3f} s {100 * st['self_s'] / wall:5.1f}%"
                  f"  calls {st['calls']}")
        key, t = max(s["item_times"].items(), key=lambda kv: kv[1])
        per = sorted(s["item_layers"].get(key, {}).items(), key=lambda kv: -kv[1])[:3]
        split = ", ".join(f"{fn} {100 * v / t:.1f}%" for fn, v in per)
        print(f"  slowest item {key}: {t:.3f} s; self time {split}")
        return
    for m, unit in END_TO_END:
        v = s["values"][m]
        note = ""
        if m == "setup_s":
            note = f"(median of {s['setup_samples']})"
        elif m == "item_tail_ms":
            note = f"(p{s['tail_pct']:.1f} of {s['items']} items)"
        elif m == "item_max_s":
            note = f"({s['max_item']})"
        print(f"  {m:13s} {v:12.4f} {unit:3s} {note}")
    print(f"  {'failed_frac':13s} {s['failed_frac']:12.4f} -")


def result_line(summaries, prefixed):
    metrics = {}
    for s in summaries:
        for m, v in s["metrics"].items():
            metrics[f"{s['workload']}.{m}" if prefixed else m] = v
    failed = sum(s["failed"] for s in summaries)
    return {
        "correct": failed == 0,
        "attempted": sum(s["attempted"] for s in summaries),
        "failed": failed,
        "metrics": metrics,
    }


def write_result(tag, seed, summaries, extra=None):
    record = {
        "stamp": stamp(seed),
        "runs": [
            {k: v for k, v in s.items() if k not in ("item_layers", "item_times")}
            for s in summaries
        ],
    }
    record.update(extra or {})
    path = OUT_DIR / f"result_{tag}_s{seed}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return path


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=workloads.NAMES + ("all",), default="all")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="two cheap items per workload")
    return p.parse_args(argv)


def preflight():
    missing = [
        str(p.relative_to(ROOT))
        for p in [ROOT / "src" / "wpp_mori" / "__init__.py", workloads.COST_ORDER]
        + [workloads.golden_path(n) for n in workloads.NAMES]
        if not p.is_file()
    ]
    if missing:
        raise BenchError(f"missing {', '.join(missing)}; run from a full checkout")


def main(argv=None):
    args = parse_args(argv)
    try:
        preflight()
        print(f"# stamp {json.dumps(stamp(args.seed), sort_keys=True)}", flush=True)
        if args.workload != "all":
            s = run_workload(args.workload, args.seed, args.seconds, args.trace == 1, args.smoke)
            print_summary(s)
            path = write_result(f"{args.workload}_t{args.trace}", args.seed, [s])
            print(f"# result file {path.relative_to(ROOT)}")
            print(json.dumps(result_line([s], prefixed=False)))
            return 0
        summaries, overhead = [], {}
        for name in workloads.NAMES:
            plain = run_workload(name, args.seed, args.seconds, False, args.smoke)
            print_summary(plain)
            traced = run_workload(name, args.seed, args.seconds, True, args.smoke)
            print_summary(traced)
            wall = plain["values"]["wall_s"]
            overhead[name] = traced["traced_wall_s"] / wall
            print(f"  tracing overhead: traced wall_s / untraced wall_s = {overhead[name]:.3f}",
                  flush=True)
            summaries += [plain, traced]
        path = write_result("all", args.seed, summaries, {"trace_overhead": overhead})
        print(f"# result file {path.relative_to(ROOT)}")
        print(json.dumps(result_line(summaries, prefixed=True)))
        return 0
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
