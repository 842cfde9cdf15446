"""Steadiness check: run one workload over several seeds and report metric spreads.

For each end-to-end metric it prints the spread of the runs, (Q3 - Q1) /
median with `statistics.quantiles(n=4)`, beside the metric's bound from
BENCHMARK.json; a spread should stay below a third of its bound.  With
--traced N it also runs N traced passes on the first seed and requires every
non-time per-layer metric (call counts, rows, cells, basis sizes) to be
identical across them.  Exit code 1 if a spread exceeds its bound or a count
differs.

    python3 bench/steady.py --workload scan_c13 --seeds 1 2 3 4 5 --traced 2
"""

import argparse
import json
import statistics
import subprocess
import sys

from run import OUT_DIR, ROOT

SPREAD_EXEMPT = ("setup_s",)


def bench_config():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
    p.add_argument("--traced", type=int, default=0, help="traced runs on the first seed")
    args = p.parse_args(argv)
    config = bench_config()
    ok = True

    runs = []
    for seed in args.seeds:
        res = run_once(args.workload, seed, config["run_seconds"], 0)
        ok &= res["correct"]
        runs.append(res)
        print(f"seed {seed}: " + ", ".join(
            f"{m} {v['value']:.4g}" for m, v in res["metrics"].items()), flush=True)
    report = {"workload": args.workload, "seeds": args.seeds, "runs": runs, "spreads": {}}
    if len(runs) >= 2:
        for metric in config["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [r["metrics"][name]["value"] for r in runs]
            s = spread(values)
            report["spreads"][name] = s
            verdict = "ok" if s < bound / 3 else "WIDE" if s <= bound else "OVER"
            if s > bound and name not in SPREAD_EXEMPT:
                ok = False
            print(f"{name:13s} median {statistics.median(values):12.4f} "
                  f"spread {s:.4f} bound {bound} ({verdict})")

    traced = [run_once(args.workload, args.seeds[0], config["run_seconds"], 1)
              for _ in range(args.traced)]
    for res in traced:
        ok &= res["correct"]
    if traced:
        exact = {
            m: [r["metrics"][m]["value"] for r in traced]
            for m, v in traced[0]["metrics"].items() if v["unit"] != "s"
        }
        differ = {m: vs for m, vs in exact.items() if len(set(vs)) > 1}
        report["traced"] = traced
        report["differing_counts"] = differ
        print(f"{len(traced)} traced runs: {len(exact)} exact metrics, "
              f"{len(differ)} differ {sorted(differ) if differ else ''}")
        ok &= not differ

    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"steady_{args.workload}.json").write_text(json.dumps(report, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
