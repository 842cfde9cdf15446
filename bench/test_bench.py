"""Tests of the benchmark itself: golden checks, seeding, tracer hygiene, smoke mode.

    python3 -m pytest bench/test_bench.py
"""

import json
import subprocess
import sys
import time

import pytest

import run
import workloads
from child import import_library
from tracer import Tracer

import_library()

from wpp_mori import mult, poly  # noqa: E402
from wpp_mori.weights import WeightTriple  # noqa: E402


def test_corrupted_record_counts_as_failure():
    golden = workloads.load_golden("scan_c13")["records"]
    results = [(k, dict(golden[k])) for k in sorted(golden)[:3]]
    assert workloads.mismatches(results, golden) == []
    bad_key = results[1][0]
    results[1][1]["f2"] = (results[1][1]["f2"] or "") + " + 1"
    results[2] = (results[2][0], None)  # an item that raised
    assert workloads.mismatches(results, golden) == [bad_key, results[2][0]]
    assert workloads.fingerprint(results) != workloads.fingerprint(
        [(k, golden[k]) for k, _ in results])


@pytest.mark.parametrize("name", workloads.NAMES)
def test_golden_covers_the_pool(name):
    order = workloads.cost_order()[name]
    pool = workloads.Workload(name).pool()
    assert sorted(order) == sorted(pool)
    assert sorted(workloads.load_golden(name)["records"]) == sorted(pool)


def test_seed_fixes_items_and_order():
    orders = workloads.cost_order()
    for name in workloads.NAMES:
        order = orders[name]
        first = workloads.choose_keys(name, 7, order, order)
        assert first == workloads.choose_keys(name, 7, list(reversed(order)), order)
    order = orders["mult2_suite"]
    a = workloads.choose_keys("mult2_suite", 1, order, order)
    b = workloads.choose_keys("mult2_suite", 2, order, order)
    guesses = [k for k in order if k.startswith(workloads.GUESS_PREFIX)]
    triples = sorted((tuple(int(x) for x in k.split(",")), k) for k in order if k not in guesses)
    assert len(guesses) == len(workloads.VERIFY_GUESSES)
    # the same work on every seed: every guess and a fixed spread of triples
    assert sorted(a) == sorted(b) == sorted(guesses + [k for _, k in triples[8::16]])
    assert a != b
    scan = orders["scan_c13"]
    assert workloads.choose_keys("scan_c13", 1, scan, scan) != workloads.choose_keys(
        "scan_c13", 2, scan, scan)


def test_stale_pool_is_refused():
    order = workloads.cost_order()["scan_c13"]
    with pytest.raises(ValueError):
        workloads.choose_keys("scan_c13", 1, order[1:], order)


def _bindings():
    from tracer import MODULES
    import importlib

    out = {}
    for m in MODULES:
        mod = importlib.import_module(f"wpp_mori.{m}")
        out.update({(m, k): v for k, v in vars(mod).items()})
    out.update({("SparsePoly", k): v for k, v in vars(poly.SparsePoly).items()})
    return out


def test_install_and_uninstall_restore_every_attribute():
    before = _bindings()
    tracer = Tracer()
    tracer.install()
    try:
        during = _bindings()
        changed = {k for k in before if during[k] is not before[k]}
        # wrapped where the caller looks the name up, not only at its definition
        assert ("mult", "monomials_of_degree") in changed
        assert ("weights", "monomials_of_degree") in changed
        assert ("SparsePoly", "__init__") in changed
        assert ("poly", "grevlex_key") not in changed
        assert ("mult", "binom_int") not in changed
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_spans_nest_and_self_times_add_up():
    tracer = Tracer()
    tracer.install()
    try:
        tracer.item = 0
        dim = mult.slice_dim(WeightTriple(2, 3, 5), 30, 3)
    finally:
        tracer.uninstall()
    assert dim == mult.slice_dim(WeightTriple(2, 3, 5), 30, 3)
    names = [tracer.names[s[0]] for s in tracer.spans]
    assert names[0] == "mult.slice_dim"
    assert {"mult.condition_matrix", "weights.monomials_of_degree", "linalg.rank"} <= set(names)
    root = tracer.spans[0]
    assert all(s[1] >= 0 for s in tracer.spans[1:]) and root[1] == -1
    stats = tracer.layer_stats()
    total_self = sum(s["self_s"] for s in stats.values())
    assert total_self == pytest.approx(root[4] - root[3], rel=1e-9)
    assert stats["mult.slice_dim"]["calls"] == 1
    assert stats["mult.slice_dim"]["nonzero_ratio"] == (1 if dim > 0 else 0)
    assert stats["linalg.rank"]["max_cells"] > 0


def test_item_stats_tail_has_ten_items_beyond():
    s = run.item_stats([float(i) for i in range(1, 125)])
    assert s["tail"] == 114.0 and s["max"] == 124.0 and s["p50"] == 62.5
    assert run.item_stats([2.0, 5.0, 1.0])["argmax"] == 1
    assert run.item_stats([3.0, 1.0])["tail"] == 1.0


def test_benchmark_json_lists_the_reported_metrics():
    config = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in config["end_to_end"]] == [
        (m, unit) for m, unit in run.END_TO_END if m not in run.UNBOUNDED]
    assert [m["name"] for m in config["per_layer"]] == [
        f"{fn}.{stat}" for fn, stat, _ in run.PER_LAYER]
    assert [w["name"] for w in config["workloads"]] == list(workloads.NAMES)


def test_smoke_mode_runs_every_workload():
    start = time.perf_counter()
    out = subprocess.run(
        [sys.executable, str(run.BENCH_DIR / "run.py"), "--smoke", "--seed", "3"],
        cwd=run.ROOT, capture_output=True, text=True, check=True, timeout=300,
    ).stdout
    result = json.loads(out.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    # two items per workload, run untraced and traced
    assert result["attempted"] == 2 * 2 * len(workloads.NAMES)
    for name in workloads.NAMES:
        for m, _ in run.END_TO_END:
            if m not in run.UNBOUNDED:
                assert result["metrics"][f"{name}.{m}"]["value"] > 0
        for fn, stat, _ in run.PER_LAYER:
            assert f"{name}.{fn}.{stat}" in result["metrics"]
    record = json.loads((run.OUT_DIR / "result_all_s3.json").read_text())
    traced = [r for r in record["runs"] if "layers" in r]
    assert {r["workload"]: r.get("check_pair_invariant") for r in traced} == {
        "scan_c13": True, "mult2_suite": None}
    assert time.perf_counter() - start < 120
