"""The two benchmark workloads: item pools, seeded item order, and output records.

Each workload is a pool of items.  An item runs one user-facing computation
of wpp_mori; its record holds the output that the golden file pins.
`Workload` calls the library only through module attributes such as
`cli.scan_triples`, so the tracer's wrappers see every call.  The golden
helpers at the end need no wpp_mori import.
"""

import hashlib
import json
import os
import random
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
GOLDEN_DIR = BENCH_DIR / "golden"
COST_ORDER = GOLDEN_DIR / "cost_order.json"
OUT_DIR = BENCH_DIR.parent / ".bench_out"

NAMES = ("scan_c13", "mult2_suite")

# Every run repeats its pass, and reports medians over passes (see run.py),
# so each pass is kept to a few seconds.  (9,10,13) at mu_cap 14 alone takes
# about 20 s; at 11 it takes about 2 s, two thirds of the pass.
SCAN_C_MAX, SCAN_MU_CAP = 13, 11
MULT2_C_MAX = 40
# The mult2_suite triples: every MULT2_STEP-th triple of the pool in (a, b, c)
# order, starting from the middle of the first run of MULT2_STEP, so the
# sample spans small to large weights.  It is the same on every seed (the seed
# only orders it), because runs on different seeds must do the same work.
MULT2_STEP = 16
# Generator guesses x, y, z, f1..f4 (product xyz) of small Mult2 triples, run
# through verifygens: a few large eliminations beside many small ones.  The
# packaged fixture verify_gens_7_3_11 (about 12 s) and the guess for (5,7,9)
# (about 9 s) are left out for run length.
VERIFY_GUESSES = ((3, 4, 5), (3, 5, 7))
GUESS_PREFIX = "mult2_fs_"
SMOKE_ITEMS = 2


def triple_key(t):
    return ",".join(str(x) for x in t)


def cost_order():
    """Pool keys of every workload, cheapest first, as measured for the golden files."""
    return json.loads(COST_ORDER.read_text())


def choose_keys(name, seed, pool_keys, order, smoke=False):
    """The keys a run executes, in run order: a seeded permutation."""
    if sorted(pool_keys) != sorted(order):
        raise ValueError(f"{name}: item pool differs from the golden cost order")
    rng = random.Random(f"{name}:{seed}")
    if smoke:
        keys = list(order[:SMOKE_ITEMS])
    elif name == "mult2_suite":
        guesses = [k for k in order if k.startswith(GUESS_PREFIX)]
        triples = sorted(
            (k for k in order if not k.startswith(GUESS_PREFIX)),
            key=lambda k: tuple(int(x) for x in k.split(",")),
        )
        keys = guesses + triples[MULT2_STEP // 2::MULT2_STEP]
    else:
        keys = list(order)
    rng.shuffle(keys)
    return keys


class Workload:
    """Item generation and execution for one workload, inside the child process."""

    def __init__(self, name):
        from wpp_mori import cli, coxring, orthpair, verifygens
        from wpp_mori.weights import WeightTriple

        self.name = name
        self.cli, self.coxring, self.orthpair, self.verifygens = (
            cli, coxring, orthpair, verifygens)
        self.WeightTriple = WeightTriple
        self.scan_path = None
        self._captured = []

    # -- set-up: the item pool ------------------------------------------

    def pool(self):
        """Mapping key -> item input for every item of the workload's pool."""
        if self.name == "scan_c13":
            return {triple_key(t): t for t in self.cli.coprime_triples(SCAN_C_MAX)}
        if self.name == "mult2_suite":
            pool = {
                triple_key(t): t
                for t in self.cli.coprime_triples(MULT2_C_MAX)
                if self.coxring.classify(self.WeightTriple(*t)).is_mult2
            }
            pool.update(self._verify_texts())
            return pool
        raise ValueError(f"unknown workload {self.name!r}")

    def _verify_texts(self):
        texts = {}
        for t in VERIFY_GUESSES:
            cls = self.coxring.classify(self.WeightTriple(*t))
            lines = [
                f"weights: {' '.join(str(x) for x in cls.reordering)}",
                "vars: x y z",
                *(f"ideal: {f}" for f in self.coxring.mult2_fs(cls)),
                "product: x*y*z",
            ]
            texts[GUESS_PREFIX + "_".join(str(x) for x in t)] = "\n".join(lines) + "\n"
        return texts

    def prepare(self, keys, pool):
        """Item inputs ready to run, in run order (generator guesses are parsed here)."""
        if self.name == "mult2_suite":
            return [
                self.verifygens.parse_instance(pool[k]) if k.startswith(GUESS_PREFIX) else pool[k]
                for k in keys
            ]
        if self.name == "scan_c13":
            OUT_DIR.mkdir(exist_ok=True)
            self.scan_path = OUT_DIR / f"scan_c13_{os.getpid()}.jsonl"
            self.scan_path.unlink(missing_ok=True)
        return [pool[k] for k in keys]

    # -- timed part ---------------------------------------------------------

    def run(self, item):
        """Run one item and return its raw output (the timed part)."""
        if self.name == "scan_c13":
            (rec,) = self.cli.scan_triples([item], SCAN_MU_CAP, self.scan_path)
            return rec, self._captured.pop()
        if not isinstance(item, tuple):
            return self.verifygens.verify(item)
        w = self.WeightTriple(*item)
        self.coxring.classify(w)
        pres = self.coxring.mult2_presentation(w)
        return pres, self.coxring.verify_presentation(w, pres)

    def begin(self):
        """Start capturing the verdicts that `cli.scan_triples` does not return."""
        if self.name != "scan_c13":
            return
        mds_test = self.orthpair.mds_test
        captured = self._captured

        def capture(*args, **kwargs):
            verdict = mds_test(*args, **kwargs)
            captured.append(verdict)
            return verdict

        self._restore = mds_test
        self.orthpair.mds_test = capture

    def end(self):
        if self.name == "scan_c13":
            self.orthpair.mds_test = self._restore
            self.scan_path.unlink(missing_ok=True)

    # -- records ----------------------------------------------------------

    def record(self, out):
        """The golden-comparable record of one item's output."""
        if self.name == "scan_c13":
            rec, verdict = out
            return _pair_record(rec["verdict"], rec["signature"], verdict.pair)
        if not isinstance(out, tuple):
            return {"certificate": self.verifygens.certificate_text(out)}
        pres, report = out
        return {
            "presentation": self.coxring.presentation_text(pres),
            "checks": [[c.name, c.passed] for c in report.checks],
        }


def _pair_record(verdict, signature, pair):
    return {
        "verdict": verdict,
        "signature": signature,
        "f1": str(pair.f1) if pair else None,
        "f2": str(pair.f2) if pair else None,
    }


# -- golden records (parent side; needs no wpp_mori import) -----------------


def golden_path(name):
    return GOLDEN_DIR / f"{name}.json"


def load_golden(name):
    return json.loads(golden_path(name).read_text())


def mismatches(results, golden):
    """Keys of items that raised or whose record differs from the golden one."""
    return [
        key for key, record in results
        if record is None or golden.get(key) != record
    ]


def fingerprint(results):
    """SHA-256 over the run's (key, record) pairs in sorted key order."""
    h = hashlib.sha256()
    for key, record in sorted(results, key=lambda kr: kr[0]):
        h.update(json.dumps([key, record], sort_keys=True).encode())
        h.update(b"\n")
    return h.hexdigest()
