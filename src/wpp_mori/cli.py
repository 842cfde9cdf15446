"""Command-line interface: single-triple queries and the batch scan harness."""

import argparse
import json
import os
import sys
import time
from contextlib import nullcontext
from pathlib import Path

from . import __version__, coxring, groebner, m0n, orthpair, verifygens
from .weights import WeightTriple, coprime_triples  # callers also import cli.coprime_triples

ENGINE = f"wpp-mori {__version__}"

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_RESOURCE = 3


class InputError(Exception):
    """Invalid user input: bad weights, malformed files, missing sections."""


def _triple(args):
    try:
        return WeightTriple(args.a, args.b, args.c)
    except ValueError as e:
        raise InputError(str(e)) from e


def _check_mu_cap(args):
    if args.mu_cap < 1:
        raise InputError("--mu-cap must be at least 1")


def _print_json(data):
    print(json.dumps(data, sort_keys=True))


def _class_dict(cls):
    out = {"variant": cls.variant}
    if cls.reordering:
        out["reordering"] = list(cls.reordering)
    for key in ("alpha", "beta", "n", "m"):
        value = getattr(cls, key)
        if value is not None:
            out[key] = value
    return out


def _pair_dict(pair):
    return {
        "d1": pair.d1,
        "mu1": pair.mu1,
        "d2": pair.d2,
        "mu2": pair.mu2,
        "f1": str(pair.f1),
        "f2": str(pair.f2),
    }


def cmd_classify(args):
    w = _triple(args)
    cls = coxring.classify(w)
    if args.json:
        _print_json(_class_dict(cls))
        return EXIT_OK
    print(f"{w.as_tuple()}: {cls.variant}")
    if cls.is_kstar:
        a, b, c = cls.reordering
        print(f"  reordered (a,b,c) = ({a},{b},{c}); a = {cls.alpha}*{b} + {cls.beta}*{c}")
    elif cls.is_mult2:
        a, b, c = cls.reordering
        print(f"  reordered (a,b,c) = ({a},{b},{c}); 2*{a} = {cls.n}*{b} + {cls.m}*{c}")
    return EXIT_OK


def cmd_coxring(args):
    w = _triple(args)
    _check_mu_cap(args)
    cls = coxring.classify(w)
    if cls.is_kstar:
        pres = coxring.kstar_presentation(w)
    elif cls.is_mult2:
        pres = coxring.mult2_presentation(w)
    else:
        verdict = orthpair.mds_test(w, args.mu_cap)
        if args.json:
            data = {"variant": "Other", "verdict": verdict.outcome}
            if verdict.pair:
                data["pair"] = _pair_dict(verdict.pair)
            _print_json(data)
        else:
            print(f"{w.as_tuple()}: no presentation in the solved regimes")
            print(f"  pair search verdict: {verdict.outcome}")
            if verdict.pair:
                print(f"  pair signature: {verdict.pair.signature()}")
        return EXIT_OK
    report = coxring.verify_presentation(w, pres)
    if args.json:
        _print_json(
            {
                "variant": pres.variant,
                "weights": list(pres.weights),
                "degrees": {g: list(pres.degrees[g]) for g in pres.generators},
                "rees": pres.rees,
                "relations": [str(r) for r in pres.relations],
                "verified": report.ok,
                "checks": {c.name: c.passed for c in report.checks},
            }
        )
        return EXIT_OK if report.ok else 1
    print(coxring.presentation_text(pres))
    print("verification:")
    for c in report.checks:
        print(f"  {c.name}: {'ok' if c.passed else 'FAIL'} ({c.detail})")
    return EXIT_OK if report.ok else 1


def cmd_mds_test(args):
    w = _triple(args)
    _check_mu_cap(args)
    verdict = orthpair.mds_test(w, args.mu_cap)
    if args.json:
        data = {"verdict": verdict.outcome, "mu_cap": args.mu_cap}
        if verdict.pair:
            data["pair"] = _pair_dict(verdict.pair)
        _print_json(data)
        return EXIT_OK
    print(f"{w.as_tuple()}: {verdict.outcome}")
    if verdict.pair:
        p = verdict.pair
        print(f"  (d1, mu1, d2, mu2) = {p.signature()}")
        print(f"  f1 = {p.f1}")
        print(f"  f2 = {p.f2}")
    else:
        print(f"  no orthogonal pair with multiplicities <= {args.mu_cap}")
    return EXIT_OK


def _scan_one(task):
    """One scan record; a triple whose search raises gets an Error record instead.

    Catching here keeps one failing triple from aborting a `--workers` pool.
    """
    a, b, c, mu_cap = task
    start = time.monotonic()
    record = {"a": a, "b": b, "c": c, "mu_cap": mu_cap}
    try:
        verdict = orthpair.mds_test(WeightTriple(a, b, c), mu_cap)
    except Exception as e:
        record["verdict"] = "Error"
        record["signature"] = None
        record["error"] = f"{type(e).__name__}: {e}"
    else:
        record["verdict"] = verdict.outcome
        record["signature"] = list(verdict.pair.signature()) if verdict.pair else None
    record["wall_time"] = round(time.monotonic() - start, 3)
    record["engine"] = ENGINE
    return record


def cache_dir():
    root = os.environ.get("WPP_MORI_CACHE")
    if root:
        return Path(root)
    return Path.home() / ".cache" / "wpp-mori"


def load_records(path):
    """Existing scan records keyed by (a, b, c, mu_cap).

    A run killed mid-write leaves its last line cut short.  An unparsable
    last line is dropped, so its triple is recomputed, and cut from the file,
    so the next record starts on a line of its own; a complete last record
    without its newline gets one.  An unparsable line anywhere else is an
    InputError, and so is a parsable line that is not a record.  Error
    records count as missing, so their triples are recomputed.
    """
    records = {}
    if not path.exists():
        return records
    lines = path.read_bytes().splitlines(keepends=True)
    decode = json.JSONDecoder().decode
    partial = None  # (line number, byte offset) of an unparsable line
    offset = 0
    for n, line in enumerate(lines, 1):
        start, offset = offset, offset + len(line)
        if not line.strip():
            continue
        if partial is not None:
            raise InputError(f"{path}: line {partial[0]}: unparsable scan record")
        try:
            rec = decode(line.decode())
        except ValueError:
            # json.loads decides what the fast path refuses: a BOM, another
            # encoding, bytes that are not UTF-8, a line cut short
            try:
                rec = json.loads(line)
            except ValueError:
                partial = (n, start)
                continue
        try:
            if rec["verdict"] != "Error":
                records[(rec["a"], rec["b"], rec["c"], rec["mu_cap"])] = rec
        except (KeyError, TypeError):
            raise InputError(f"{path}: line {n}: not a scan record") from None
    if partial is not None:
        with path.open("r+b") as fh:
            fh.truncate(partial[1])
    elif lines and not lines[-1].endswith(b"\n"):
        with path.open("ab") as fh:
            fh.write(b"\n")
    return records


def scan_triples(triples, mu_cap, out_path, workers=1):
    """Run mds_test over the triples, appending new records to out_path.

    Existing records for the same triple and mu_cap are not recomputed.
    Returns all records for the requested triples, in sorted triple order.
    """
    out_path = Path(out_path)
    try:
        out_path.parent.mkdir(parents=True, exist_ok=True)
        existing = load_records(out_path)
        todo = [
            (a, b, c, mu_cap)
            for (a, b, c) in triples
            if (a, b, c, mu_cap) not in existing
        ]
        out = out_path.open("a") if todo else None
    except OSError as e:
        raise InputError(f"{out_path}: cannot hold scan records ({e.filename}: {e.strerror})") from e
    if todo:
        # more workers than triples would only start idle processes
        workers = min(workers, len(todo))
        if workers > 1:
            # a serial scan does not pay for this import
            from concurrent.futures import ProcessPoolExecutor
        # one triple left runs in this process, with no pool
        with out as fh, (
            ProcessPoolExecutor(max_workers=workers) if workers > 1 else nullcontext()
        ) as pool:
            for rec in (
                map(_scan_one, todo) if pool is None else pool.map(_scan_one, todo, chunksize=4)
            ):
                fh.write(json.dumps(rec, sort_keys=True) + "\n")
                fh.flush()
                existing[(rec["a"], rec["b"], rec["c"], rec["mu_cap"])] = rec
    return [existing[(a, b, c, mu_cap)] for (a, b, c) in sorted(triples)]


def scan_summary(records):
    """Deterministic text summary listing the inconclusive and the failed triples."""
    inconclusive = sorted(
        (r["a"], r["b"], r["c"]) for r in records if r["verdict"] == "Inconclusive"
    )
    errors = sorted(
        (r["a"], r["b"], r["c"], r["error"]) for r in records if r["verdict"] == "Error"
    )
    lines = [
        f"triples scanned: {len(records)}",
        f"inconclusive: {len(inconclusive)}",
        f"errors: {len(errors)}",
    ]
    lines += [f"  {a} {b} {c}  inconclusive" for a, b, c in inconclusive]
    lines += [f"  {a} {b} {c}  error: {error}" for a, b, c, error in errors]
    return "\n".join(lines)


def cmd_scan(args):
    if args.c_max < 3:
        raise InputError("--c-max must be at least 3")
    _check_mu_cap(args)
    if args.workers < 1:
        raise InputError("--workers must be at least 1")
    out_path = (
        Path(args.out)
        if args.out
        else cache_dir() / f"scan_c{args.c_max}_mu{args.mu_cap}.jsonl"
    )
    triples = coprime_triples(args.c_max)
    records = scan_triples(triples, args.mu_cap, out_path, args.workers)
    print(scan_summary(records))
    print(f"records: {out_path}")
    return EXIT_OK


def cmd_verify_gens(args):
    if args.budget < 0 or args.step_budget < 0:
        raise InputError("--budget and --step-budget must be non-negative")
    try:
        text = Path(args.file).read_text()
    except OSError as e:
        raise InputError(f"cannot read {args.file}: {e}") from e
    try:
        instance = verifygens.parse_instance(text)
    except ValueError as e:
        raise InputError(f"parse error: {e}") from e
    cert = verifygens.verify(
        instance,
        discovery_budget=args.budget,
        step_budget=args.step_budget,
    )
    print(verifygens.certificate_text(cert))
    return EXIT_OK if cert.ok else 1


def cmd_m0n(args):
    try:
        text = Path(args.file).read_text()
    except OSError as e:
        raise InputError(f"cannot read {args.file}: {e}") from e
    try:
        reduction = m0n.parse_reduction(text)
        ok, diags = m0n.verify_reduction(reduction)
    except ValueError as e:
        raise InputError(str(e)) from e
    data = {"verified": ok, "diagnostics": diags}
    if ok:
        images = m0n.quotient_images(reduction)
        data["images"] = images
    if args.json:
        _print_json(data)
        return EXIT_OK if ok else 1
    print(f"verified: {ok}")
    for d in diags:
        print(f"  {d}")
    if ok:
        print(f"quotient images (columns v1, v2, v3): {data['images']}")
    return EXIT_OK if ok else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="wpp-mori",
        description="Mori dream surface tests for blow-ups of weighted projective planes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_triple(p):
        p.add_argument("a", type=int)
        p.add_argument("b", type=int)
        p.add_argument("c", type=int)
        p.add_argument("--json", action="store_true")

    p = sub.add_parser("classify", help="sort a triple into its generation regime")
    add_triple(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("coxring", help="presentation and verification report")
    add_triple(p)
    p.add_argument("--mu-cap", type=int, default=14)
    p.set_defaults(func=cmd_coxring)

    p = sub.add_parser("mds-test", help="orthogonal-pair search")
    add_triple(p)
    p.add_argument("--mu-cap", type=int, default=14)
    p.set_defaults(func=cmd_mds_test)

    p = sub.add_parser("scan", help="batch pair search over coprime triples")
    p.add_argument("--c-max", type=int, required=True)
    p.add_argument("--mu-cap", type=int, default=14)
    p.add_argument("--out", type=str, default=None)
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("verify-gens", help="verify a Cox ring generator guess")
    p.add_argument("file")
    p.add_argument("--budget", type=int, default=25)
    p.add_argument("--step-budget", type=int, default=groebner.DEFAULT_BUDGET)
    p.set_defaults(func=cmd_verify_gens)

    p = sub.add_parser("m0n", help="verify a lattice reduction file")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_m0n)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INVALID
    except (groebner.StepBudgetExceeded, verifygens.DiscoveryBudgetExceeded) as e:
        print(f"resource limit: {e}", file=sys.stderr)
        return EXIT_RESOURCE


if __name__ == "__main__":
    sys.exit(main())
