"""Command-line interface: exit codes, JSON output, resumable scans."""

import concurrent.futures
import importlib.resources as ir
import json

import pytest

from wpp_mori import cli


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_ok(capsys):
    code, out, _ = run(capsys, "classify", "7", "3", "11")
    assert code == 0
    assert "Mult2" in out


def test_classify_json(capsys):
    code, out, _ = run(capsys, "classify", "7", "3", "11", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["variant"] == "Mult2"
    assert data["reordering"] == [7, 3, 11]
    assert (data["n"], data["m"]) == (1, 1)


def test_invalid_weights_exit_2(capsys):
    code, _, err = run(capsys, "classify", "2", "4", "5")
    assert code == 2
    assert "error:" in err


def test_mds_test_json_round_trip(capsys):
    code, out, _ = run(capsys, "mds-test", "2", "3", "5", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == "MoriDream"
    pair = data["pair"]
    assert (pair["d1"], pair["mu1"], pair["d2"], pair["mu2"]) == (5, 1, 6, 1)
    assert pair["f1"] == "x*y - z"


def test_mds_test_inconclusive(capsys):
    code, out, _ = run(capsys, "mds-test", "9", "10", "13", "--mu-cap", "3", "--json")
    assert code == 0
    assert json.loads(out)["verdict"] == "Inconclusive"


def test_coxring_kstar(capsys):
    code, out, _ = run(capsys, "coxring", "2", "3", "7", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["variant"] == "KStar"
    assert data["verified"] is True


def test_coxring_other(capsys):
    code, out, _ = run(capsys, "coxring", "9", "10", "13", "--mu-cap", "3", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["variant"] == "Other"
    assert data["verdict"] == "Inconclusive"


def test_scan_resumable(tmp_path, capsys):
    out_file = tmp_path / "scan.jsonl"
    code, out, _ = run(
        capsys, "scan", "--c-max", "5", "--mu-cap", "5", "--out", str(out_file)
    )
    assert code == 0
    assert "inconclusive: 0" in out
    lines = out_file.read_text().splitlines()
    assert lines
    first = json.loads(lines[0])
    assert set(first) >= {"a", "b", "c", "verdict", "signature", "mu_cap", "engine"}
    # second run must not recompute or append
    code, out, _ = run(
        capsys, "scan", "--c-max", "5", "--mu-cap", "5", "--out", str(out_file)
    )
    assert code == 0
    assert out_file.read_text().splitlines() == lines
    # a different mu_cap appends new records instead of reusing old ones
    code, _, _ = run(
        capsys, "scan", "--c-max", "5", "--mu-cap", "6", "--out", str(out_file)
    )
    assert code == 0
    assert len(out_file.read_text().splitlines()) == 2 * len(lines)


def test_scan_resumes_after_truncated_last_record(tmp_path, capsys):
    out_file = tmp_path / "scan.jsonl"
    args = ("scan", "--c-max", "5", "--mu-cap", "5", "--out", str(out_file))
    code, out, _ = run(capsys, *args)
    assert code == 0
    lines = out_file.read_text().splitlines(keepends=True)

    def without_time(line):
        rec = json.loads(line)
        del rec["wall_time"]
        return rec

    # a killed run leaves the last record cut short (with or without its
    # newline), or complete but without its newline
    last = lines[-1]
    for tail in (last[: len(last) // 2], last[:10] + "\n", last.rstrip("\n")):
        out_file.write_text("".join(lines[:-1]) + tail)
        code, resumed, _ = run(capsys, *args)
        assert code == 0
        assert resumed == out
        after = out_file.read_text().splitlines(keepends=True)
        assert after[:-1] == lines[:-1]
        assert after[-1].endswith("\n")
        assert without_time(after[-1]) == without_time(last)
    # an unparsable line before the last one is invalid input
    out_file.write_text("{\n" + "".join(lines))
    code, _, err = run(capsys, *args)
    assert code == 2
    assert "line 1" in err


def test_scan_cache_env(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("WPP_MORI_CACHE", str(tmp_path))
    code, out, _ = run(capsys, "scan", "--c-max", "3", "--mu-cap", "5")
    assert code == 0
    assert (tmp_path / "scan_c3_mu5.jsonl").exists()


@pytest.mark.parametrize("where", ["a directory", "under a file"])
def test_scan_out_that_cannot_hold_records_exit_2(tmp_path, capsys, where):
    if where == "a directory":
        out_path = tmp_path / "records"
        out_path.mkdir()
    else:
        (tmp_path / "plain").write_text("")
        out_path = tmp_path / "plain" / "scan.jsonl"
    code, out, err = run(capsys, "scan", "--c-max", "3", "--mu-cap", "5", "--out", str(out_path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and str(out_path) in err


@pytest.mark.parametrize(
    "line",
    ['{"a": 1}', "[1, 2]", '"text"', '{"a": [3], "b": 4, "c": 5, "mu_cap": 5, "verdict": "MoriDream"}'],
)
def test_scan_line_that_is_not_a_record_exit_2(tmp_path, capsys, line):
    out_file = tmp_path / "scan.jsonl"
    args = ("scan", "--c-max", "3", "--mu-cap", "5", "--out", str(out_file))
    assert run(capsys, *args)[0] == 0
    record = out_file.read_text()
    out_file.write_text(record + line + "\n" + record)
    code, out, err = run(capsys, *args)
    assert code == 2 and out == ""
    assert err == f"error: {out_file}: line 2: not a scan record\n"
    # the file is left as it was
    assert out_file.read_text() == record + line + "\n" + record


def test_load_records_line_kinds(tmp_path, capsys):
    out_file = tmp_path / "scan.jsonl"
    args = ("scan", "--c-max", "3", "--mu-cap", "5", "--out", str(out_file))
    assert run(capsys, *args)[0] == 0
    record = out_file.read_bytes()
    keys = set(cli.load_records(out_file))
    assert len(keys) == 1
    # blank lines are skipped wherever they are
    out_file.write_bytes(b"\n" + record + b"  \n\n")
    assert set(cli.load_records(out_file)) == keys
    # a record behind a UTF-8 byte order mark is still a record
    out_file.write_bytes(b"\xef\xbb\xbf" + record)
    assert set(cli.load_records(out_file)) == keys
    # a JSON line that is not a record, mid-file
    out_file.write_bytes(record + b"[1]\n" + record)
    code, out, err = run(capsys, *args)
    assert code == 2 and out == ""
    assert err == f"error: {out_file}: line 2: not a scan record\n"
    # a last line that is not UTF-8 is dropped and cut from the file
    out_file.write_bytes(record + b'{"a": "\xe9')
    assert set(cli.load_records(out_file)) == keys
    assert out_file.read_bytes() == record


def test_scan_invalid_cmax(capsys):
    code, _, err = run(capsys, "scan", "--c-max", "2")
    assert code == 2


@pytest.mark.parametrize(
    "command",
    [["mds-test", "2", "3", "5"], ["scan", "--c-max", "5"], ["coxring", "9", "10", "13"]],
)
@pytest.mark.parametrize("mu_cap", ["0", "-3"])
def test_mu_cap_below_one_exit_2(tmp_path, monkeypatch, capsys, command, mu_cap):
    monkeypatch.setenv("WPP_MORI_CACHE", str(tmp_path))
    code, out, err = run(capsys, *command, "--mu-cap", mu_cap)
    assert code == 2
    assert "--mu-cap" in err and out == ""
    assert not any(tmp_path.iterdir())


def test_verify_gens_fixture(tmp_path, capsys):
    text = ir.files("wpp_mori").joinpath("data/verify_gens_7_3_11.txt").read_text()
    path = tmp_path / "inst.txt"
    path.write_text(text)
    code, out, _ = run(capsys, "verify-gens", str(path))
    assert code == 0
    assert "verified: True" in out
    assert "dims: 3 3 2" in out


def test_verify_gens_missing_file(capsys):
    code, _, err = run(capsys, "verify-gens", "/nonexistent/file.txt")
    assert code == 2


def test_verify_gens_budget_exhaustion_exit_3(tmp_path, capsys):
    text = ir.files("wpp_mori").joinpath("data/verify_gens_7_3_11.txt").read_text()
    path = tmp_path / "inst.txt"
    path.write_text(text)
    code, _, err = run(capsys, "verify-gens", str(path), "--budget", "1")
    assert code == 3
    assert "resource limit" in err


def test_verify_gens_step_budget_exhaustion_exit_3(tmp_path, capsys):
    # 50 S-pair reductions are far too few for the fixture's first basis
    text = ir.files("wpp_mori").joinpath("data/verify_gens_7_3_11.txt").read_text()
    path = tmp_path / "inst.txt"
    path.write_text(text)
    code, out, err = run(capsys, "verify-gens", str(path), "--step-budget", "50")
    assert code == 3 and out == ""
    assert err.startswith("resource limit: ") and "Traceback" not in err


@pytest.mark.parametrize("budget, code", [("86", 0), ("85", 3)])
def test_verify_gens_smallest_step_budget(tmp_path, capsys, budget, code):
    # 86 S-pair reductions are the fewest with which every Groebner
    # computation of the fixture's run completes under the weighted order
    text = ir.files("wpp_mori").joinpath("data/verify_gens_7_3_11.txt").read_text()
    path = tmp_path / "inst.txt"
    path.write_text(text)
    got, out, err = run(capsys, "verify-gens", str(path), "--step-budget", budget)
    assert got == code
    assert ("verified: True" in out) == (code == 0)
    assert err.startswith("resource limit: ") == (code == 3)


@pytest.mark.parametrize("flag", ["--budget", "--step-budget"])
def test_verify_gens_negative_budget_exit_2(tmp_path, capsys, flag):
    text = ir.files("wpp_mori").joinpath("data/verify_gens_7_3_11.txt").read_text()
    path = tmp_path / "inst.txt"
    path.write_text(text)
    code, _, err = run(capsys, "verify-gens", str(path), flag, "-1")
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize(
    "line",
    ["weights: 3 4", "vars: x y t", "vars: x y z w", "vars: x y s1", "vars: x y 2", "product: x y z", "product: 1"],
)
def test_verify_gens_bad_weights_or_names_exit_2(tmp_path, capsys, line):
    lines = {"weights": "weights: 1 1 1", "ideal": "ideal: x - y", "product": "product: x"}
    lines[line.split(":")[0]] = line
    path = tmp_path / "inst.txt"
    path.write_text("\n".join(lines.values()) + "\n")
    code, out, err = run(capsys, "verify-gens", str(path))
    assert code == 2
    assert "error:" in err and "Traceback" not in err
    assert "verified" not in out


@pytest.mark.parametrize(
    "line, message",
    [("ideal: 1/0*x - y", "zero denominator"), ("ideal: 0", "an ideal generator is zero")],
)
def test_verify_gens_bad_ideal_line_exit_2(tmp_path, capsys, line, message):
    path = tmp_path / "inst.txt"
    path.write_text(f"weights: 1 1 1\n{line}\nproduct: x*y*z\n")
    code, out, err = run(capsys, "verify-gens", str(path))
    assert code == 2
    assert "error:" in err and message in err and "Traceback" not in err
    assert "verified" not in out


def test_verify_gens_repeated_section_exit_2(tmp_path, capsys):
    path = tmp_path / "inst.txt"
    path.write_text("weights: 1 1 1\nideal: x - y\nproduct: x*y*z\nproduct: x\n")
    code, out, err = run(capsys, "verify-gens", str(path))
    assert code == 2
    assert "error:" in err and "repeated product: section" in err
    assert "verified" not in out


def test_m0n_fixture(tmp_path, capsys):
    text = ir.files("wpp_mori").joinpath("data/m0n_n10.txt").read_text()
    path = tmp_path / "red.txt"
    path.write_text(text)
    code, out, _ = run(capsys, "m0n", str(path), "--json")
    assert code == 0
    data = json.loads(out)
    assert data["verified"] is True
    assert data["images"] == [[3, -3, -1], [-1, 5, -4]]


def test_m0n_malformed(tmp_path, capsys):
    fixture = ir.files("wpp_mori").joinpath("data/m0n_n10.txt").read_text()
    path = tmp_path / "red.txt"
    for text in [
        "kernel:\n1 0\n",
        fixture.replace("17 13 12", "0 0 0"),
        fixture.replace("17 13 12", "-17 -13 -12"),
        fixture.replace("17 13 12", "34 26 24"),
        fixture + "1 2 3\n",
    ]:
        path.write_text(text)
        code, out, err = run(capsys, "m0n", str(path))
        assert code == 2, text
        assert "error:" in err and "Traceback" not in err
        assert "verified" not in out


def test_coprime_triples():
    triples = cli.coprime_triples(5)
    assert (2, 3, 5) in triples
    assert (1, 2, 3) in triples
    assert all(a < b < c <= 5 for (a, b, c) in triples)
    from math import gcd

    assert all(
        gcd(a, b) == gcd(b, c) == gcd(a, c) == 1 for (a, b, c) in triples
    )


@pytest.mark.parametrize("workers", ["1", "2"])
def test_scan_records_a_raising_triple_as_error(tmp_path, monkeypatch, capsys, workers):
    out_file = tmp_path / "scan.jsonl"
    args = ("scan", "--c-max", "5", "--mu-cap", "5", "--out", str(out_file), "--workers", workers)
    real = cli.orthpair.mds_test

    def flaky(w, mu_cap):
        if w.as_tuple() == (2, 3, 5):
            raise RuntimeError("injected failure")
        return real(w, mu_cap)

    monkeypatch.setattr(cli.orthpair, "mds_test", flaky)
    code, out, err = run(capsys, *args)
    assert code == 0
    assert "Traceback" not in err
    assert "errors: 1" in out
    assert "  2 3 5  error: RuntimeError: injected failure" in out
    records = [json.loads(line) for line in out_file.read_text().splitlines()]
    assert len(records) == 7
    (bad,) = [r for r in records if r["verdict"] == "Error"]
    assert (bad["a"], bad["b"], bad["c"]) == (2, 3, 5)
    assert bad["error"] == "RuntimeError: injected failure"
    assert bad["signature"] is None
    assert all("error" not in r and r["verdict"] == "MoriDream" for r in records if r is not bad)

    # resuming recomputes only the error triple, once the failure is gone
    monkeypatch.setattr(cli.orthpair, "mds_test", real)
    assert set(cli.load_records(out_file)) == {
        (r["a"], r["b"], r["c"], r["mu_cap"]) for r in records if r is not bad
    }
    code, out, _ = run(capsys, *args)
    assert code == 0
    assert "errors: 0" in out
    lines = out_file.read_text().splitlines()
    assert len(lines) == 8
    last = json.loads(lines[-1])
    assert (last["a"], last["b"], last["c"], last["verdict"]) == (2, 3, 5, "MoriDream")


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_workers_below_one_exit_2(tmp_path, monkeypatch, capsys, workers):
    monkeypatch.setenv("WPP_MORI_CACHE", str(tmp_path))
    code, out, err = run(capsys, "scan", "--c-max", "5", "--workers", workers)
    assert code == 2
    assert err.startswith("error:") and "--workers" in err and out == ""
    assert not any(tmp_path.iterdir())


class _SerialPool:
    """Stands in for ProcessPoolExecutor: records its size, starts no process."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks, chunksize=1):
        return map(fn, tasks)


def test_scan_pool_is_no_larger_than_the_triples_left(tmp_path, monkeypatch):
    # scan_triples imports the pool class only when it needs a pool
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _SerialPool)
    monkeypatch.setattr(_SerialPool, "sizes", [])
    out_file = tmp_path / "scan.jsonl"
    triples = cli.coprime_triples(5)
    records = cli.scan_triples(triples[:3], 5, out_file, workers=10**6)
    assert _SerialPool.sizes == [3]
    # one triple left runs in this process, with no pool at all
    records = cli.scan_triples(triples[:4], 5, out_file, workers=10**6)
    assert _SerialPool.sizes == [3]
    assert [(r["a"], r["b"], r["c"]) for r in records] == sorted(triples[:4])
    assert all(r["verdict"] == "MoriDream" for r in records)


@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_coxring_failed_verification_exit_1(monkeypatch, capsys, json_flag):
    coxring = cli.coxring

    def failing(w, pres):
        return coxring.VerificationReport([coxring.CheckResult("homogeneity", False, "broken")])

    monkeypatch.setattr(cli.coxring, "verify_presentation", failing)
    code, out, _ = run(capsys, "coxring", "7", "3", "11", *json_flag)
    assert code == 1
    if json_flag:
        data = json.loads(out)
        assert data["verified"] is False
        assert data["checks"] == {"homogeneity": False}
    else:
        assert "homogeneity: FAIL (broken)" in out
