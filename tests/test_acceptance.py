"""End-to-end acceptance suite: one test per release criterion.

Each test prints a single PASS/FAIL line.  The pair-search criteria run with
multiplicity cap 14 (the library default) or 18 where a known certificate
needs it; the caps are recorded next to each expectation.
"""

import importlib.resources as ir
import random
from fractions import Fraction
from functools import lru_cache

from wpp_mori import coxring, groebner, linalg, m0n, mult, orthpair, verifygens
from wpp_mori.cli import coprime_triples
from wpp_mori.groebner import Ideal
from wpp_mori.poly import SparsePoly, parse_poly
from wpp_mori.weights import WeightTriple, monomials_of_degree

XYZ = ("x", "y", "z")


def report(label, ok, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"{label}: {'PASS' if ok else 'FAIL'}{suffix}")
    assert ok, f"{label}{suffix}"


@lru_cache(maxsize=None)
def scan_range(c_max, mu_cap, tie_break="first", a_min=1, min_cap=None):
    """Verdicts for all pairwise coprime triples in range, keyed by triple."""
    out = {}
    for (a, b, c) in coprime_triples(c_max):
        if a < a_min:
            continue
        if min_cap is not None and min(a, b, c) > min_cap:
            continue
        w = WeightTriple(a, b, c)
        out[(a, b, c)] = orthpair.mds_test(w, mu_cap, tie_break)
    return out


def inconclusive_set(verdicts):
    return {t for t, v in verdicts.items() if not v.is_mori_dream}


def test_criterion_01_small_range_table():
    verdicts = scan_range(13, 14)
    got = inconclusive_set(verdicts)
    report(
        "criterion 1 (c <= 13 scan, cap 14, inconclusive exactly {(9,10,13)})",
        got == {(9, 10, 13)},
        f"inconclusive: {sorted(got)}",
    )


def test_criterion_02_mid_range_table():
    expected = {
        (7, 13, 16),
        (7, 16, 17),
        (9, 10, 13),
        (9, 11, 17),
        (9, 13, 16),
        (10, 11, 17),
        (11, 13, 16),
        (12, 13, 17),
        (13, 14, 17),
        (13, 16, 17),
    }
    verdicts = scan_range(17, 14, a_min=7)
    got = inconclusive_set(verdicts)
    report(
        "criterion 2 (7 <= a < b < c <= 17 scan, cap 14, ten open triples)",
        got == expected,
        f"symmetric difference: {sorted(got ^ expected)}",
    )


def test_criterion_03_small_weight_range():
    verdicts = scan_range(30, 18, min_cap=6)
    got = inconclusive_set(verdicts)
    report(
        "criterion 3 (min weight <= 6, c <= 30, cap 18, all Mori dream)",
        not got,
        f"inconclusive: {sorted(got)}",
    )


def test_criterion_04_kstar_suite():
    failures = []
    count = 0
    for (a, b, c) in coprime_triples(50):
        w = WeightTriple(a, b, c)
        cls = coxring.classify(w)
        if not cls.is_kstar:
            continue
        count += 1
        pres = coxring.kstar_presentation(w)
        rep = coxring.verify_presentation(w, pres)
        if not rep.ok:
            failures.append((a, b, c))
        if pres.toric != (1 in (a, b, c)):
            failures.append((a, b, c, "toric flag"))
        if tuple(pres.rees[g] for g in pres.generators) != (0, 0, 1, 1, -1):
            failures.append((a, b, c, "rees vector"))
    report(
        "criterion 4 (single-relation suite, c <= 50)",
        count > 0 and not failures,
        f"{count} triples, failures: {failures[:5]}",
    )


def test_criterion_05_mult2_suite():
    failures = []
    count = 0
    for (a, b, c) in coprime_triples(40):
        w = WeightTriple(a, b, c)
        cls = coxring.classify(w)
        if not cls.is_mult2:
            continue
        count += 1
        rep = coxring.verify_presentation(w, coxring.mult2_presentation(w))
        if not rep.ok:
            failures.append((a, b, c, [x.name for x in rep.failures()]))
    report(
        "criterion 5 (multiplicity-two suite, c <= 40, all five checks)",
        count > 0 and not failures,
        f"{count} triples, failures: {failures[:5]}",
    )


def test_criterion_06_generator_verification_golden_run():
    text = ir.files("wpp_mori").joinpath("data/verify_gens_7_3_11.txt").read_text()
    cert = verifygens.verify(verifygens.parse_instance(text))
    report(
        "criterion 6 (generator check for (7,3,11): true with dims (3,3,2))",
        cert.ok and cert.dims == (3, 3, 2),
        f"ok={cert.ok}, dims={cert.dims}",
    )


def test_criterion_07_lattice_reduction_fixture():
    p_matrix = [
        [1, 0, 1, -2, -1, 1, 0],
        [0, 1, -1, -3, -2, 2, 1],
    ]
    target = [[3, -3, -1], [5, -1, -6]]
    text = ir.files("wpp_mori").joinpath("data/m0n_n10.txt").read_text()
    r = m0n.parse_reduction(text)
    ok, diags = m0n.verify_reduction(r)
    annihilates = all(
        sum(row[i] * gen[i] for i in range(7)) == 0
        for row in p_matrix
        for gen in r.generators
    )
    images = m0n.quotient_images(r)
    equivalent = m0n.unimodular_equivalent(images, target)
    combo = [17 * x + 13 * y + 12 * z for x, y, z in zip(r.v1, r.v2, r.v3)]
    congruent = linalg.in_span([list(g) for g in r.generators], combo)
    found = (17, 13, 12) in m0n.search_weights(r, 20)
    report(
        "criterion 7 (n = 10 lattice reduction verifies)",
        ok and annihilates and equivalent and congruent and found,
        f"verify={ok}, annihilates={annihilates}, images~target={equivalent}, "
        f"congruence={congruent}, weights found={found}",
    )


def _standard_monomial_dims(w, gens, d_max):
    """dim of the ideal's degree-d slices from the leading monomials of its basis."""
    gb = groebner.buchberger(Ideal(XYZ, gens))
    leads = [g.leading()[0] for g in gb.elements]
    for g in gb.elements:
        assert g.weighted_degree(w.as_tuple()) is not None
    dims = []
    for d in range(d_max + 1):
        monos = monomials_of_degree(w, d)
        standard = sum(
            1
            for mexp in monos
            if not any(all(a >= b for a, b in zip(mexp, le)) for le in leads)
        )
        dims.append(len(monos) - standard)
    return dims


def test_criterion_08_slice_dimensions_match_groebner_route():
    from math import gcd

    triples = sorted(
        (a, b, c)
        for a in range(1, 61)
        for b in range(a, 61)
        for c in range(b, 61)
        if a * b * c <= 60
        and gcd(a, b) == gcd(b, c) == gcd(a, c) == 1
    )
    d_max = 30
    mismatches = []
    checked = 0
    xyz_poly = SparsePoly.monomial(XYZ, (1, 1, 1))
    for (a, b, c) in triples:
        w = WeightTriple(a, b, c)
        point = groebner.saturate(
            Ideal(XYZ, coxring.chart_binomials(w)), xyz_poly
        )
        for mu in (1, 2, 3):
            power_gens = [SparsePoly.constant(XYZ, 1)]
            for _ in range(mu):
                power_gens = [p * g for p in power_gens for g in point.generators]
            sat = groebner.saturate(Ideal(XYZ, power_gens), xyz_poly)
            dims = _standard_monomial_dims(w, sat.generators, d_max)
            for d in range(d_max + 1):
                checked += 1
                if mult.slice_dim(w, d, mu) != dims[d]:
                    mismatches.append((a, b, c, d, mu))
    report(
        "criterion 8 (interpolation slices agree with saturation slices)",
        checked > 0 and not mismatches,
        f"{checked} comparisons, mismatches: {mismatches[:5]}",
    )


def test_criterion_09_witness_independence():
    first = scan_range(13, 14, tie_break="first")
    last = scan_range(13, 14, tie_break="last")
    problems = []
    for triple, vf in first.items():
        vl = last[triple]
        if vf.outcome != vl.outcome:
            problems.append((triple, "verdict"))
            continue
        if vf.pair is None:
            continue
        if vf.pair.signature() != vl.pair.signature():
            problems.append((triple, "signature"))
        for v in (vf, vl):
            if v.pair.mu1 == 2 and v.pair.mu2 == 2:
                problems.append((triple, "double multiplicity two"))
    report(
        "criterion 9 (signatures independent of witness tie-break; "
        "never mu1 = mu2 = 2)",
        not problems,
        f"problems: {problems[:5]}",
    )


def test_criterion_10_groebner_engine_suite():
    rng = random.Random(20260824)
    problems = []

    def random_poly():
        terms = {}
        for _ in range(rng.randint(1, 3)):
            exp = tuple(rng.randint(0, 2) for _ in XYZ)
            terms[exp] = Fraction(rng.randint(-3, 3))
        return SparsePoly(XYZ, terms)

    for trial in range(20):
        gens = [p for p in (random_poly() for _ in range(2)) if not p.is_zero()]
        if not gens:
            continue
        ideal = Ideal(XYZ, gens)
        gb = groebner.buchberger(ideal)
        f, g = random_poly(), random_poly()
        nf = groebner.normal_form(f, gb)
        if groebner.normal_form(nf, gb) != nf:
            problems.append((trial, "idempotence"))
        sum_nf = groebner.normal_form(f + g, gb)
        if sum_nf != groebner.normal_form(f, gb) + groebner.normal_form(g, gb):
            problems.append((trial, "linearity"))
        again = groebner.buchberger(Ideal(XYZ, list(gb.elements)))
        if again.elements != gb.elements:
            problems.append((trial, "fixed point"))
        h = random_poly()
        if h.is_zero():
            continue
        sat = groebner.saturate(ideal, h)
        sat_gb = groebner.buchberger(sat)
        if not all(groebner.ideal_member(p, sat_gb) for p in gens):
            problems.append((trial, "saturation containment"))
        quot = groebner.quotient_by(ideal, h)
        if not all(groebner.ideal_member(q * h, gb) for q in quot.generators):
            problems.append((trial, "quotient containment"))

    dims_ok = (
        groebner.krull_dimension(Ideal(XYZ, [parse_poly("x", XYZ), parse_poly("y", XYZ)]))
        == 1
        and groebner.krull_dimension(Ideal(XYZ, [])) == 3
        and groebner.krull_dimension(Ideal(("x",), [])) == 1
        and groebner.krull_dimension(
            Ideal(("u", "v", "w", "x"), [])
        ) == 4
    )
    if not dims_ok:
        problems.append(("goldens", "dimension"))
    report(
        "criterion 10 (normal forms, fixed points, containment laws, dimensions)",
        not problems,
        f"problems: {problems[:5]}",
    )
