"""Cox ring presentations: classification, construction, verification."""

import pytest

from wpp_mori import coxring, groebner, mult
from wpp_mori.coxring import (
    ParityError,
    chart_binomials,
    classify,
    kstar_presentation,
    mult2_fs,
    mult2_presentation,
    presentation_text,
    verify_presentation,
)
from wpp_mori.poly import parse_poly
from wpp_mori.weights import WeightTriple

XYZ = ("x", "y", "z")


def test_classify_goldens():
    cls = classify(WeightTriple(2, 3, 7))
    assert cls.variant == "KStar"
    assert cls.reordering == (7, 2, 3)
    assert (cls.alpha, cls.beta) == (2, 1)

    cls = classify(WeightTriple(7, 3, 11))
    assert cls.variant == "Mult2"
    assert cls.reordering == (7, 3, 11)
    assert (cls.n, cls.m) == (1, 1)

    assert classify(WeightTriple(9, 10, 13)).variant == "Other"
    assert classify(WeightTriple(1, 1, 1)).variant == "KStar"


def test_classify_is_permutation_invariant():
    from itertools import permutations

    for triple in [(2, 3, 7), (7, 3, 11), (9, 10, 13)]:
        results = {classify(WeightTriple(*p)) for p in permutations(triple)}
        assert len(results) == 1


def test_kstar_presentation_golden():
    pres = kstar_presentation(WeightTriple(2, 3, 7))
    a, b, c = pres.weights
    assert (a, b, c) == (7, 2, 3)
    assert len(pres.relations) == 1
    ring = pres.relations[0].variables
    assert pres.relations[0] == parse_poly("T4*T5 - T1^3 + T2^2", ring)
    assert pres.degrees["T3"] == (a, -1)
    assert pres.degrees["T4"] == (b * c, -1)
    assert not pres.toric
    assert kstar_presentation(WeightTriple(1, 2, 3)).toric
    with pytest.raises(ValueError):
        kstar_presentation(WeightTriple(7, 3, 11))


def test_kstar_suite_small():
    for (a, b, c) in [(1, 1, 1), (1, 2, 3), (2, 3, 7), (5, 2, 3), (3, 4, 7)]:
        w = WeightTriple(a, b, c)
        cls = classify(w)
        assert cls.is_kstar
        report = verify_presentation(w, kstar_presentation(w))
        assert report.ok, (a, b, c, [c_.detail for c_ in report.failures()])


def test_mult2_fs_golden():
    f1, f2, f3, f4 = mult2_fs(WeightTriple(7, 3, 11))
    assert f1 == parse_poly("x^2 - y*z", XYZ)
    assert f2 == parse_poly("x*z - y^6", XYZ)
    assert f3 == parse_poly("x*y^5 - z^2", XYZ)
    assert f4 == parse_poly("x^3*y^4 + y^11 - 3*x*y^5*z + z^3", XYZ)
    w = WeightTriple(7, 3, 11)
    assert [mult.rees_multiplicity(w, f) for f in (f1, f2, f3, f4)] == [1, 1, 1, 2]


def test_mult2_presentation_structure():
    pres = mult2_presentation(WeightTriple(7, 3, 11))
    assert pres.weights == (7, 3, 11)
    assert len(pres.relations) == 9
    assert pres.degrees["s1"] == (14, -1)
    assert pres.degrees["s4"] == (33, -2)
    assert pres.rees["s4"] == 2
    assert pres.saturated_by == "t"
    with pytest.raises(ValueError):
        mult2_presentation(WeightTriple(2, 3, 7))


def test_mult2_suite_small():
    for (a, b, c) in [(7, 3, 11), (9, 5, 13), (8, 3, 13), (11, 5, 17)]:
        w = WeightTriple(a, b, c)
        cls = classify(w)
        assert cls.is_mult2
        report = verify_presentation(w, mult2_presentation(w))
        assert report.ok, (a, b, c, [c_.detail for c_ in report.failures()])


def test_verify_catches_corrupted_relation():
    pres = mult2_presentation(WeightTriple(7, 3, 11))
    ring = pres.relations[0].variables
    bad = pres.relations[:-1] + (
        pres.relations[-1] + parse_poly("x*s1", ring),
    )
    import dataclasses

    corrupt = dataclasses.replace(pres, relations=bad)
    report = verify_presentation(WeightTriple(7, 3, 11), corrupt)
    assert not report.ok
    names = {c.name for c in report.failures()}
    assert "homogeneity" in names or "substitution_identities" in names


def test_verify_catches_wrong_section():
    pres = kstar_presentation(WeightTriple(2, 3, 7))
    sections = dict(pres.sections)
    S = XYZ
    sections["T3"] = parse_poly("x", S)  # multiplicity 0, not 1
    import dataclasses

    corrupt = dataclasses.replace(pres, sections=sections)
    report = verify_presentation(WeightTriple(2, 3, 7), corrupt)
    assert not report.ok
    assert any(c.name == "rees_multiplicities" for c in report.failures())


def test_chart_binomials_define_the_point():
    for (a, b, c) in [(1, 1, 1), (2, 3, 5), (7, 3, 11)]:
        w = WeightTriple(a, b, c)
        gens = chart_binomials(w)
        assert len(gens) == 2
        for g in gens:
            assert g.evaluate((1, 1, 1)) == 0
            assert g.weighted_degree((a, b, c)) is not None


def test_parity_error():
    with pytest.raises(ParityError):
        coxring._half(3, "test value")


def test_presentation_text():
    text = presentation_text(mult2_presentation(WeightTriple(7, 3, 11)))
    assert "variant: Mult2" in text
    assert "relations:" in text
    assert text.count("\n") > 10
