"""Cox ring presentations: classification, construction, verification."""

import pytest

import dataclasses
from itertools import permutations

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from wpp_mori import cli, coxring, groebner, mult
from wpp_mori.coxring import (
    chart_binomials,
    classify,
    kstar_presentation,
    mult2_fs,
    mult2_presentation,
    presentation_text,
    verify_presentation,
)
from wpp_mori.poly import SparsePoly, parse_poly
from wpp_mori.weights import WeightTriple, coprime_triples, monomials_of_degree

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
    f1, f2, f3, f4 = mult2_fs(classify(WeightTriple(7, 3, 11)))
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


MULT2_SMALL = [(7, 3, 11), (9, 5, 13), (8, 3, 13), (11, 5, 17)]


def test_mult2_suite_small():
    for (a, b, c) in MULT2_SMALL:
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


def test_f4_check_fails_for_a_section_inside_the_square():
    # x*y*f1^2 has degree bc = 35 and multiplicity 2, like f4, but lies in I^2
    w = WeightTriple(6, 5, 7)
    pres = mult2_presentation(w)
    assert pres.weights == (6, 5, 7)
    sections = dict(pres.sections)
    sections["s4"] = sections["x"] * sections["y"] * sections["s1"] ** 2
    report = verify_presentation(w, dataclasses.replace(pres, sections=sections))
    assert report.checks[-1] == coxring.CheckResult(
        "f4_between_powers", False, "f4 multiplicity 2, in I^2: True"
    )


def test_chart_binomials_define_the_point():
    for (a, b, c) in [(1, 1, 1), (2, 3, 5), (7, 3, 11)]:
        w = WeightTriple(a, b, c)
        gens = chart_binomials(w)
        assert len(gens) == 2
        for g in gens:
            # vanishing at [1,1,1]: substitute the constant 1 for x, y and z
            assert g.substitute(dict.fromkeys(XYZ, SparsePoly.constant(XYZ, 1))).is_zero()
            assert g.weighted_degree((a, b, c)) is not None


def test_mult2_halves_are_nonnegative_integers():
    # _mult2_halves halves c - n, b - m, c - 3n and b - 3m (and c + n, b + m)
    # with no check, by the parity argument in its docstring
    classes = [classify(WeightTriple(*t)) for t in coprime_triples(40)]
    mult2 = [cls for cls in classes if cls.is_mult2]
    assert len(mult2) == 432
    for cls in mult2:
        _, b, c = cls.reordering
        assert (c - cls.n) % 2 == 0 and (b - cls.m) % 2 == 0, cls
        assert c >= 3 * cls.n and b >= 3 * cls.m, cls


def test_presentation_text():
    text = presentation_text(mult2_presentation(WeightTriple(7, 3, 11)))
    assert "variant: Mult2" in text
    assert "relations:" in text
    assert text.count("\n") > 10


# -- the lattice-basis certificate of the Mult2 saturation check --


def P(text):
    return parse_poly(text, XYZ)


def _mult2_triples(c_max):
    for t in cli.coprime_triples(c_max):
        w = WeightTriple(*t)
        if classify(w).is_mult2:
            yield w


def _saturation_basis(gens):
    xyz = SparsePoly.monomial(XYZ, (1, 1, 1))
    return groebner.buchberger(groebner.saturate(groebner.Ideal(XYZ, gens), xyz)).elements




def test_lattice_certificate_holds_for_every_mult2_triple():
    triples = list(_mult2_triples(40))
    assert len(triples) == 432
    for i, w in enumerate(triples):
        pres = mult2_presentation(w)
        wt = WeightTriple(*pres.weights)
        f1, f2, f3 = (pres.sections[s] for s in ("s1", "s2", "s3"))
        assert coxring._lattice_basis_binomials(wt, f1, f2), w
        assert coxring._lattice_ideal_by_count(wt, f1, f2, f3), w
        if i % 8 == 0:
            # the theorems behind both certificates, on a sample
            report = verify_presentation(wt, pres)
            assert report.checks[3] == _lattice_check_by_saturation(wt, f1, f2, f3), w


def test_lattice_certificate_negatives():
    w = WeightTriple(7, 3, 11)
    f1, f2 = P("x^2 - y*z"), P("x*z - y^6")
    assert coxring._lattice_basis_binomials(w, f1, f2)
    assert coxring._lattice_basis_binomials(w, f2, -f1)
    for bad in (
        P("x^2*z^2 - y^12"),  # 2 v: a sublattice of index 2
        P("2*x*z - 2*y^6"),
        P("x*z - 2*y^6"),
        P("x*z - y^6 + x*y*z"),
        P("x*z"),
    ):
        assert not coxring._lattice_basis_binomials(w, f1, bad), bad
    for wrong in (WeightTriple(7, 3, 13), WeightTriple(3, 7, 11)):
        assert not coxring._lattice_basis_binomials(wrong, f1, f2), wrong


def _same_ideal(i1, i2):
    """Ideal equality by comparing reduced grevlex bases, each computed afresh."""
    return groebner.buchberger(i1).elements == groebner.buchberger(i2).elements


def _lattice_check_by_saturation(w, f1, f2, f3):
    """The Mult2 lattice check with both saturations computed and every basis recomputed."""
    xyz = SparsePoly.monomial(XYZ, (1, 1, 1))
    sat12 = groebner.saturate(groebner.Ideal(XYZ, [f1, f2]), xyz)
    i123 = groebner.Ideal(XYZ, [f1, f2, f3])
    lattice = groebner.saturate(groebner.Ideal(XYZ, chart_binomials(w)), xyz)
    ok = _same_ideal(sat12, i123)
    ok2 = _same_ideal(i123, lattice)
    return coxring.CheckResult(
        "lattice_ideal_saturation",
        ok and ok2,
        "saturating <f1,f2> by xyz yields <f1,f2,f3> = point lattice ideal"
        if ok and ok2
        else f"saturation identity failed (f3: {ok}, lattice: {ok2})",
    )


def test_corrupted_mult2_section_takes_the_saturation_fallback():
    w = WeightTriple(7, 3, 11)
    pres = mult2_presentation(w)
    a, b, c = pres.weights
    cls = classify(w)
    sections = dict(pres.sections)
    # exponent difference 2 v2, twice that of the genuine s2
    sections["s2"] = SparsePoly.monomial(XYZ, (2, 0, b - cls.m)) - SparsePoly.monomial(
        XYZ, (0, c + cls.n, 0)
    )
    corrupt = dataclasses.replace(pres, sections=sections)
    f1, f2, f3 = (sections[s] for s in ("s1", "s2", "s3"))
    assert not coxring._lattice_basis_binomials(w, f1, f2)
    report = verify_presentation(w, corrupt)
    assert [ch.name for ch in report.checks] == [
        "homogeneity",
        "rees_multiplicities",
        "substitution_identities",
        "lattice_ideal_saturation",
        "f4_between_powers",
    ]
    assert report.checks[3] == _lattice_check_by_saturation(w, f1, f2, f3)
    assert not report.ok
    # the report compares each saturation's generators with <f1,f2,f3>'s basis
    xyz = SparsePoly.monomial(XYZ, (1, 1, 1))
    for gens in ([f1, f2], chart_binomials(w)):
        sat = groebner.saturate(groebner.Ideal(XYZ, gens), xyz)
        assert sat.generators == groebner.buchberger(sat).elements


def test_genuine_mult2_presentations_never_saturate_the_chart_binomials(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("Groebner basis or chart binomials computed")

    monkeypatch.setattr(coxring, "chart_binomials", refuse)
    monkeypatch.setattr(coxring.groebner, "saturate", refuse)
    monkeypatch.setattr(coxring.groebner, "buchberger", refuse)
    for triple in MULT2_SMALL:
        w = WeightTriple(*triple)
        report = verify_presentation(w, mult2_presentation(w))
        assert report.ok, (triple, [c_.detail for c_ in report.failures()])


# -- the count certificate <f1,f2,f3> = I_L --


def test_count_certificate_is_closed_form_for_large_weights():
    # a loop over the staircase would take about b*c/4 = 2.5e7 steps here
    cls = classify(WeightTriple(10001, 10002, 10003))
    assert cls.reordering == (10002, 10001, 10003) and (cls.n, cls.m) == (1, 1)
    w = WeightTriple(*cls.reordering)
    f1, f2, f3, _ = mult2_fs(cls)
    assert coxring._lattice_ideal_by_count(w, f1, f2, f3)
    # x-free terms y*z, y^P, z^Q with P = (c+n)/2, Q = (b+m)/2: PQ - (P-n)(Q-m) = a
    p, q = 5002, 5001
    assert coxring._staircase_size([(1, 1), (p, 0), (0, q)]) == p * q - (p - 1) * (q - 1) == 10002
    # (2, 3) is not a minimal generator: y^2 z^3 is a multiple of y z
    assert coxring._staircase_size([(0, q), (p + 1, 0), (1, 1), (2, 3)]) == 10003
    assert coxring._staircase_size([(1, 1), (p, 0)]) is None
    assert coxring._staircase_size([(1, 1), (0, q)]) is None


def test_inhomogeneous_section_fails_the_f4_check_without_computing_it(monkeypatch):
    w = WeightTriple(7, 3, 11)
    pres = mult2_presentation(w)
    x, y, z = (pres.sections[v] for v in XYZ)

    def refuse(*args):
        raise AssertionError("I^2 membership or f4 multiplicity computed")

    monkeypatch.setattr(coxring.mult, "in_ideal", refuse)
    for name, bad in (("s3", pres.sections["s3"] + x * y * z), ("s4", pres.sections["s4"] + x)):
        corrupt = dataclasses.replace(pres, sections=dict(pres.sections, **{name: bad}))
        report = verify_presentation(w, corrupt)
        failed = [ch.name for ch in report.failures()]
        assert "rees_multiplicities" in failed and "f4_between_powers" in failed, (name, failed)
        assert f"{name}: section degree mismatch" in report.checks[1].detail
        assert report.checks[4].detail == f"not weighted-homogeneous: {name}"


def test_corrupted_s3_fails_the_count_and_takes_the_fallback(monkeypatch):
    w = WeightTriple(7, 3, 11)
    pres = mult2_presentation(w)
    x, y, z = (pres.sections[v] for v in XYZ)
    f1, f2, f3 = (pres.sections[s] for s in ("s1", "s2", "s3"))
    assert coxring._lattice_basis_binomials(w, f1, f2)
    saturations = []
    saturate = groebner.saturate

    def spy(*args):
        saturations.append(args)
        return saturate(*args)

    monkeypatch.setattr(coxring.groebner, "saturate", spy)
    # x*y^4 - z^2 has the x-free terms of f3 but is inhomogeneous, so it is not in I_L
    assert not coxring._lattice_ideal_by_count(w, f1, f2, P("x*y^4 - z^2"))
    for bad in (
        x * f3,  # no x-free term
        z * f3,  # x-free terms y*z, y^6, z^3: dim K[x,y,z]/(I + <x>) = 8 > a = 7
        f3 * SparsePoly.constant(XYZ, 2),  # coefficients 2 and -2
        # three terms; S_22 holds only x*y^5 and z^2, so f3 + x*y*z^k is inhomogeneous
        y ** 7 * f3 + x * y * z ** 3,
    ):
        assert not coxring._lattice_ideal_by_count(w, f1, f2, bad), bad
        saturations.clear()
        corrupt = dataclasses.replace(pres, sections=dict(pres.sections, s3=bad))
        check = verify_presentation(w, corrupt).checks[3]
        assert saturations, bad
        assert check == _lattice_check_by_saturation(w, f1, f2, bad), bad


def test_count_needs_one_x_free_term_per_binomial():
    # counting every x-free monomial gives the staircase z^4, y*z^3, y^2 of 7 = a monomials,
    # but two binomials are x-free, so I + <x> is not a monomial ideal and I is not I_L
    w = WeightTriple(7, 2, 1)
    fs = [P("x*y - y^3*z^3"), P("y^2 - z^4"), P("y^2*z - y*z^3")]
    assert coxring._staircase_size([(3, 3), (2, 0), (0, 4), (2, 1), (1, 3)]) == 7
    assert not coxring._lattice_ideal_by_count(w, *fs)
    assert groebner.buchberger(groebner.Ideal(XYZ, fs)).elements != _saturation_basis(
        chart_binomials(w)
    )


ORDERED_TRIPLES = [p for t in cli.coprime_triples(13) for p in permutations(t)]


@st.composite
def x_free_binomials(draw):
    """A weight triple and three binomials x-monomial - (x-free monomial) of equal degrees.

    The x-free monomials are y^J, z^K and y^j z^k with J, K <= a + 1, so
    that a staircase of a monomials is within reach.
    """
    w = WeightTriple(*draw(st.sampled_from(ORDERED_TRIPLES)))

    def partners(e):
        return [m for m in monomials_of_degree(w, w.b * e[1] + w.c * e[2]) if m[0]]

    def binomial(choices):
        assume(choices)
        e = draw(st.sampled_from(choices))
        m = draw(st.sampled_from(partners(e)))
        return SparsePoly.monomial(XYZ, m) - SparsePoly.monomial(XYZ, e), e

    bound = range(1, w.a + 2)
    f2, (_, j_max, _) = binomial([(0, j, 0) for j in bound if partners((0, j, 0))])
    f3, (_, _, k_max) = binomial([(0, 0, k) for k in bound if partners((0, 0, k))])
    f1, _ = binomial(
        [(0, j, k) for j in range(j_max + 1) for k in range(k_max + 1) if partners((0, j, k))]
    )
    return w, draw(st.permutations([f1, f2, f3]))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(x_free_binomials())
def test_count_certificate_implies_the_lattice_ideal(case):
    w, fs = case
    if coxring._lattice_ideal_by_count(w, *fs):
        basis = groebner.buchberger(groebner.Ideal(XYZ, fs)).elements
        assert basis == _saturation_basis(chart_binomials(w))
