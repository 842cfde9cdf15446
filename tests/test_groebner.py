"""Buchberger engine: reduced bases, normal forms, saturation, dimension."""

import random
from fractions import Fraction
from operator import mul

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coefficients import assert_coefficients
from wpp_mori import coxring, groebner, verifygens
from wpp_mori.groebner import (
    Ideal,
    StepBudgetExceeded,
    buchberger,
    ideal_member,
    krull_dimension,
    normal_form,
    quotient_by,
    saturate,
)
from wpp_mori.poly import SparsePoly, parse_poly
from wpp_mori.verifygens import BlowupInput
from wpp_mori.weights import WeightTriple

XYZ = ("x", "y", "z")


def P(text, ring=XYZ):
    return parse_poly(text, ring)


def I(*texts, ring=XYZ):
    return Ideal(ring, [P(t, ring) for t in texts])


def same_ideal(i1, i2):
    """Ideal equality by comparing reduced grevlex bases: the tests' oracle."""
    return buchberger(i1).elements == buchberger(i2).elements


def random_poly(rng, variables=XYZ, nterms=3, max_exp=2):
    terms = {}
    for _ in range(rng.randint(1, nterms)):
        exp = tuple(rng.randint(0, max_exp) for _ in variables)
        terms[exp] = Fraction(rng.randint(-3, 3))
    return SparsePoly(variables, terms)


def to_sympy(f, syms):
    expr = sympy.Integer(0)
    for exp, c in f.terms.items():
        term = sympy.Rational(c)
        for s, e in zip(syms, exp):
            term *= s ** e
        expr += term
    return expr


def from_sympy_set(polys, syms):
    out = set()
    for p in polys:
        poly = sympy.Poly(p, *syms)
        terms = {tuple(m): Fraction(str(c)) for m, c in poly.terms()}
        out.add(SparsePoly(XYZ, terms).monic())
    return out


def test_golden_basis():
    gb = buchberger(I("x^2 - y", "x^3 - z"))
    assert [str(g) for g in gb.elements] == ["y^2 - x*z", "x*y - z", "x^2 - y"]


def test_matches_sympy_randomized():
    rng = random.Random(123)
    syms = sympy.symbols("x y z")
    for _ in range(25):
        gens = [random_poly(rng) for _ in range(rng.randint(1, 3))]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        gb = buchberger(Ideal(XYZ, gens))
        ref = sympy.groebner(
            [to_sympy(g, syms) for g in gens], *syms, order="grevlex"
        )
        assert {g.monic() for g in gb.elements} == from_sympy_set(ref.exprs, syms)


def test_normal_form_idempotent_and_linear():
    rng = random.Random(321)
    gb = buchberger(I("x^2 - y", "y^2 - z"))
    for _ in range(20):
        f = random_poly(rng)
        g = random_poly(rng)
        nf = normal_form(f, gb)
        assert normal_form(nf, gb) == nf
        assert normal_form(f + g, gb) == normal_form(f, gb) + normal_form(g, gb)
        c = Fraction(rng.randint(1, 5), rng.randint(1, 3))
        assert normal_form(f.scale(c), gb) == normal_form(f, gb).scale(c)


def test_generators_are_members():
    rng = random.Random(777)
    for _ in range(15):
        gens = [random_poly(rng) for _ in range(2)]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        ideal = Ideal(XYZ, gens)
        gb = buchberger(ideal)
        for g in gens:
            assert ideal_member(g, gb)
        f, h = random_poly(rng), random_poly(rng)
        assert ideal_member(gens[0] * f + gens[-1] * h, gb)


def test_buchberger_fixed_point():
    gb = buchberger(I("x^2 - y", "x^3 - z"))
    again = buchberger(Ideal(XYZ, list(gb.elements)))
    assert again.elements == gb.elements


def test_equal_ideals_have_equal_reduced_bases():
    assert same_ideal(I("x - y"), I("2*x - 2*y"))
    assert same_ideal(I("x", "y"), I("x + y", "x - y"))
    assert not same_ideal(I("x"), I("x", "y"))


def test_saturation_golden_and_laws():
    sat = saturate(I("x*z"), P("z"))
    assert same_ideal(sat, I("x"))
    # I is contained in I : f^oo
    base = I("x^2 - y*z", "x*z - y^6")
    sat2 = saturate(base, P("x*y*z"))
    gb2 = buchberger(sat2)
    for g in base.generators:
        assert ideal_member(g, gb2)
    # known saturation element for the (7,3,11) lattice ideal
    assert ideal_member(P("x*y^5 - z^2"), gb2)
    # saturating again changes nothing
    assert same_ideal(saturate(sat2, P("x*y*z")), sat2)
    with pytest.raises(ValueError):
        saturate(base, SparsePoly.zero(XYZ))


def test_quotient_golden_and_laws():
    quot = quotient_by(I("x*z"), P("z"))
    assert same_ideal(quot, I("x"))
    base = I("x^2", "x*y")
    f = P("y")
    quot2 = quotient_by(base, f)
    gb_base = buchberger(base)
    # f * (I : f) is contained in I
    for q in quot2.generators:
        assert ideal_member(q * f, gb_base)
    # I is contained in I : f
    gb_quot = buchberger(quot2)
    for g in base.generators:
        assert ideal_member(g, gb_quot)
    with pytest.raises(ValueError):
        quotient_by(base, SparsePoly.zero(XYZ))


def test_quotient_by_a_binomial_stays_small():
    # a tagged elimination of this quotient passed 2 * 10^5 bits in its
    # coefficients and ran for minutes; the homogenized read-off takes 32 steps
    ideal = I("-3*x*y*z^2 - 3*y*z^2 - 3*x^2", "-3*x*y^2*z^2 + 3/2*x", "5*x^2*y^2*z^2 + 5/3*y*z^2 + 7*y")
    h = P("x*y - z")
    quot = quotient_by(ideal, h, step_budget=100)
    # h * (I : h) is contained in I, and I in I : h
    gb = buchberger(ideal)
    assert all(ideal_member(h * q, gb) for q in quot.generators)
    gb_quot = buchberger(quot)
    assert all(ideal_member(g, gb_quot) for g in ideal.generators)


@pytest.mark.parametrize("colon", [saturate, quotient_by])
def test_colon_refuses_a_polynomial_outside_the_ring(colon):
    # the same names in another order: aligned by position, y*z would read as x*y
    with pytest.raises(ValueError, match="outside the ideal's ring"):
        colon(I("x*y", "y*z^2"), P("y*z", ("z", "y", "x")))


def test_krull_dimension_goldens():
    assert krull_dimension(I("x", "y")) == 1
    assert krull_dimension(Ideal(XYZ, [])) == 3
    assert krull_dimension(I("1")) is None
    assert krull_dimension(I("x*y - 1")) == 2
    assert krull_dimension(Ideal(("x", "y"), [P("x*y - 1", ("x", "y"))])) == 1
    assert krull_dimension(I("x")) == 2
    assert krull_dimension(I("x", "y", "z")) == 0


def test_step_budget_exceeded():
    with pytest.raises(StepBudgetExceeded):
        buchberger(I("x*y - z^2", "y*z - x^2"), step_budget=1)
    # the same ideal completes with a sufficient budget
    buchberger(I("x*y - z^2", "y*z - x^2"), step_budget=2)


def test_start_basis_must_share_ring_and_order():
    # an equal order is accepted: orders are values, not key objects
    extended = buchberger(I("y - z^2"), weights=(1, 1, 2), start=buchberger(I("x - y"), weights=[1, 1, 2]))
    assert extended == buchberger(I("x - y", "y - z^2"), weights=(1, 1, 2))
    assert extended.elements == [P("x - y"), P("z^2 - y")]
    gb = buchberger(I("x - y"))
    with pytest.raises(ValueError, match="another order"):
        buchberger(I("y - z"), weights=(1, 1, 2), start=gb)
    with pytest.raises(ValueError, match="another ring"):
        buchberger(Ideal(("x", "y"), [P("y", ("x", "y"))]), start=gb)


def test_ideal_ring_validation():
    with pytest.raises(ValueError):
        Ideal(XYZ, [SparsePoly.variable(("u", "v"), "u")])


@st.composite
def ideal_and_poly(draw):
    """A small ideal and a polynomial in 3 or 4 variables, with cancelling coefficients."""
    ring = draw(st.sampled_from([XYZ, ("x", "y", "z", "t")]))
    exps = st.tuples(*[st.integers(0, 2)] * len(ring))
    coeffs = st.sampled_from([Fraction(c) for c in (-2, -1, 1, 2)] + [Fraction(1, 2), Fraction(-3, 2)])

    def poly(max_size):
        return SparsePoly(ring, draw(st.dictionaries(exps, coeffs, min_size=1, max_size=max_size)))

    gens = [poly(3) for _ in range(draw(st.integers(1, 3)))]
    return Ideal(ring, gens), poly(6)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(ideal_and_poly())
def test_normal_form_matches_sympy_reduced(ideal_f):
    ideal, f = ideal_f
    syms = sympy.symbols(" ".join(ideal.variables))
    gb = buchberger(ideal)
    ref = sympy.groebner(
        [to_sympy(g, syms) for g in ideal.generators], *syms, order="grevlex"
    )
    _, rem = sympy.reduced(to_sympy(f, syms), ref.exprs, *syms, order="grevlex")
    nf = normal_form(f, gb)
    assert sympy.expand(to_sympy(nf, syms) - rem) == 0
    assert_coefficients(nf)


@st.composite
def fractional_ideal_and_poly(draw):
    """An ideal whose coefficients have denominators and whose leading coefficients
    rarely divide one another, a polynomial and a nonzero rational."""
    exps = st.tuples(*[st.integers(0, 2)] * 3)
    coeffs = st.sampled_from(
        [Fraction(c) for c in (2, -3, 5, 7)] + [Fraction(3, 2), Fraction(-7, 4), Fraction(5, 3)]
    )

    def poly(max_size):
        return SparsePoly(XYZ, draw(st.dictionaries(exps, coeffs, min_size=1, max_size=max_size)))

    gens = [poly(3) for _ in range(draw(st.integers(1, 3)))]
    c = draw(st.sampled_from([Fraction(-1), Fraction(6), Fraction(-5, 12), Fraction(9, 7)]))
    return Ideal(XYZ, gens), poly(6), c


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(fractional_ideal_and_poly())
def test_fraction_free_kernel_is_scale_invariant(case):
    ideal, f, c = case
    gb = buchberger(ideal)
    scaled = Ideal(XYZ, [g.scale(c) for g in ideal.generators])
    assert buchberger(scaled).elements == gb.elements
    nf = normal_form(f, gb)
    assert normal_form(f.scale(c), gb) == nf.scale(c)
    # the integer form cached on gb by the calls above gives what a fresh basis gives
    assert normal_form(f, buchberger(Ideal(XYZ, gb.elements))) == nf
    for p in gb.elements + [nf]:
        assert_coefficients(p)


@st.composite
def ideal_extension(draw):
    """Two small ideals I and G of x, y, z with rational coefficients and a
    polynomial."""
    exps = st.tuples(*[st.integers(0, 2)] * 3)
    coeffs = st.sampled_from(
        [Fraction(c) for c in (2, -3, 5, 7)] + [Fraction(3, 2), Fraction(-7, 4), Fraction(5, 3)]
    )

    def poly(max_size):
        return SparsePoly(XYZ, draw(st.dictionaries(exps, coeffs, min_size=1, max_size=max_size)))

    ideal = [poly(3) for _ in range(draw(st.integers(1, 3)))]
    more = [poly(3) for _ in range(draw(st.integers(1, 2)))]
    return ideal, more, poly(6)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(ideal_extension())
# once a swell case: reducing by basis elements whose lead a later lead
# divides made a quotient of I + G by x + y run for minutes
@example((
    [P("-3*x^2*y^2*z + 3/2*y^2*z + 5/3*x^2"), P("5/3*x^2*y^2")],
    [P("7*x^2*y*z - 7/4*x^2*z - 3*z"), P("5*x^2*y^2*z + 5*x*y^2*z^2")],
    P("5*x*y^2*z^2 + 3/2*x*y^2"),
))
def test_extended_basis_is_the_basis_of_the_enlarged_ideal(case):
    ideal, more, f = case
    whole = Ideal(XYZ, ideal + more)
    gb = buchberger(whole)
    extended = buchberger(Ideal(XYZ, more), start=buchberger(Ideal(XYZ, ideal)))
    assert extended.elements == gb.elements
    assert normal_form(f, extended) == normal_form(f, gb)
    assert extended.dimension() == krull_dimension(whole)


def test_normal_form_rescales_mid_reduction():
    # Integer basis 2x - y, 3y^2 - z.  Reducing z^4 + x*y^2 + y*z puts z^4 in
    # the remainder first; then lc 2 does not divide the x*y^2 coefficient,
    # and after that lc 3 does not divide the y^3 coefficient, so the pending
    # terms and the remainder are rescaled twice (scale 6).
    gb = buchberger(I("2*x - y", "3*y^2 - z"))
    assert [str(g) for g in gb.elements] == ["x - 1/2*y", "y^2 - 1/3*z"]
    assert normal_form(P("z^4 + x*y^2 + y*z"), gb) == P("z^4 + 7/6*y*z")
    assert normal_form(P("1/5*z^4 + 1/5*x*y^2"), gb) == P("1/5*z^4 + 1/30*y*z")


@st.composite
def ideal_and_saturating_poly(draw):
    """An ideal of x, y, z with rational coefficients, and a monomial or a
    non-monomial to saturate it by."""
    exps = st.tuples(*[st.integers(0, 2)] * 3)
    coeffs = st.sampled_from(
        [Fraction(c) for c in (-2, -1, 1, 3)] + [Fraction(1, 2), Fraction(-5, 3)]
    )
    gens = [
        SparsePoly(XYZ, draw(st.dictionaries(exps, coeffs, min_size=1, max_size=3)))
        for _ in range(draw(st.integers(1, 3)))
    ]
    f = draw(st.sampled_from(["x*y*z", "y", "x^2*z", "x + y", "x*y - z", "y^2 - 2*x*z + 1"]))
    return Ideal(XYZ, gens), P(f)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(ideal_and_saturating_poly())
def test_saturation_returns_its_reduced_basis(case):
    ideal, f = case
    sat = saturate(ideal, f)
    gb = buchberger(sat)
    assert sat.generators == gb.elements
    # I is contained in I : f^oo
    assert all(ideal_member(g, gb) for g in ideal.generators)


def _smallest_budget(ideal, f):
    budget = 0
    while True:
        try:
            saturate(ideal, f, step_budget=budget)
            return budget
        except StepBudgetExceeded:
            budget += 1


@pytest.mark.parametrize(
    "triple, f12_steps, lattice_steps",
    [((3, 4, 5), 13, 11), ((3, 5, 7), 13, 38)],
    ids=["3_4_5", "3_5_7"],
)
def test_saturation_step_counts_are_pinned(triple, f12_steps, lattice_steps):
    # The smallest budgets pin the S-pair selection order: a change in it
    # moves the step at which StepBudgetExceeded (exit 3) fires.  The budget
    # bounds each of saturate's three Buchberger runs.
    w = WeightTriple(*triple)
    f1, f2, _, _ = coxring.mult2_fs(coxring.classify(w))
    xyz = P("x*y*z")
    assert _smallest_budget(Ideal(XYZ, [f1, f2]), xyz) == f12_steps
    assert _smallest_budget(Ideal(XYZ, coxring.chart_binomials(w)), xyz) == lattice_steps


@st.composite
def packed_operands(draw):
    """A packing of n <= 9 variables, its weights and two exponent vectors below its limit.

    Weighted degrees and single fields are often exactly limit - 1, so sums
    reach 2 * limit - 2, the most a product of two kernel operands can be."""
    n = draw(st.integers(1, 9))
    weights = draw(st.just((1,) * n) | st.tuples(*[st.integers(1, 5)] * n))
    pk = groebner._Packing(n, draw(st.sampled_from([3, 4, 7, 12, 70])), weights)
    top = pk.limit - 1

    def operand():
        deg = draw(st.one_of(st.just(top), st.integers(0, top)))
        cuts = sorted(draw(st.lists(st.sampled_from([0, deg, deg // 2]) | st.integers(0, deg),
                                    min_size=n - 1, max_size=n - 1)))
        # field i takes weights[i] * exp[i] of the weighted degree
        return tuple((b - a) // w for a, b, w in zip([0] + cuts, cuts + [deg], weights))

    return pk, weights, operand(), operand()


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(packed_operands())
def test_packed_codec_agrees_with_tuple_definitions(case):
    pk, weights, a, b = case
    key = groebner._order_key(weights)

    def packed(u):
        return sum((w * x) << s for x, w, s in zip(u, weights, pk.shifts))

    ab = tuple(x + y for x, y in zip(a, b))
    lcm = tuple(map(max, a, b))
    assert pk.encode(ab) == pk.encode(a) + pk.encode(b)
    exps = [a, b, ab, lcm]
    for u in exps:
        assert pk.decode(pk.encode(u)) == u
    for u in exps:
        for v in exps:
            ku, kv = pk.encode(u), pk.encode(v)
            assert (ku < kv) == (key(u) < key(v)) and (ku == kv) == (u == v)
            divides = not (packed(v) - packed(u)) & pk.guard
            assert divides == all(x <= y for x, y in zip(u, v))
    pa, pb = pk.unpack(pk.encode(a)), pk.unpack(pk.encode(b))
    assert (pa, pb) == (packed(a), packed(b))
    assert pk.lcm(pa, pb) == (pk.encode(lcm), packed(lcm))
    # a sum reaching the limit in weighted degree is refused as an operand
    if sum(map(mul, ab, weights)) >= pk.limit:
        with pytest.raises(groebner._Widen):
            pk.unpack(pk.encode(ab))
    else:
        assert pk.unpack(pk.encode(ab)) == packed(ab)


@st.composite
def weighted_ideal(draw):
    """Two small ideals I and G of x, y, z, positive weights on x, y, z and
    two multipliers for an ideal member."""
    exps = st.tuples(*[st.integers(0, 2)] * 3)
    coeffs = st.sampled_from([Fraction(c) for c in (-2, -1, 1, 3)] + [Fraction(1, 2), Fraction(-5, 3)])

    def poly(max_size):
        return SparsePoly(XYZ, draw(st.dictionaries(exps, coeffs, min_size=1, max_size=max_size)))

    ideal = [poly(3) for _ in range(draw(st.integers(1, 2)))]
    more = [poly(3)]
    weights = draw(st.tuples(*[st.integers(1, 5)] * 3))
    return ideal, more, weights, poly(3), poly(3)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(weighted_ideal())
def test_weighted_basis_generates_the_grevlex_ideal(case):
    ideal, more, weights, f, h = case
    whole = Ideal(XYZ, ideal + more)
    weighted = buchberger(whole, weights=weights)
    grevlex = buchberger(whole)
    # the same ideal: each basis reduces the other to zero
    assert all(normal_form(g, grevlex).is_zero() for g in weighted.elements)
    assert all(normal_form(g, weighted).is_zero() for g in grevlex.elements)
    assert normal_form(ideal[0] * f + more[0] * h, weighted).is_zero()
    assert weighted.dimension() == grevlex.dimension() == krull_dimension(whole)
    # the carried extension under the weights is the fresh weighted basis
    start = buchberger(Ideal(XYZ, ideal), weights=weights)
    assert buchberger(Ideal(XYZ, more), weights=weights, start=start) == weighted
    assert buchberger(Ideal(XYZ, ideal), weights=weights, start=start) == start
    other = (weights[0] + 1,) + weights[1:]
    with pytest.raises(ValueError, match="another order"):
        buchberger(Ideal(XYZ, more), weights=other, start=start)


def test_unit_weights_are_grevlex_and_weights_must_be_positive():
    ideal = I("x^2 - y", "x^3 - z")
    gb = buchberger(ideal, weights=(1, 1, 1))
    assert gb == buchberger(ideal) and gb.weights == (1, 1, 1)
    # under weights (1, 2, 3) the generators are homogeneous and x^2 leads x^2 - y
    assert buchberger(ideal, weights=(1, 2, 3)).elements == [P("x^2 - y"), P("x*y - z"), P("y^2 - x*z")]
    for bad in [(1, 0, 1), (1, 2), (1, 1), (1, -1, 2)]:
        with pytest.raises(ValueError, match="positive"):
            buchberger(ideal, weights=bad)


XYZT = ("x", "y", "z", "t")


@st.composite
def homogeneous_ideal(draw):
    """Generators of x, y, z, t homogeneous for weights 1-5 (all ones half the time)."""
    weights = draw(st.one_of(st.just((1, 1, 1, 1)), st.tuples(*[st.integers(1, 5)] * 4)))
    exps = st.tuples(*[st.integers(0, 2)] * 4)
    coeffs = st.sampled_from([Fraction(c) for c in (-2, -1, 1, 3)] + [Fraction(1, 2), Fraction(-5, 3)])
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        terms = draw(st.dictionaries(exps, coeffs, min_size=1, max_size=4))
        degree = sum(map(mul, next(iter(terms)), weights))
        gens.append(SparsePoly(XYZT, {e: c for e, c in terms.items() if sum(map(mul, e, weights)) == degree}))
    return Ideal(XYZT, gens), weights


def tagged_quotient_by_t(ideal):
    """I : t by elimination in sympy: the elements free of the tag w of a lex
    basis of <w*I, (1 - w)*t>, w first, generate the intersection of I and <t>;
    each is divided by t."""
    w, *syms = sympy.symbols("w " + " ".join(XYZT))
    t = syms[-1]
    gens = [w * to_sympy(g, syms) for g in ideal.generators] + [(1 - w) * t]
    out = []
    for g in sympy.groebner(gens, w, *syms, order="lex").exprs:
        if not g.has(w):
            q, r = sympy.div(g, t, *syms)
            assert r == 0
            out.append(SparsePoly(XYZT, {e: Fraction(str(c)) for e, c in sympy.Poly(q, *syms).terms()}))
    return Ideal(XYZT, out)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(homogeneous_ideal())
def test_quotient_by_last_is_the_tagged_quotient(case):
    ideal, weights = case
    gb = buchberger(ideal, weights=weights)
    quot = gb.quotient_by_last()
    # the read-off is the reduced basis of <G> : t under the same order
    assert buchberger(Ideal(XYZT, quot.elements), weights=weights) == quot
    assert same_ideal(Ideal(XYZT, quot.elements), tagged_quotient_by_t(ideal))


def test_quotient_by_last_refuses_an_inhomogeneous_basis():
    # the lead x*t of x*t - y contains t, the term y does not
    with pytest.raises(AssertionError):
        buchberger(I("x*t - y", ring=XYZT)).quotient_by_last()
    gb = buchberger(I("x*t - y*t", "z", ring=XYZT))
    assert gb.quotient_by_last().elements == [P("z", XYZT), P("x - y", XYZT)]


def test_divided_by_last_divides_by_the_power_of_v_in_each_lead_up_to_the_cap():
    gb = buchberger(I("x*t^3 - y*t^3", "z*t", ring=XYZT))
    assert gb._divided_by_last(1).elements == [P("z", XYZT), P("x*t^2 - y*t^2", XYZT)]
    assert gb._divided_by_last(2).elements == [P("z", XYZT), P("x*t - y*t", XYZT)]
    assert gb._divided_by_last(None).elements == [P("z", XYZT), P("x - y", XYZT)]
    assert gb._divided_by_last(None)._divided_by_last(None) == gb._divided_by_last(None)
    # the lead x*t^2 of x*t^2 - y*t has two factors of t, the term y*t one
    gb = buchberger(I("x*t^2 - y*t", ring=XYZT))
    assert gb._divided_by_last(1).elements == [P("x*t - y", XYZT)]
    with pytest.raises(AssertionError):
        gb._divided_by_last(None)


def test_elements_not_in_compares_packed_elements():
    gb = buchberger(I("x*t - y*t", "z", ring=XYZT))
    quot = gb.quotient_by_last()
    # z is an element of both bases, x - y only of the read-off
    assert quot.elements_not_in(gb) == [P("x - y", XYZT)]
    assert gb.elements_not_in(gb) == [] and gb.elements_not_in(quot) == [P("x*t - y*t", XYZT)]
    # a wider packing of one side re-keys its elements, and nothing else changes
    gb._packed(2 * gb._int[0].w)
    assert quot.elements_not_in(gb) == [P("x - y", XYZT)]
    with pytest.raises(ValueError, match="different rings or orders"):
        quot.elements_not_in(buchberger(I("x*t - y*t", "z", ring=XYZT), weights=(1, 1, 2, 1)))


def sympy_ring(variables):
    return sympy.polys.rings.ring(",".join(variables), sympy.QQ, sympy.polys.orderings.grevlex)[0]


def to_ring(f, R):
    return R.from_dict({e: sympy.QQ(c.numerator, c.denominator) for e, c in f.terms.items()})


def from_ring(p, variables):
    return SparsePoly(variables, {
        e: Fraction(int(c.numerator), int(c.denominator)) for e, c in p.terms()
    })


def check_against_sympy(variables, gens, f):
    """Our reduced basis and the normal form of f equal sympy's."""
    R = sympy_ring(variables)
    ref = sympy.polys.groebnertools.groebner([to_ring(g, R) for g in gens], R)
    gb = buchberger(Ideal(variables, gens))
    assert {g.monic() for g in gb.elements} == {from_ring(p, variables).monic() for p in ref}
    _, rem = to_ring(f, R).div(ref)
    assert normal_form(f, gb) == from_ring(rem, variables)
    return gb


def test_widening_past_the_first_width_matches_sympy():
    # Mora's example: generators of degree 7, and z^37 - y^36*t in the reduced
    # basis.  37 is past the first width's limit, so the run widened.
    ring = ("x", "y", "z", "t")
    gens = [P(t, ring) for t in ("x^7 - y*z^5*t", "x*y^5 - z^6", "x^6*z - y^6*t")]
    first = groebner._Packing(4, groebner._first_width(gens, (1,) * 4), (1,) * 4)
    gb = check_against_sympy(ring, gens, P("z^40 + x^3*y^9*z^30 - 2*y^50*t", ring))
    assert P("z^37 - y^36*t", ring) in gb.elements
    assert 37 >= first.limit


def test_input_exponent_beyond_64_bits_matches_sympy():
    n = 2 ** 64 + 3
    gens = [P(f"x^{n}*y - z"), P("y^2 - z")]
    gb = check_against_sympy(XYZ, gens, P(f"x^{2 * n}*y^3 + 1/2*y*z^5"))
    assert max(max(e) for g in gb.elements for e in g.terms) == n


def _rees_basis(triple):
    """Ring and B0 of the Mult2 generator guess x, y, z, f1..f4 for a triple."""
    cls = coxring.classify(WeightTriple(*triple))
    inst = BlowupInput(WeightTriple(*cls.reordering), XYZ, list(coxring.mult2_fs(cls)), P("x*y*z"))
    ring, _, basis = verifygens.initial_basis(inst, verifygens.rees_multiplicities(inst))
    return ring, basis


@pytest.mark.parametrize("triple, steps", [((3, 4, 5), 17), ((3, 5, 7), 17)], ids=["3_4_5", "3_5_7"])
def test_rees_quotient_step_counts_are_pinned(triple, steps):
    # quotient_by(B0, t) of the first discovery round runs Buchberger on B0,
    # on its homogenization in 10 variables and on the read-off; the smallest
    # budget that completes all three pins their pair order, including how
    # ties between equal lcm keys are broken.
    ring, basis = _rees_basis(triple)
    t = SparsePoly.variable(ring, "t")
    quotient_by(Ideal(ring, basis), t, step_budget=steps)
    with pytest.raises(StepBudgetExceeded):
        quotient_by(Ideal(ring, basis), t, step_budget=steps - 1)
