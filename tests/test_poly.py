"""Sparse polynomial arithmetic, term orders, parsing and printing."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coefficients import assert_coefficients
from wpp_mori.poly import SparsePoly, divides, grevlex_key, parse_poly

XYZ = ("x", "y", "z")


def random_poly(rng, variables=XYZ, nterms=4, max_exp=3):
    terms = {}
    for _ in range(rng.randint(0, nterms)):
        exp = tuple(rng.randint(0, max_exp) for _ in variables)
        terms[exp] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return SparsePoly(variables, terms)


def P(text):
    return parse_poly(text, XYZ)


def test_grevlex_order_goldens():
    # x^2 > xy > y^2 > xz > yz > z^2 in grevlex with x > y > z
    monos = ["x^2", "x*y", "y^2", "x*z", "y*z", "z^2"]
    keys = [grevlex_key(next(iter(P(m).terms))) for m in monos]
    assert keys == sorted(keys, reverse=True)
    assert P("x*y^2 + x^2*y").leading() == ((2, 1, 0), 1)


def test_ring_axioms_randomized():
    rng = random.Random(42)
    for _ in range(30):
        f, g, h = (random_poly(rng) for _ in range(3))
        assert f + g == g + f
        assert (f + g) + h == f + (g + h)
        assert f * g == g * f
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h
        assert f - f == SparsePoly.zero(XYZ)
        assert f * SparsePoly.constant(XYZ, 1) == f


def test_pow():
    f = P("x + y")
    assert f ** 0 == SparsePoly.constant(XYZ, 1)
    assert f ** 3 == f * f * f
    with pytest.raises(ValueError):
        f ** -1


def test_parse_str_round_trip():
    rng = random.Random(5)
    for _ in range(30):
        f = random_poly(rng)
        assert parse_poly(str(f), XYZ) == f


def test_parse_goldens():
    assert P("3/2*x^2*y - z + 1").terms == {
        (2, 1, 0): Fraction(3, 2),
        (0, 0, 1): Fraction(-1),
        (0, 0, 0): Fraction(1),
    }
    assert P("-x") == -SparsePoly.variable(XYZ, "x")
    assert P("0") == SparsePoly.zero(XYZ)
    assert P("x*x*y") == SparsePoly.monomial(XYZ, (2, 1, 0))
    with pytest.raises(ValueError):
        P("x + w")
    with pytest.raises(ValueError):
        P("x ^ y")
    # two factors side by side are not a sum, and a '*' needs a factor after it
    for text in ("2x", "x y", "3/2 x", "x*"):
        with pytest.raises(ValueError):
            P(text)


def test_parse_zero_denominator_is_a_value_error():
    with pytest.raises(ValueError, match="zero denominator"):
        P("1/0*x - y")
    assert P("0/3*x - y") == P("-y")


def test_primitive():
    f = P("2/3*x - 4/3*y")
    g = f.primitive()
    assert g == P("x - 2*y")
    assert (-g).primitive() == g
    assert SparsePoly.zero(XYZ).primitive().is_zero()


def test_weighted_and_multi_degree():
    f = P("x^2 - y*z")
    assert f.weighted_degree((7, 3, 11)) == 14
    assert f.weighted_degree((1, 1, 2)) is None
    dm = {"x": (7, 0), "y": (3, 0), "z": (11, 0)}
    assert f.multi_degree(dm) == (14, 0)
    assert P("x + y").multi_degree(dm) is None
    # homogeneous in the H-coordinate only
    assert f.multi_degree({"x": (7, 0), "y": (3, -1), "z": (11, 0)}) is None
    assert SparsePoly.constant(XYZ, 5).multi_degree(dm) == (0, 0)
    zero = SparsePoly.zero(XYZ)
    assert zero.weighted_degree((7, 3, 11)) is None
    assert zero.multi_degree(dm) is None


def test_substitute():
    S = ("u", "v")
    f = P("x*y - z")
    img = {
        "x": SparsePoly.variable(S, "u"),
        "y": SparsePoly.variable(S, "v"),
        "z": SparsePoly.variable(S, "u") * SparsePoly.variable(S, "v"),
    }
    assert f.substitute(img).is_zero()


def test_rename_ring():
    f = P("x^2 - y*z")
    big = ("x", "y", "z", "t")
    g = f.rename_ring(big)
    assert g.variables == big
    assert g.rename_ring(XYZ) == f
    # variables map by name, so the order of the new ring may differ
    assert f.rename_ring(("t", "z", "y", "x")) == parse_poly("x^2 - y*z", ("t", "z", "y", "x"))
    with pytest.raises(ValueError):
        # t has positive exponent but is not in the new ring
        SparsePoly.variable(big, "t").rename_ring(XYZ)


def test_divide_by_property():
    rng = random.Random(9)
    for _ in range(30):
        f = random_poly(rng)
        g = random_poly(rng)
        if g.is_zero():
            continue
        q, r = f.divide_by(g)
        assert q * g + r == f
        if not r.is_zero():
            # no term of r is divisible by the leading monomial of g
            le = g.leading()[0]
            for exp in r.terms:
                assert not all(a >= b for a, b in zip(exp, le))


def _divide_by_reference(g, f):
    """Division with remainder by building `quot + t` and `g - t*f` at every step."""
    lexp, lc = f.leading()
    quot = SparsePoly.zero(g.variables)
    rem = SparsePoly.zero(g.variables)
    while not g.is_zero():
        gexp, gc = g.leading()
        diff = tuple(a - b for a, b in zip(gexp, lexp))
        if all(d >= 0 for d in diff):
            t = SparsePoly.monomial(g.variables, diff, gc / lc)
            quot = quot + t
            g = g - t * f
        else:
            t = SparsePoly.monomial(g.variables, gexp, gc)
            rem = rem + t
            g = g - t
    return quot, rem


@st.composite
def dividend_and_divisor(draw):
    exps = st.tuples(*[st.integers(0, 3)] * 3)
    coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=4).filter(bool)
    f = SparsePoly(XYZ, draw(st.dictionaries(exps, coeffs, min_size=0, max_size=8)))
    g = SparsePoly(XYZ, draw(st.dictionaries(exps, coeffs, min_size=1, max_size=4)))
    # multiples of g exercise exact division; the sum, a nonzero remainder
    if draw(st.booleans()):
        f = f * g + draw(st.sampled_from([SparsePoly.zero(XYZ), P("x*y - 2/3*z")]))
    return f, g


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(dividend_and_divisor())
def test_divide_by_matches_reference_loop(case):
    f, g = case
    q, r = f.divide_by(g)
    assert (q, r) == _divide_by_reference(f, g)
    assert_coefficients(q)
    assert_coefficients(r)


def test_divides():
    assert divides(P("x - y"), P("x^2 - y^2"))
    assert not divides(P("x - y"), P("x^2 + y^2"))
    assert divides(P("x"), SparsePoly.zero(XYZ))
    with pytest.raises(ZeroDivisionError):
        divides(SparsePoly.zero(XYZ), P("x"))


def test_str_goldens():
    assert str(P("x^2 - y*z")) == "x^2 - y*z"
    assert str(SparsePoly.zero(XYZ)) == "0"
    assert str(P("-x + 1/2")) == "-x + 1/2"


def test_mismatched_rings_rejected():
    f = P("x")
    g = SparsePoly.variable(("u", "v"), "u")
    with pytest.raises(ValueError):
        f + g
    with pytest.raises(ValueError):
        f * g


# -- the unvalidated internal arithmetic against the validating constructor --

RINGS = (XYZ, ("x", "y", "z", "t"))
# Few exponents and a few coefficients that sum to zero in several ways, so
# that sums, differences and products cancel terms.
COEFFS = st.sampled_from(
    [Fraction(c) for c in (-2, -1, 1, 2)] + [Fraction(-1, 2), Fraction(1, 2), Fraction(3, 2)]
)


@st.composite
def poly_pairs(draw):
    """Two polynomials of one 3- or 4-variable ring; g reuses some of f's terms negated."""
    ring = draw(st.sampled_from(RINGS))
    exps = st.tuples(*[st.integers(0, 2)] * len(ring))
    f_terms = draw(st.dictionaries(exps, COEFFS, max_size=6))
    g_terms = draw(st.dictionaries(exps, COEFFS, max_size=6))
    if f_terms:
        for exp in draw(st.lists(st.sampled_from(sorted(f_terms)), max_size=4)):
            g_terms[exp] = -f_terms[exp]
    return SparsePoly(ring, f_terms), SparsePoly(ring, g_terms)


def validated(ring, raw_terms):
    """The validating constructor applied to a raw (exp, coeff) list that may hold zeros."""
    acc = {}
    for exp, c in raw_terms:
        acc[exp] = acc.get(exp, 0) + c
    return SparsePoly(ring, acc)


def assert_clean(p):
    assert_coefficients(p)
    assert all(len(e) == len(p.variables) and min(e) >= 0 for e in p.terms)
    assert p.terms == SparsePoly(p.variables, p.terms).terms


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(poly_pairs())
def test_internal_arithmetic_matches_validating_constructor(fg):
    f, g = fg
    ring = f.variables
    fi, gi = list(f.terms.items()), list(g.terms.items())
    expected = {
        "add": validated(ring, fi + gi),
        "sub": validated(ring, fi + [(e, -c) for e, c in gi]),
        "neg": validated(ring, [(e, -c) for e, c in fi]),
        "mul": validated(
            ring,
            [(tuple(a + b for a, b in zip(e1, e2)), c1 * c2) for e1, c1 in fi for e2, c2 in gi],
        ),
    }
    got = {"add": f + g, "sub": f - g, "neg": -f, "mul": f * g}
    for op, result in got.items():
        assert result == expected[op], op
        assert_clean(result)
    assert (f - f).is_zero() and (f + -f).is_zero()


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    poly_pairs(),
    st.sampled_from([0, 1, -3, Fraction(0), Fraction(2, 3), Fraction(-5, 7)]),
)
def test_scale_matches_validating_constructor(fg, c):
    f, _ = fg
    scaled = f.scale(c)
    assert scaled == validated(f.variables, [(e, v * c) for e, v in f.terms.items()])
    assert_clean(scaled)


# -- powers and substitution against plain repeated multiplication --


def _power_by_multiplication(f, n):
    result = SparsePoly.constant(f.variables, 1)
    for _ in range(n):
        result = result * f
    return result


RATIONALS = st.fractions(min_value=-3, max_value=3, max_denominator=3).filter(bool)


def polys(ring, max_terms):
    exps = st.tuples(*[st.integers(0, 2)] * len(ring))
    return st.dictionaries(exps, RATIONALS, max_size=max_terms).map(
        lambda terms: SparsePoly(ring, terms)
    )


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.one_of(polys(XYZ, 1), polys(XYZ, 3)), st.integers(0, 5))
def test_pow_matches_repeated_multiplication(f, n):
    got = f ** n
    assert got == _power_by_multiplication(f, n)
    assert_clean(got)


def _substitute_reference(f, assignment):
    """Term-by-term substitution with SparsePoly arithmetic."""
    images = [assignment[v] for v in f.variables]
    ring = images[0].variables
    result = SparsePoly.zero(ring)
    for exp, c in f.terms.items():
        term = SparsePoly.constant(ring, c)
        for img, e in zip(images, exp):
            if e:
                term = term * _power_by_multiplication(img, e)
        result = result + term
    return result


UV = ("u", "v")


@st.composite
def substitutions(draw):
    """A polynomial in x, y, z, t and images in K[u, v]: general, single-term,
    constant or zero, with one image often used for several variables."""
    ring = ("x", "y", "z", "t")
    exps = st.tuples(*[st.integers(0, 4)] * len(ring))
    f = SparsePoly(ring, draw(st.dictionaries(exps, RATIONALS, max_size=6)))
    image = st.one_of(
        polys(UV, 3),
        polys(UV, 1),
        RATIONALS.map(lambda c: SparsePoly.constant(UV, c)),
        st.just(SparsePoly.zero(UV)),
    )
    pool = draw(st.lists(image, min_size=1, max_size=4))
    return f, {v: draw(st.sampled_from(pool)) for v in ring}


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(substitutions())
def test_substitute_matches_reference_loop(case):
    f, assignment = case
    got = f.substitute(assignment)
    assert got == _substitute_reference(f, assignment)
    assert_clean(got)


def test_substitute_rejects_images_from_different_rings():
    f = P("x*y - z")
    img = {
        "x": SparsePoly.variable(UV, "u"),
        "y": SparsePoly.variable(UV, "v"),
        "z": SparsePoly.variable(("u", "w"), "w"),
    }
    with pytest.raises(ValueError):
        f.substitute(img)
    # an image of a variable that f does not use must share the ring too
    with pytest.raises(ValueError):
        P("x*y").substitute(img)


# -- the coefficient invariant: ints where integral, Fractions only for true fractions --

INTEGERS = st.integers(-6, 6).filter(bool)


@st.composite
def int_or_rational_pairs(draw):
    """Two polynomials of one ring, with int coefficients only or with rational ones."""
    ring = draw(st.sampled_from(RINGS))
    exps = st.tuples(*[st.integers(0, 2)] * len(ring))
    coeffs = draw(st.sampled_from([INTEGERS, RATIONALS]))
    f, g = (SparsePoly(ring, draw(st.dictionaries(exps, coeffs, max_size=5))) for _ in range(2))
    return f, g


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    int_or_rational_pairs(),
    st.integers(0, 3),
    st.sampled_from([0, 3, -1, Fraction(4, 2), Fraction(-2, 3), "5/7"]),
)
# int polynomials whose division has inexact quotients: lc 2 divides neither 3 nor 1
@example((P("3*x^2*y + y*z - 1"), P("2*x*y + z")), 2, Fraction(6, 3))
def test_every_operation_keeps_the_coefficient_invariant(fg, n, c):
    f, g = fg
    ring = f.variables
    all_int = all(type(v) is int for v in list(f.terms.values()) + list(g.terms.values()))
    closed = {
        "add": f + g, "sub": f - g, "neg": -f, "mul": f * g, "pow": f ** n,
        "primitive": f.primitive(), "substitute": f.substitute({v: g for v in ring}),
    }
    others = {
        "validated": SparsePoly(ring, {e: Fraction(v) for e, v in f.terms.items()}),
        "constant": SparsePoly.constant(ring, c),
        "monomial": SparsePoly.monomial(ring, (1,) * len(ring), c),
        "variable": SparsePoly.variable(ring, "y"),
        "scale": f.scale(c),
        "parse": parse_poly(str(f), ring),
        "rename": f.rename_ring(ring + ("w",)),
    }
    if f:
        others["monic"] = f.monic()
        assert others["monic"].leading()[1] == 1
    if g:
        q, r = f.divide_by(g)
        assert q * g + r == f
        others["quotient"], others["remainder"] = q, r
    for p in [*closed.values(), *others.values()]:
        assert_coefficients(p)
    # the ring operations on ints and the primitive form never make a Fraction
    if all_int:
        for name, p in closed.items():
            assert all(type(v) is int for v in p.terms.values()), name
    assert all(type(v) is int for v in closed["primitive"].terms.values())
    assert others["validated"] == f and others["parse"] == f
