"""Vanishing-order slices at [1,1,1]: dimensions, bases, exact multiplicities.

The oracle works in the local chart (s, t) -> [1+s : 1+t : 1], which is a
local isomorphism near the point: the vanishing order of f(1+s, 1+t, 1)
at (0, 0) is the multiplicity, and the order-< mu coefficient conditions
are computed with sympy, independently of the package's lattice chart.
"""

import random
from fractions import Fraction
from math import comb, gcd, isqrt

import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from wpp_mori import cli, coxring, groebner, linalg, mult
from wpp_mori.poly import SparsePoly, parse_poly
from wpp_mori.weights import WeightTriple, monomials_of_degree

XYZ = ("x", "y", "z")


def oracle_slice_dim(w, d, mu):
    monos = monomials_of_degree(w, d)
    if not monos:
        return 0
    rows = []
    for order in range(mu):
        for alpha in range(order + 1):
            beta = order - alpha
            rows.append([comb(i, alpha) * comb(j, beta) for (i, j, _k) in monos])
    if not rows:
        return len(monos)
    return len(monos) - sympy.Matrix(rows).rank()


def oracle_multiplicity(w, f):
    s, t = sympy.symbols("s t")
    expr = sympy.Integer(0)
    for (i, j, k), c in f.terms.items():
        expr += sympy.Rational(c) * (1 + s) ** i * (1 + t) ** j
    expr = sympy.expand(expr)
    poly = sympy.Poly(expr, s, t)
    if poly.is_zero:
        raise ValueError("form vanishes identically on the chart")
    return min(m[0] + m[1] for m in poly.monoms())


TRIPLES = [(1, 1, 1), (1, 2, 3), (2, 3, 5), (7, 3, 11), (7, 11, 12)]


def test_slice_dim_matches_oracle():
    for (a, b, c) in TRIPLES:
        w = WeightTriple(a, b, c)
        for d in range(0, 25):
            for mu in range(0, 4):
                assert mult.slice_dim(w, d, mu) == oracle_slice_dim(w, d, mu), (
                    (a, b, c), d, mu
                )


def test_slice_dim_high_multiplicity_spot_checks():
    w = WeightTriple(7, 11, 12)
    # first degree with a mu = 3 member is 91
    assert mult.slice_dim(w, 84, 3) == 0
    assert mult.slice_dim(w, 91, 3) == oracle_slice_dim(w, 91, 3) == 1


def _poly(vec, monos):
    return SparsePoly(XYZ, {m: c for m, c in zip(monos, vec) if c})


def test_symbolic_slice_basis_consistency():
    for (a, b, c) in [(2, 3, 5), (7, 3, 11)]:
        w = WeightTriple(a, b, c)
        for d in range(1, 20):
            for mu in range(1, 3):
                vecs, monos = mult.slice_kernel_vectors(w, d, mu)
                assert len(vecs) == mult.slice_dim(w, d, mu)
                for f in (_poly(v, monos) for v in vecs):
                    assert f.weighted_degree(w.as_tuple()) == d
                    assert mult.rees_multiplicity(w, f) >= mu
                    assert oracle_multiplicity(w, f) >= mu


def test_rees_multiplicity_goldens():
    w = WeightTriple(7, 3, 11)
    f1 = parse_poly("x^2 - y*z", XYZ)
    f2 = parse_poly("x*z - y^6", XYZ)
    f3 = parse_poly("x*y^5 - z^2", XYZ)
    f4 = parse_poly("x^3*y^4 + y^11 - 3*x*y^5*z + z^3", XYZ)
    assert [mult.rees_multiplicity(w, f) for f in (f1, f2, f3, f4)] == [1, 1, 1, 2]
    # a form not vanishing at the point has multiplicity 0
    assert mult.rees_multiplicity(w, parse_poly("x", XYZ)) == 0
    for f in (f1, f2, f3, f4):
        assert mult.rees_multiplicity(w, f) == oracle_multiplicity(w, f)
    # rational coefficients: scaling keeps the multiplicity
    assert mult.rees_multiplicity(w, f4.scale(Fraction(-2, 3))) == 2


def test_rees_multiplicity_errors():
    w = WeightTriple(1, 2, 3)
    with pytest.raises(ValueError):
        mult.rees_multiplicity(w, SparsePoly.zero(XYZ))
    with pytest.raises(ValueError):
        mult.rees_multiplicity(w, parse_poly("x + z", XYZ))


def test_chart_kernel_basis_spans_weight_zero_lattice():
    for (a, b, c) in [(1, 1, 1), (2, 3, 7), (7, 2, 3), (7, 3, 11), (9, 10, 13)]:
        w = WeightTriple(a, b, c)
        basis = mult.chart_kernel_basis(w)
        for vec in basis:
            assert a * vec[0] + b * vec[1] + c * vec[2] == 0
        # coprime 2x2 minors: the two vectors span the whole rank-2 lattice
        (p0, p1, p2), (q0, q1, q2) = basis
        assert gcd(p0 * q1 - p1 * q0, p0 * q2 - p2 * q0, p1 * q2 - p2 * q1) == 1


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(TRIPLES + [(9, 10, 13), (14, 17, 19)]), st.integers(0, 60))
def test_chart_exponents_are_coordinates_in_the_kernel_basis(triple, d):
    # checked against the basis alone: u*basis[0] + v*basis[1] = m - m0
    w = WeightTriple(*triple)
    monos = monomials_of_degree(w, d)
    uv = mult._chart_exponents(w, monos)
    assert len(uv) == len(monos)
    b0, b1 = mult.chart_kernel_basis(w)
    for (u, v), m in zip(uv, monos):
        assert [u * x + v * y for x, y in zip(b0, b1)] == [m[i] - monos[0][i] for i in range(3)]


def _binom(n, k):
    """C(n, k) for any integer n and k >= 0, by math.comb."""
    return comb(n, k) if n >= 0 else (-1) ** k * comb(k - n - 1, k)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(TRIPLES), st.integers(0, 40), st.integers(0, 7))
@example((1, 2, 3), 5, 4)
@example((7, 3, 11), 29, 3)
def test_condition_matrix_matches_comb_reference(triple, d, mu):
    w = WeightTriple(*triple)
    monos = monomials_of_degree(w, d)
    rows, returned = mult.condition_matrix(w, monos, mu)
    uv = mult._chart_exponents(w, monos)
    assert returned is monos
    expected = [
        [_binom(u, alpha) * _binom(v, order - alpha) for u, v in uv]
        for order in range(mu)
        for alpha in range(order + 1)
    ]
    assert rows == (expected if monos else [])


def test_condition_matrix_examples_have_negative_chart_exponents():
    # the explicit examples above reach C(u, k) with u < 0 in both coordinates
    for triple, d in [((1, 2, 3), 5), ((7, 3, 11), 29)]:
        w = WeightTriple(*triple)
        uv = mult._chart_exponents(w, monomials_of_degree(w, d))
        assert min(u for u, _ in uv) < 0 and min(v for _, v in uv) < 0


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_rees_multiplicity_matches_oracle_on_random_forms(data):
    w = WeightTriple(*data.draw(st.sampled_from(TRIPLES)))
    d = data.draw(st.integers(0, 14))
    monos = monomials_of_degree(w, d)
    coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=len(monos), max_size=len(monos)))
    g = _poly(coeffs, monos)
    assume(not g.is_zero())
    # a binomial of two distinct monomials of one degree has multiplicity 1,
    # so multiplying by its powers reaches multiplicities 2 and more
    d_line = data.draw(st.sampled_from(
        [e for e in range(1, w.a * w.b + 1) if len(monomials_of_degree(w, e)) >= 2]
    ))
    m1, m2 = data.draw(st.lists(
        st.sampled_from(monomials_of_degree(w, d_line)), min_size=2, max_size=2, unique=True,
    ))
    binomial = SparsePoly(XYZ, {m1: 1, m2: -1})
    f = g * binomial ** data.draw(st.integers(0, 4))
    assert mult.rees_multiplicity(w, f) == oracle_multiplicity(w, f)


INTS = st.integers(-3, 3).filter(bool)
MULT2_C40 = [
    cls for cls in (coxring.classify(WeightTriple(*t)) for t in cli.coprime_triples(40))
    if cls.is_mult2
]


@st.composite
def sparse_forms(draw):
    """(w, f): a Mult2 form f1..f4 of a triple with c <= 40, or a binomial or
    trinomial of degree up to bc whose x and y exponents, the ones the sympy
    oracle expands, are at most 20 (40 in a progression).  Coefficients often
    sum to zero, and a trinomial x^p - 2 x^q + x^(2q - p) has multiplicity 2."""
    if draw(st.booleans()):
        cls = draw(st.sampled_from(MULT2_C40))
        return WeightTriple(*cls.reordering), draw(st.sampled_from(coxring.mult2_fs(cls)))
    w = WeightTriple(*draw(st.sampled_from(cli.coprime_triples(40))))
    d = draw(st.integers(w.c, w.b * w.c))
    monos = [m for m in monomials_of_degree(w, d) if max(m[:2]) <= 20]
    assume(len(monos) >= 2)
    picked = draw(st.lists(st.sampled_from(monos), min_size=2, max_size=3, unique=True))
    kind = draw(st.sampled_from(["random", "vanishing", "progression"]))
    if kind == "progression":
        p, q = picked[:2]
        r = tuple(2 * j - i for i, j in zip(p, q))
        assume(min(r) >= 0)
        picked, coeffs = [p, q, r], [1, -2, 1]
    else:
        coeffs = draw(st.lists(INTS, min_size=len(picked), max_size=len(picked)))
        if kind == "vanishing":
            coeffs[-1] = -sum(coeffs[:-1])
            assume(coeffs[-1])
    return w, SparsePoly(XYZ, dict(zip(picked, coeffs)))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(sparse_forms())
def test_rees_multiplicity_of_sparse_forms_of_large_degree(case):
    # the support-only read agrees with sympy and with the full degree slice
    w, f = case
    d = f.weighted_degree(w.as_tuple())
    monos = monomials_of_degree(w, d)
    full = mult._vanishing_order(w, d, monos, mult._coefficient_vector(f.primitive(), monos))
    assert mult.rees_multiplicity(w, f) == oracle_multiplicity(w, f) == full


def _witness(w, d, mu, factor=None, tie_break="first"):
    """The form of `witness_vector`, or None."""
    found = mult.witness_vector(w, d, mu, factor, tie_break)
    return None if found is None else mult.vector_to_poly(*found)


def test_generic_exact_multiplicity():
    # the generic member of a nonzero V(d, mu) has multiplicity exactly mu
    w = WeightTriple(2, 3, 5)
    witness = _witness(w, 5, 1)
    assert mult.rees_multiplicity(w, witness) == 1
    assert str(witness) == "x*y - z"
    assert _witness(w, 1, 1) is None
    # V(5, 1) is spanned by x*y - z, so it has no form outside its multiples
    assert _witness(w, 5, 1, factor=(5, 1, witness)) is None


def test_generic_exact_multiplicity_tie_breaks_agree_in_exactness():
    w = WeightTriple(7, 3, 11)
    for tie in ("first", "last"):
        witness = _witness(w, 14, 1, tie_break=tie)
        assert mult.rees_multiplicity(w, witness) == 1


def test_generic_exact_multiplicity_matches_oracle():
    rng = random.Random(2016)
    cases = 0
    while cases < 15:
        w = WeightTriple(*rng.choice([(1, 1, 1), (1, 2, 3), (2, 3, 5), (3, 4, 5), (7, 3, 11)]))
        d, mu_min = rng.randint(1, 24), rng.randint(1, 3)
        dim = oracle_slice_dim(w, d, mu_min)
        if dim == 0:
            continue
        cases += 1
        mu_oracle = mu_min
        while oracle_slice_dim(w, d, mu_oracle + 1) == dim:
            mu_oracle += 1
        assert mu_oracle == mu_min, (w.as_tuple(), d, mu_min)
        for tie in ("first", "last"):
            witness = _witness(w, d, mu_min, tie_break=tie)
            assert mult.rees_multiplicity(w, witness) == mu_min, (w.as_tuple(), d, mu_min)
            assert oracle_multiplicity(w, witness) == mu_min


def test_short_directions_are_the_shortest_weight_zero_vectors():
    # brute force over a box that holds every vector of weighted length <= 60
    for triple in [(1, 1, 1), (2, 3, 5), (7, 3, 11), (13, 1, 2), (5, 7, 8)]:
        a, b, c = triple
        found = set()
        for x in range(-60, 61):
            for y in range(-60, 61):
                z, rem = divmod(-a * x - b * y, c)
                if not rem and gcd(x, y, z) == 1:
                    length = (a * abs(x) + b * abs(y) + c * abs(z)) // 2
                    found.add((length, max((x, y, z), (-x, -y, -z))))
        shortest = sorted(found)[:3]
        assert shortest[-1][0] <= 60
        assert mult._short_directions(*triple) == [v for _, v in shortest]


@st.composite
def peel_slices(draw):
    """(w, d, mu) of a slice with mu >= 1 that the line peel may shrink."""
    triple = draw(st.sampled_from(TRIPLES + cli.coprime_triples(20)))
    mu = draw(st.integers(1, 9))
    w = WeightTriple(*triple)
    # up to about mu * sqrt(abc) most slices have few enough monomials to peel
    return w, draw(st.integers(0, mu * isqrt(w.abc) + max(triple))), mu


@settings(max_examples=150, deadline=None)
@given(peel_slices())
def test_peel_certifies_only_full_rank_slices(slice_):
    # the residual lemma in exact arithmetic: the slice is independent in
    # degree mu - 1 if its residual is independent in degree m'
    w, d, mu = slice_
    monos = monomials_of_degree(w, d)
    rest, m = mult._peel(w, monos, mu)
    assert set(rest) <= set(monos)
    assert len(rest) == len(monos) or 2 * len(rest) <= (m + 1) * (m + 2)
    if not rest or linalg.rank(mult.condition_matrix(w, rest, m + 1)[0]) == len(rest):
        assert linalg.rank(mult.condition_matrix(w, monos, mu)[0]) == len(monos)


@settings(max_examples=150, deadline=None)
@given(peel_slices())
@example((WeightTriple(9, 10, 13), 372, 11))
@example((WeightTriple(2, 3, 5), 30, 6))
def test_residual_certificate_certifies_only_full_rank_slices(slice_):
    # the two routes by which slice_kernel_vectors skips the full matrix
    w, d, mu = slice_
    monos = monomials_of_degree(w, d)
    rest, m = mult._peel(w, monos, mu)
    rank = linalg.rank(mult.condition_matrix(w, monos, mu)[0])
    if not rest or len(rest) < len(monos) and linalg._full_rank_mod_p(
            mult.condition_matrix(w, rest, m + 1)[0], len(rest)):
        assert rank == len(monos)
    # whatever the route, the kernel is exact
    assert len(mult.slice_kernel_vectors(w, d, mu)[0]) == len(monos) - rank


def test_peel_goldens():
    # (1, 2, 3) in degree 8: ten monomials against the ten conditions of
    # mu = 4, but the five with z = 0 lie on a line, and five points on a
    # line impose only four conditions in degree 3; no line of at most four
    # points leaves few enough, so the residual is the whole slice
    w = WeightTriple(1, 2, 3)
    monos = monomials_of_degree(w, 8)
    assert len(monos) == 10 and sum(m[2] == 0 for m in monos) == 5
    assert mult._peel(w, monos, 4) == (monos, 3)
    assert mult.slice_dim(w, 8, 4) == 1
    assert len(mult.slice_kernel_vectors(w, 8, 4)[0]) == 1
    # (9, 10, 13) in degree 204: 20 monomials against 21 conditions; after
    # its longest line, of 6 points, every line left has at most 4, and a
    # peel that gives ties to the longest direction gets stuck
    w = WeightTriple(9, 10, 13)
    monos = monomials_of_degree(w, 204)
    assert len(monos) == 20 and mult._peel(w, monos, 6)[0] == []
    assert linalg.rank(mult.condition_matrix(w, monos, 6)[0]) == 20
    # at mu = 0 there are no conditions: the unit vectors, with no elimination
    for d in (0, 7, 30):
        vecs, monos = mult.slice_kernel_vectors(WeightTriple(2, 3, 5), d, 0)
        assert vecs == linalg.kernel_basis([], len(monos))


def test_peel_residual_goldens():
    # (9, 10, 13) in degree 372: 64 monomials against the 66 conditions of
    # mu = 11; the peel leaves 10 points in degree 3, and the certificate of
    # their 10 x 10 matrix decides the slice
    w = WeightTriple(9, 10, 13)
    monos = monomials_of_degree(w, 372)
    rest, m = mult._peel(w, monos, 11)
    assert (len(monos), len(rest), m) == (64, 10, 3)
    rows = mult.condition_matrix(w, rest, m + 1)[0]
    assert len(rows) == 10 and linalg._full_rank_mod_p(rows, 10)
    assert mult.slice_kernel_vectors(w, 372, 11) == ([], monos)
    # (2, 3, 5) in degree 30 at mu = 6: the residual, 15 points in degree 4,
    # is dependent, so its certificate misses, and the full matrix of the
    # 21 monomials finds the slice's one kernel vector
    w = WeightTriple(2, 3, 5)
    monos = monomials_of_degree(w, 30)
    rest, m = mult._peel(w, monos, 6)
    assert (len(monos), len(rest), m) == (21, 15, 4)
    assert linalg.rank(mult.condition_matrix(w, rest, m + 1)[0]) == 14
    assert len(mult.slice_kernel_vectors(w, 30, 6)[0]) == mult.slice_dim(w, 30, 6) == 1


def test_peel_returns_at_once_for_at_most_mu_points(monkeypatch):
    # any m + 1 distinct points are independent in degree m: the ten points
    # of (1, 2, 3) in degree 8 at mu = 10 need no line, so no chart either
    w = WeightTriple(1, 2, 3)
    monos = monomials_of_degree(w, 8)
    monkeypatch.setattr(mult, "_chart", None)
    assert mult._peel(w, monos, 10) == ([], 9)
    assert mult._peel(w, monos[:4], 4) == ([], 3)
    assert mult._peel(w, [], 0) == ([], -1)
    monkeypatch.undo()
    assert mult.slice_kernel_vectors(w, 8, 10) == ([], monos)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(TRIPLES), st.integers(1, 24), st.integers(0, 5))
def test_every_kernel_basis_vector_has_exact_multiplicity(triple, d, mu):
    # the Hilbert-function argument of witness_vector: no echelon kernel
    # vector of V(d, mu) lies in V(d, mu + 1)
    w = WeightTriple(*triple)
    vecs, monos = mult.slice_kernel_vectors(w, d, mu)
    assume(vecs)
    for v in vecs:
        assert mult.rees_multiplicity(w, _poly(v, monos)) == mu


def _square_membership_candidates(w, fs):
    """(form, kind) pairs of degree bc: f4, and for each product f_i * f_j of
    degree at most bc whose cofactor degree has a monomial m (the first one),
    m * f_i * f_j and f4 + m * f_i * f_j."""
    f1, f2, f3, f4 = fs
    bc = w.b * w.c
    out = [(f4, "f4")]
    for i, fi in enumerate((f1, f2, f3)):
        for fj in (f1, f2, f3)[i:]:
            product = fi * fj
            e = bc - product.weighted_degree(w.as_tuple())
            monos = monomials_of_degree(w, e) if e >= 0 else []
            if monos:
                g = SparsePoly.monomial(XYZ, monos[0]) * product
                out += [(g, "product"), (f4 + g, "f4 + product")]
    return out


def test_in_ideal_matches_groebner_membership_in_the_square():
    # I^2 of the Mult2 forms f1, f2, f3; the oracle reduces by a full,
    # untruncated grevlex basis of the six products
    answers = {}
    classes = [coxring.classify(WeightTriple(*t)) for t in cli.coprime_triples(25)]
    classes = [cls for cls in classes if cls.is_mult2]
    assert len(classes) == 134
    for cls in classes:
        w = WeightTriple(*cls.reordering)
        f1, f2, f3, f4 = fs = coxring.mult2_fs(cls)
        square = [f1 * f1, f1 * f2, f1 * f3, f2 * f2, f2 * f3, f3 * f3]
        gb = groebner.buchberger(groebner.Ideal(XYZ, square))
        for g, kind in _square_membership_candidates(w, fs):
            member = mult.in_ideal(w, square, g)
            assert member == groebner.ideal_member(g, gb), (cls.reordering, kind)
            answers.setdefault(kind, set()).add(member)
    assert answers == {"f4": {False}, "product": {True}, "f4 + product": {False}}


def test_in_ideal_edge_cases():
    w = WeightTriple(7, 3, 11)
    f1, f2, f3, f4 = coxring.mult2_fs(coxring.classify(w))
    square = [f1 * f1, f1 * f2, f1 * f3, f2 * f2, f2 * f3, f3 * f3]
    # (I^2)_33 = 0: no product has a cofactor of degree 33 - deg
    assert not mult.in_ideal(w, square, f4)
    with pytest.raises(ValueError):
        mult.in_ideal(w, square, f4 + parse_poly("x", XYZ))
