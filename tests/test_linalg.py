"""Exact linear algebra: rank, kernels, Smith normal form."""

import random
from collections import Counter
from math import gcd, lcm

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.polys.matrices import DomainMatrix
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

from wpp_mori import linalg, mult, orthpair
from wpp_mori.weights import WeightTriple

BIG_PRIME = 2**61 - 1  # p^2 above 2^64: the certificate always refuses
# one-word slots up to 3 columns; from 4 columns on the certificate refuses
EDGE_PRIME = 2**31 - 1


def random_matrix(rng, nrows, ncols, lo=-5, hi=5):
    return [[rng.randint(lo, hi) for _ in range(ncols)] for _ in range(nrows)]


def test_rank_goldens():
    assert linalg.rank([]) == 0
    assert linalg.rank([[0, 0], [0, 0]]) == 0
    assert linalg.rank([[1, 2], [2, 4]]) == 1
    assert linalg.rank([[1, 0], [0, 1]]) == 2
    assert linalg.rank([[2, 4, 6]]) == 1


def test_rank_matches_sympy_randomized():
    rng = random.Random(20240817)
    for _ in range(60):
        m = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        assert linalg.rank(m) == sympy.Matrix(m).rank()


def test_kernel_basis_annihilates_and_counts():
    rng = random.Random(11)
    for _ in range(40):
        nrows, ncols = rng.randint(1, 4), rng.randint(1, 5)
        m = random_matrix(rng, nrows, ncols)
        basis = linalg.kernel_basis(m, ncols)
        assert len(basis) == ncols - linalg.rank(m)
        for v in basis:
            assert all(
                sum(r[j] * v[j] for j in range(ncols)) == 0 for r in m
            )
            assert gcd(*v) == 1
        # sympy's nullspace has one vector per free column, 1 there and 0 in
        # the other free columns; made primitive it must equal ours exactly.
        theirs = []
        for s in sympy.Matrix(m).nullspace():
            scaled = [x * lcm(*(y.q for y in s)) for x in s]
            g = gcd(*(int(x) for x in scaled))
            theirs.append(tuple(int(x) // g for x in scaled))
        assert basis == theirs


def rank_mod(m, ncols, p):
    entries = [[sympy.ZZ(x) for x in r] for r in m]
    return DomainMatrix(entries, (len(m), ncols), sympy.ZZ).convert_to(sympy.GF(p)).rank()


@st.composite
def tall_matrices(draw, bound=5):
    ncols = draw(st.integers(1, 5))
    nrows = draw(st.integers(ncols, 7))
    row = st.lists(st.integers(-bound, bound), min_size=ncols, max_size=ncols)
    return draw(st.lists(row, min_size=nrows, max_size=nrows)), ncols


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(tall_matrices(), st.sampled_from([3, 7, linalg._PRIME, EDGE_PRIME, BIG_PRIME]))
def test_full_rank_certificate_is_rank_mod_p(mn, p):
    m, ncols = mn
    certified = linalg._full_rank_mod_p(m, ncols, p)
    fits_one_word = p + (ncols + 1) * p * p < 2**64
    assert certified == (fits_one_word and rank_mod(m, ncols, p) == ncols)
    if certified:
        assert sympy.Matrix(m).rank() == ncols
    if p == BIG_PRIME or (p == EDGE_PRIME and ncols >= 4):
        assert not fits_one_word and not certified


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(tall_matrices(bound=10**30))
def test_full_rank_certificate_is_sound_on_huge_entries(mn):
    m, ncols = mn
    if linalg._full_rank_mod_p(m, ncols):
        assert linalg.rank(m) == ncols


@pytest.mark.parametrize("p", [linalg._PRIME, BIG_PRIME])
def test_full_rank_certificate_misses_when_p_divides_the_determinant(p):
    for m in ([[p]], [[1, 1], [1, 1 + p]], [[p, 0], [0, 1], [0, 2 * p]]):
        ncols = len(m[0])
        assert not linalg._full_rank_mod_p(m, ncols, p)
        assert linalg.rank(m) == ncols
        # for p = _PRIME this is the exact path's answer
        assert linalg.kernel_basis(m, ncols) == []


def _visited_slices(monkeypatch, w, mu_cap):
    """(verdict, slices) of mds_test(w, mu_cap).  Each slice it visits is
    [route, full condition matrix, number of monomials, residual size], its
    route the one that decided it: "empty" residual, "residual" certificate,
    or "full" matrix to `kernel_basis`."""
    slices = []
    peel, kernel_basis = mult._peel, linalg.kernel_basis

    def record_peel(w, monos, mu):
        rest, m = peel(w, monos, mu)
        rows = mult.condition_matrix(w, monos, mu)[0]
        slices.append(["residual" if rest else "empty", rows, len(monos), len(rest)])
        return rest, m

    def record(rows, ncols):
        slices[-1][0] = "full"
        return kernel_basis(rows, ncols)

    monkeypatch.setattr(mult, "_peel", record_peel)
    monkeypatch.setattr(linalg, "kernel_basis", record)
    verdict = orthpair.mds_test(w, mu_cap)
    monkeypatch.undo()
    return verdict, slices


def test_full_rank_certificate_on_condition_matrices(monkeypatch):
    verdict, slices = _visited_slices(monkeypatch, WeightTriple(9, 10, 13), 11)
    # find_f1 visits 108 of the 385 degrees and infers the rest; the peel
    # leaves no point of 78 of them, and the certificate of the residual,
    # smaller than the slice, decides the other 30: no full matrix at all
    routes = Counter(route for route, *_ in slices)
    assert verdict.outcome == "Inconclusive"
    assert routes == {"empty": 78, "residual": 30}
    assert all(r < n for route, _, n, r in slices if route == "residual")
    # every slice it certifies is zero, and correctly so
    assert all(linalg.rank(rows) == n for _, rows, n, _ in slices)
    # f1 and f2 each take one full matrix, with a kernel; the peel empties the rest
    for triple, empty in [((2, 3, 5), 5), ((7, 3, 11), 6), ((4, 5, 7), 19), ((3, 5, 7), 10)]:
        verdict, slices = _visited_slices(monkeypatch, WeightTriple(*triple), 6)
        assert verdict.is_mori_dream
        assert Counter(route for route, *_ in slices) == {"empty": empty, "full": 2}
        full = [linalg.rank(rows) == n for _, rows, n, _ in slices]
        assert 0 < sum(full) < len(slices)
        for (route, rows, n, _), exact in zip(slices, full):
            if route != "full" or len(rows) >= n and linalg._full_rank_mod_p(rows, n):
                assert exact


def test_kernel_basis_deterministic():
    m = [[1, 2, 3], [0, 0, 0]]
    assert linalg.kernel_basis(m, 3) == linalg.kernel_basis(m, 3)


def test_in_span():
    vecs = [(1, 0, 1), (0, 1, 1)]
    assert linalg.in_span(vecs, (1, 1, 2))
    assert linalg.in_span(vecs, (2, -1, 1))
    assert not linalg.in_span(vecs, (0, 0, 1))
    assert linalg.in_span([], (0, 0, 0))


@st.composite
def spans_and_targets(draw):
    n = draw(st.integers(1, 5))
    vec = st.lists(st.integers(-3, 3), min_size=n, max_size=n)
    vectors = draw(st.lists(vec, max_size=5))
    # a combination of the vectors is in the span; a free draw mostly is not
    coeffs = draw(st.lists(st.integers(-2, 2), min_size=len(vectors), max_size=len(vectors)))
    combo = [sum(c * v[i] for c, v in zip(coeffs, vectors)) for i in range(n)]
    return vectors, combo if draw(st.booleans()) else draw(vec)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(spans_and_targets())
def test_in_span_matches_rank_comparison(vt):
    vectors, target = vt
    assert linalg.in_span(vectors, target) == (
        linalg.rank(vectors + [target]) == linalg.rank(vectors)
    )


def _det(m):
    return sympy.Matrix(m).det()


def _mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def test_smith_normal_form_properties():
    rng = random.Random(7)
    for _ in range(40):
        nrows, ncols = rng.randint(1, 4), rng.randint(1, 4)
        a = random_matrix(rng, nrows, ncols)
        invariants, v = linalg.smith_normal_form(a)
        assert len(invariants) == min(nrows, ncols)
        assert abs(_det(v)) == 1
        for i in range(len(invariants) - 1):
            if invariants[i + 1] != 0:
                assert invariants[i] != 0 and invariants[i + 1] % invariants[i] == 0
        assert all(x >= 0 for x in invariants)
        # what the callers read off a*v: m0n's quotient chart needs its
        # columns past the rank to be zero, mult's lattice basis needs the
        # leading ones to carry the invariants (a primitive vector each)
        rank = sum(1 for x in invariants if x)
        assert rank == linalg.rank(a)
        columns = list(zip(*_mul(a, v)))
        assert all(not any(col) for col in columns[rank:])
        assert [gcd(*col) for col in columns[:rank]] == invariants[:rank]


def test_smith_invariants_match_sympy():
    rng = random.Random(99)
    for _ in range(25):
        a = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
        invariants, _ = linalg.smith_normal_form(a)
        mine = sorted(x for x in invariants if x != 0)
        theirs = sorted(
            abs(int(x)) for x in sympy_snf(sympy.Matrix(a)).diagonal() if x != 0
        )
        assert mine == theirs


def test_mat_helpers():
    i3 = linalg.identity(3)
    m = [[1, 2, 3], [4, 5, 6], [7, 8, 9]]
    assert _mul(i3, m) == m
