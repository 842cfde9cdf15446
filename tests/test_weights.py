"""Weight triples, graded monomial enumeration, monoid membership, intersections."""

from fractions import Fraction
from math import gcd

import pytest

from wpp_mori.weights import (
    ClassElement,
    WeightTriple,
    intersection,
    monoid_member,
    monomials_of_degree,
)


def test_weight_triple_validation():
    WeightTriple(1, 1, 1)
    WeightTriple(7, 3, 11)
    with pytest.raises(ValueError):
        WeightTriple(2, 4, 5)
    with pytest.raises(ValueError):
        WeightTriple(0, 1, 2)
    with pytest.raises(ValueError):
        WeightTriple(3, 5, -7)
    with pytest.raises(ValueError):
        WeightTriple(6, 10, 15)


def test_weight_triple_accessors():
    w = WeightTriple(2, 3, 5)
    assert w.as_tuple() == (2, 3, 5)
    assert w.abc == 30


def brute_monomials(a, b, c, d):
    out = []
    for i in range(d // a + 1):
        for j in range((d - a * i) // b + 1):
            rem = d - a * i - b * j
            if rem >= 0 and rem % c == 0:
                out.append((i, j, rem // c))
    return sorted(out, reverse=True)


def test_monomials_of_degree_complete_and_lex():
    for (a, b, c) in [(1, 1, 1), (2, 3, 5), (7, 3, 11), (1, 2, 3)]:
        w = WeightTriple(a, b, c)
        for d in range(0, 30):
            monos = monomials_of_degree(w, d)
            assert monos == sorted(monos)
            assert sorted(monos) == sorted(brute_monomials(a, b, c, d))
            for (i, j, k) in monos:
                assert a * i + b * j + c * k == d


def test_monomials_of_degree_negative():
    with pytest.raises(ValueError):
        monomials_of_degree(WeightTriple(1, 2, 3), -1)


def test_monoid_member_brute_force():
    for p in range(1, 8):
        for q in range(1, 8):
            for n in range(0, 40):
                alphas = [alpha for alpha in range(n // p + 1) if (n - alpha * p) % q == 0]
                witness = monoid_member(n, p, q)
                assert (witness is not None) == bool(alphas)
                if witness is not None:
                    alpha, beta = witness
                    assert alpha == min(alphas) and beta >= 0 and alpha * p + beta * q == n


def test_intersection_form():
    w = WeightTriple(2, 3, 5)
    H = ClassElement(1, 0)
    E = ClassElement(0, 1)
    assert intersection(w, H, H) == Fraction(1, 30)
    assert intersection(w, H, E) == 0
    assert intersection(w, E, E) == -1
    # orthogonal pair classes for (2,3,5): (5,-1) . (6,-1) = 30/30 - 1 = 0
    assert intersection(w, ClassElement(5, -1), ClassElement(6, -1)) == 0
