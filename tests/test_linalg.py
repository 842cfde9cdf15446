"""Exact linear algebra: rank, kernels, Smith normal form."""

import random
from math import gcd, lcm

import pytest
import sympy
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

from wpp_mori import linalg


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


def test_kernel_basis_deterministic():
    m = [[1, 2, 3], [0, 0, 0]]
    assert linalg.kernel_basis(m, 3) == linalg.kernel_basis(m, 3)


def test_in_span():
    vecs = [(1, 0, 1), (0, 1, 1)]
    assert linalg.in_span(vecs, (1, 1, 2))
    assert linalg.in_span(vecs, (2, -1, 1))
    assert not linalg.in_span(vecs, (0, 0, 1))
    assert linalg.in_span([], (0, 0, 0))


def _det(m):
    return sympy.Matrix(m).det()


def test_smith_normal_form_properties():
    rng = random.Random(7)
    for _ in range(40):
        nrows, ncols = rng.randint(1, 4), rng.randint(1, 4)
        a = random_matrix(rng, nrows, ncols)
        d, u, v = linalg.smith_normal_form(a)
        assert linalg.mat_mul(linalg.mat_mul(u, a), v) == d
        assert abs(_det(u)) == 1
        assert abs(_det(v)) == 1
        diag = [d[i][i] for i in range(min(nrows, ncols))]
        for i in range(nrows):
            for j in range(ncols):
                if i != j:
                    assert d[i][j] == 0
        for i in range(len(diag) - 1):
            if diag[i + 1] != 0:
                assert diag[i] != 0 and diag[i + 1] % diag[i] == 0
        assert all(x >= 0 for x in diag)


def test_smith_invariants_match_sympy():
    rng = random.Random(99)
    for _ in range(25):
        a = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
        d, _, _ = linalg.smith_normal_form(a)
        mine = sorted(
            d[i][i]
            for i in range(min(len(d), len(d[0]) if d else 0))
            if d[i][i] != 0
        )
        theirs = sorted(
            abs(int(x)) for x in sympy_snf(sympy.Matrix(a)).diagonal() if x != 0
        )
        assert mine == theirs


def test_mat_helpers():
    i3 = linalg.identity(3)
    m = [[1, 2, 3], [4, 5, 6], [7, 8, 9]]
    assert linalg.mat_mul(i3, m) == m
