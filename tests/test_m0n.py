"""Lattice reduction verification for the n = 10 construction."""

import importlib.resources as ir

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wpp_mori import linalg, m0n
from wpp_mori.m0n import (
    LatticeReduction,
    parse_reduction,
    quotient_images,
    search_weights,
    unimodular_equivalent,
    verify_reduction,
)

# reference projection annihilating the sublattice (fixed independent data)
P_MATRIX = [
    [1, 0, 1, -2, -1, 1, 0],
    [0, 1, -1, -3, -2, 2, 1],
]

TARGET = [[3, -3, -1], [5, -1, -6]]


def fixture():
    text = ir.files("wpp_mori").joinpath("data/m0n_n10.txt").read_text()
    return parse_reduction(text)


def test_parse_fixture():
    r = fixture()
    assert len(r.generators) == 5
    assert r.ambient_rank == 7
    assert r.n == 10
    assert r.weights == (17, 13, 12)


def test_parse_errors():
    with pytest.raises(ValueError):
        parse_reduction("v:\n1 0\n1 1\n0 1")  # missing kernel
    with pytest.raises(ValueError):
        parse_reduction("kernel:\n1 0\nv:\n1 0\n0 1")  # only two v vectors
    with pytest.raises(ValueError):
        parse_reduction("kernel:\n1 0\nv:\n1 0\n0 1\n1 1\nweights:\n1 2")
    with pytest.raises(ValueError):
        parse_reduction("bogus:\n1 0")
    with pytest.raises(ValueError):
        parse_reduction("1 0 1")  # vector before any section
    base = "kernel:\n1 0\nv:\n1 0\n0 1\n1 1\nweights:\n"
    for weights in ("0 0 0", "-17 -13 -12", "34 26 24", "17 13 12\n1 2 3"):
        with pytest.raises(ValueError):
            parse_reduction(base + weights)  # not a WeightTriple, or a second line


def test_reference_projection_annihilates_kernel():
    r = fixture()
    for gen in r.generators:
        assert all(
            sum(row[i] * gen[i] for i in range(7)) == 0 for row in P_MATRIX
        )


def test_reference_projection_images():
    r = fixture()
    images = [
        [sum(row[i] * v[i] for i in range(7)) for v in (r.v1, r.v2, r.v3)]
        for row in P_MATRIX
    ]
    assert images == TARGET


def test_verify_fixture():
    r = fixture()
    ok, diags = verify_reduction(r)
    assert ok, diags
    assert any("saturated" in d for d in diags)
    assert any("generate the quotient" in d for d in diags)
    assert any("lies in" in d for d in diags)


def test_quotient_images_unimodular_equivalent_to_target():
    images = quotient_images(fixture())
    assert unimodular_equivalent(images, TARGET)
    assert unimodular_equivalent(TARGET, images)


def test_weight_congruence_exact():
    r = fixture()
    combo = [
        17 * x + 13 * y + 12 * z for x, y, z in zip(r.v1, r.v2, r.v3)
    ]
    # the combination is annihilated by the reference projection as well
    assert all(
        sum(row[i] * combo[i] for i in range(7)) == 0 for row in P_MATRIX
    )


def test_wrong_weights_fail():
    r = fixture()
    bad = LatticeReduction(r.generators, r.v1, r.v2, r.v3, (17, 13, 11))
    ok, diags = verify_reduction(bad)
    assert not ok
    assert any("congruence fails" in d for d in diags)


def test_search_weights():
    assert search_weights(fixture(), 20) == [(17, 13, 12)]
    assert search_weights(fixture(), 10) == []


def test_non_signed_vector_rejected():
    r = fixture()
    bad = LatticeReduction(
        r.generators, (2, 0, 0, 0, 0, 0, 0), r.v2, r.v3, r.weights
    )
    with pytest.raises(ValueError):
        verify_reduction(bad)


def test_mixed_sign_vector_rejected():
    r = fixture()
    bad = LatticeReduction(
        r.generators, (1, -1, 0, 0, 0, 0, 0), r.v2, r.v3, r.weights
    )
    with pytest.raises(ValueError):
        verify_reduction(bad)


def test_unsaturated_sublattice_detected():
    # index-two sublattice of rank n - 5 = 1 in Z^3: invariant factor 2
    red = LatticeReduction(
        [(1, 1, 0), (1, 1, 0), (-1, -1, 0)], (1, 0, 0), (0, 1, 0), (0, 0, 1)
    )
    ok, diags = verify_reduction(red)
    assert ok  # this one is saturated; now break saturation
    # rank 3 = n - 5 in Z^5, but the three generators span index 2
    bad = LatticeReduction(
        [(1, 0, 1, 0, 0), (0, 1, 1, 0, 0), (1, 1, 0, 0, 0)],
        (0, 0, 0, 1, 0),
        (0, 0, 0, 0, 1),
        (0, 0, 0, 1, 1),
    )
    ok, diags = verify_reduction(bad)
    assert not ok
    assert any("not saturated" in d for d in diags)


def test_unimodular_equivalent_negatives():
    assert not unimodular_equivalent([[1, 0, 0], [0, 1, 0]], [[1, 0, 0], [0, 2, 0]])
    assert not unimodular_equivalent([[1, 0], [0, 1]], [[1, 0, 0], [0, 1, 0]])
    assert unimodular_equivalent([[1, 0, 1], [0, 1, 1]], [[0, 1, 1], [1, 0, 1]])


@st.composite
def matrix_and_transform(draw):
    """A 2 x c integer matrix, rank-deficient a third of the time, and a 2 x 2
    integer T with det 0, +-1 or +-2."""
    c = draw(st.integers(2, 4))
    entry = st.integers(-3, 3)
    m1 = [draw(st.lists(entry, min_size=c, max_size=c)) for _ in range(2)]
    if draw(st.integers(0, 2)) == 0:
        k = draw(st.integers(-2, 2))
        m1[1] = [k * x for x in m1[0]]
    t = draw(st.tuples(entry, entry, entry, entry).filter(lambda t: abs(t[0] * t[3] - t[1] * t[2]) <= 2))
    return m1, [list(t[:2]), list(t[2:])]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(matrix_and_transform())
def test_unimodular_equivalent_iff_rank_two_and_unit_determinant(case):
    m1, t = case
    m2 = [[t[i][0] * x + t[i][1] * y for x, y in zip(*m1)] for i in range(2)]
    det = t[0][0] * t[1][1] - t[0][1] * t[1][0]
    assert unimodular_equivalent(m1, m2) == (linalg.rank(m1) == 2 and abs(det) == 1)


def test_verify_without_weights():
    r = fixture()
    nw = LatticeReduction(r.generators, r.v1, r.v2, r.v3, None)
    ok, diags = verify_reduction(nw)
    assert ok
    assert any("not checked" in d for d in diags)


def test_n5_reduction_with_no_generators():
    # n = 5: N' = 0 is saturated of rank 0, and N/N' = Z^2 with the identity chart
    ok, diags = verify_reduction(LatticeReduction([], (1, 0), (0, 1), (1, 1)))
    assert ok and diags == [
        "sublattice saturated of rank 0",
        "projected vectors generate the quotient Z^2",
        "no weights given; congruence not checked",
    ]
    r = LatticeReduction([], (1, 0), (0, 1), (-1, -1), (1, 1, 1))
    ok, diags = verify_reduction(r)
    assert ok and diags[-1] == "1*v1 + 1*v2 + 1*v3 lies in N'"
    assert quotient_images(r) == [[1, 0, -1], [0, 1, -1]]
    assert search_weights(r, 5) == [(1, 1, 1)]
    ok, diags = verify_reduction(LatticeReduction([], (1, 0), (0, 1), (1, 1), (1, 1, 1)))
    assert not ok and diags[-1].startswith("congruence fails")
