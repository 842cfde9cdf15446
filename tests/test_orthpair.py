"""Orthogonal-pair search: golden signatures, invariants, caps."""

from itertools import permutations

import pytest

from wpp_mori import linalg, mult, orthpair
from wpp_mori.orthpair import (
    ceil_sqrt,
    check_pair,
    find_f1,
    mds_test,
    minimal_mu,
)
from wpp_mori.poly import divides
from wpp_mori.weights import WeightTriple, coprime_triples


def test_ceil_sqrt():
    assert [ceil_sqrt(n) for n in (1, 2, 3, 4, 5, 9, 10)] == [1, 2, 2, 2, 3, 3, 4]


def test_minimal_mu():
    for abc in (1, 6, 30, 231, 572):
        for d in range(1, 60):
            mu = minimal_mu(d, abc)
            assert d * d <= mu * mu * abc
            assert mu == 1 or d * d > (mu - 1) * (mu - 1) * abc
    with pytest.raises(ValueError):
        minimal_mu(0, 6)


def test_golden_signatures():
    assert mds_test(WeightTriple(1, 1, 1), 5).pair.signature() == (1, 1, 1, 1)
    assert mds_test(WeightTriple(1, 2, 3), 5).pair.signature() == (2, 1, 3, 1)
    assert mds_test(WeightTriple(2, 3, 5), 5).pair.signature() == (5, 1, 6, 1)
    assert mds_test(WeightTriple(7, 3, 11), 5).pair.signature() == (14, 1, 33, 2)


def test_golden_witnesses():
    v = mds_test(WeightTriple(2, 3, 5), 5)
    assert v.is_mori_dream
    assert str(v.pair.f1) == "x*y - z"
    assert str(v.pair.f2) == "x^3 - y^2"
    v = mds_test(WeightTriple(1, 2, 3), 5)
    assert str(v.pair.f1) == "x^2 - y"
    assert str(v.pair.f2) == "x*y - z"


def test_inconclusive_triple():
    v = mds_test(WeightTriple(9, 10, 13), 5)
    assert v.outcome == "Inconclusive"
    assert v.pair is None
    assert not v.is_mori_dream
    assert v.mu_cap == 5


def test_mu_cap_validation():
    with pytest.raises(ValueError):
        mds_test(WeightTriple(1, 1, 1), 0)


def test_pair_invariants():
    for (a, b, c) in [(1, 1, 1), (1, 2, 3), (2, 3, 5), (3, 5, 7), (7, 3, 11)]:
        w = WeightTriple(a, b, c)
        v = mds_test(w, 6)
        assert v.is_mori_dream
        p = v.pair
        assert p.d1 * p.d1 <= p.mu1 * p.mu1 * w.abc
        assert p.d1 * p.d2 == p.mu1 * p.mu2 * w.abc
        assert not divides(p.f1, p.f2)
        assert mult.rees_multiplicity(w, p.f1) == p.mu1
        assert mult.rees_multiplicity(w, p.f2) == p.mu2
        check_pair(w, p)


def test_f1_degree_is_minimal():
    # no smaller degree admits a form with d^2 <= mu*(d)^2 * abc
    w = WeightTriple(2, 3, 5)
    d1, mu1, _ = find_f1(w, 40)
    assert (d1, mu1) == (5, 1)
    for d in range(1, d1):
        assert mult.slice_dim(w, d, minimal_mu(d, w.abc)) == 0


def test_signature_is_permutation_invariant():
    for triple in [(1, 2, 3), (2, 3, 5), (7, 3, 11)]:
        sigs = {
            mds_test(WeightTriple(*p), 6).pair.signature() for p in permutations(triple)
        }
        assert len(sigs) == 1


def test_mult2_triples_have_multiplicity_two_signature():
    # in the 2a = nb + mc regime the pair is (2a, 1, bc, 2)
    for (a, b, c) in [(7, 3, 11), (9, 5, 13), (8, 3, 13)]:
        w = WeightTriple(a, b, c)
        assert mds_test(w, 5).pair.signature() == (2 * a, 1, b * c, 2)


def test_tie_break_does_not_change_signature():
    for (a, b, c) in [(1, 2, 3), (2, 3, 5), (7, 3, 11), (4, 5, 7)]:
        w = WeightTriple(a, b, c)
        first = mds_test(w, 6, tie_break="first")
        last = mds_test(w, 6, tie_break="last")
        assert first.outcome == last.outcome
        assert first.pair.signature() == last.pair.signature()


def test_multiples_of_f1_are_independent(monkeypatch):
    # witness_vector takes the number of f1's multiples for their rank, and
    # picks the f2 witness by `linalg.in_span`; the oracle is the rank rule:
    # the first (or last) kernel basis vector v with
    # rank(multiples + [v]) > len(multiples)
    sizes = []
    checked = []
    real_multiples = mult._multiple_vectors
    real_witness = mult.witness_vector

    def record(*args):
        out = real_multiples(*args)
        if out:
            sizes.append((linalg.rank(out), len(out)))
        return out

    def against_rank(w, d, mu, factor=None, tie_break="first"):
        found = real_witness(w, d, mu, factor, tie_break)
        if factor is not None:
            vecs, monos = mult.slice_kernel_vectors(w, d, mu)
            multiples = real_multiples(w, factor, d, mu, monos)
            r = len(multiples)
            order = vecs[::-1] if tie_break == "last" else vecs
            v = next((v for v in order if linalg.rank(multiples + [v]) > r), None)
            assert found == (None if v is None else (v, monos))
            checked.append(tie_break)
        return found

    monkeypatch.setattr(mult, "_multiple_vectors", record)
    monkeypatch.setattr(mult, "witness_vector", against_rank)
    for tie_break in ("first", "last"):
        for triple in coprime_triples(13):
            mds_test(WeightTriple(*triple), 11, tie_break=tie_break)
        if tie_break == "first":
            assert len(sizes) == 70
    assert all(r == n for r, n in sizes)
    assert checked.count("first") == checked.count("last") == 128


def _plain_f1(w, d_cap, tie_break):
    """The reference f1 scan: every degree upwards, one elimination each."""
    for d in range(1, d_cap + 1):
        mu = minimal_mu(d, w.abc)
        found = mult.witness_vector(w, d, mu, tie_break=tie_break)
        if found is not None:
            return d, mu, mult.vector_to_poly(*found)
    return None


@pytest.mark.parametrize(
    "c_range, mu_cap, tie_breaks",
    [((3, 13), 11, ("first", "last")), ((14, 20), 6, ("first",))],
    ids=["c13_cap11", "c14_to_20_cap6"],
)
def test_find_f1_matches_the_plain_upward_scan(c_range, mu_cap, tie_breaks):
    # windows certified from the top down find the same least degree and form;
    # the scans that find no f1 certify every degree up to the cap
    none_found = 0
    for triple in coprime_triples(c_range[1]):
        if triple[2] < c_range[0]:
            continue
        w = WeightTriple(*triple)
        d_cap = mu_cap * ceil_sqrt(w.abc)
        for tie in tie_breaks:
            expected = _plain_f1(w, d_cap, tie)
            assert find_f1(w, d_cap, tie) == expected, (triple, tie)
            none_found += expected is None
    assert none_found > 0
