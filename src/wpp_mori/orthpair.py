"""Orthogonal-pair search deciding Mori-dreamness of the blown-up plane.

A pair of weighted forms f1, f2 with d1^2 <= mu1^2*abc (d1 minimal),
d1*d2 = mu1*mu2*abc and f1 not dividing f2 (d2 minimal) certifies that the
blow-up of P(a,b,c) at [1,1,1] is a Mori dream surface.  The search runs
entirely in exact integer linear algebra over symbolic-power degree slices.
"""

from dataclasses import dataclass
from math import gcd, isqrt
from typing import Optional

from . import linalg, mult
from .poly import SparsePoly, divides
from .weights import ClassElement, WeightTriple, intersection


@dataclass(frozen=True)
class OrthogonalPair:
    """Certifying pair of forms with their degrees and exact multiplicities."""

    f1: SparsePoly
    f2: SparsePoly
    d1: int
    d2: int
    mu1: int
    mu2: int

    def signature(self):
        return (self.d1, self.mu1, self.d2, self.mu2)


@dataclass(frozen=True)
class MdsVerdict:
    """Outcome of the pair search: a definitive pair, or an inconclusive cap."""

    outcome: str  # "MoriDream" or "Inconclusive"
    pair: Optional[OrthogonalPair] = None
    mu_cap: Optional[int] = None
    d_cap: Optional[int] = None

    @property
    def is_mori_dream(self):
        return self.outcome == "MoriDream"


def ceil_sqrt(n):
    """Smallest integer s with s^2 >= n."""
    s = isqrt(n)
    return s if s * s == n else s + 1


def minimal_mu(d, abc):
    """Least mu >= 1 with d^2 <= mu^2 * abc, in pure integer arithmetic."""
    if d < 1:
        raise ValueError("degree must be positive")
    mu = max(1, isqrt(d * d // abc))
    while mu * mu * abc < d * d:
        mu += 1
    return mu


def find_f1(w, d_cap, tie_break="first"):
    """Minimal-degree form with non-positive self-intersection after blow-up.

    Scans degrees d = 1..d_cap for a nonzero slice V(d, mu*(d)) where
    mu*(d) is the least mu with d^2 <= mu^2*abc; returns (d, mu_exact,
    witness) for the first hit, or None if the cap is exhausted.
    """
    for d in range(1, d_cap + 1):
        mu_star = minimal_mu(d, w.abc)
        vecs, monos = mult.slice_kernel_vectors(w, d, mu_star)
        if vecs:
            mu, witness = mult._generic_witness(w, d, mu_star, vecs, monos, tie_break)
            return d, mu, witness
    return None


def _f1_multiple_vectors(w, f1, d1, mu1, d2, mu2, monos):
    """Coefficient vectors of f1 * V(d2-d1, mu2-mu1) inside the degree-d2 slice."""
    if d2 < d1:
        return []
    sub = mult.symbolic_slice(w, d2 - d1, max(0, mu2 - mu1))
    index = {m: i for i, m in enumerate(monos)}
    out = []
    for g in sub.basis:
        p = f1 * g
        vec = [0] * len(monos)
        for exp, c in p.terms.items():
            # products of primitive integer polynomials have integer coefficients
            vec[index[exp]] = int(c)
        out.append(tuple(vec))
    return out


def find_f2(w, d1, mu1, f1, d_cap, tie_break="first"):
    """Minimal-degree partner form orthogonal to f1 and not a multiple of it.

    Candidate degrees are the multiples of mu1*abc / gcd(d1, mu1*abc), the
    degrees at which mu2 = d1*d2/(mu1*abc) is a positive integer.  A partner
    of exact multiplicity mu2 outside f1*S exists iff the slice V(d2, mu2)
    strictly contains both V(d2, mu2+1) and the f1-multiples (a vector space
    over an infinite field is never a union of two proper subspaces).
    """
    q = mu1 * w.abc
    step = q // gcd(d1, q)
    for d2 in range(step, d_cap + 1, step):
        mu2 = d1 * d2 // q
        vecs, monos = mult.slice_kernel_vectors(w, d2, mu2)
        if not vecs:
            continue
        # exact[i]: basis vector i lies outside V(d2, mu2+1), a proper
        # subspace by the argument in mult.generic_exact_multiplicity
        exact = mult.nonzero_at_order(w, d2, vecs, mu2)
        if not any(exact):
            raise AssertionError(f"V({d2},{mu2}) does not strictly contain V({d2},{mu2 + 1})")
        multiples = _f1_multiple_vectors(w, f1, d1, mu1, d2, mu2, monos)
        r = linalg.rank(multiples)
        if r >= len(vecs):
            continue
        witness = _outside_two_subspaces(vecs, exact, multiples, r, tie_break)
        return d2, mu2, mult._vector_to_poly(witness, monos)
    return None


def _outside_two_subspaces(vecs, outside_a, sub_b, rank_b, tie_break):
    """A vector in span(vecs) avoiding two proper subspaces, deterministically.

    outside_a flags the vectors outside the first; sub_b spans the second,
    and rank_b is its rank.
    """
    pairs = list(zip(vecs, outside_a))
    va = vb = None
    for v, out_a in pairs[::-1] if tie_break == "last" else pairs:
        out_b = linalg.rank(sub_b + [v]) > rank_b
        if out_a and out_b:
            return v
        if out_a and va is None:
            va = v
        if out_b and vb is None:
            vb = v
    if va is None or vb is None:
        raise AssertionError("subspace was not proper")
    # va lies in sub_b and vb in the first subspace, so their sum avoids both
    return tuple(x + y for x, y in zip(va, vb))


def check_pair(w, pair):
    """Re-verify all four defining conditions of a pair with independent code."""
    if pair.d1 * pair.d1 > pair.mu1 * pair.mu1 * w.abc:
        raise AssertionError("self-intersection condition fails for f1")
    if pair.d1 * pair.d2 != pair.mu1 * pair.mu2 * w.abc:
        raise AssertionError("orthogonality condition fails")
    if divides(pair.f1, pair.f2):
        raise AssertionError("f1 divides f2")
    if mult.rees_multiplicity(w, pair.f1) != pair.mu1:
        raise AssertionError("f1 multiplicity mismatch")
    if mult.rees_multiplicity(w, pair.f2) != pair.mu2:
        raise AssertionError("f2 multiplicity mismatch")
    u = ClassElement(pair.d1, -pair.mu1)
    v = ClassElement(pair.d2, -pair.mu2)
    if intersection(w, u, v) != 0:
        raise AssertionError("intersection pairing is nonzero")


def mds_test(w, mu_cap=14, tie_break="first"):
    """Search for an orthogonal pair with both multiplicities bounded by mu_cap."""
    if mu_cap < 1:
        raise ValueError("mu_cap must be positive")
    d_cap1 = mu_cap * ceil_sqrt(w.abc)
    first = find_f1(w, d_cap1, tie_break)
    if first is None:
        return MdsVerdict("Inconclusive", mu_cap=mu_cap, d_cap=d_cap1)
    d1, mu1, f1 = first
    d_cap2 = mu_cap * mu1 * w.abc // d1
    second = find_f2(w, d1, mu1, f1, d_cap2, tie_break)
    if second is None:
        return MdsVerdict("Inconclusive", mu_cap=mu_cap, d_cap=d_cap2)
    d2, mu2, f2 = second
    pair = OrthogonalPair(f1=f1, f2=f2, d1=d1, d2=d2, mu1=mu1, mu2=mu2)
    check_pair(w, pair)
    return MdsVerdict("MoriDream", pair=pair)


def pair_degrees(w, mu_cap=14, tie_break="first"):
    """Numeric signature (d1, mu1, d2, mu2) of the pair, or None if inconclusive."""
    verdict = mds_test(w, mu_cap, tie_break)
    if not verdict.is_mori_dream:
        return None
    return verdict.pair.signature()
