"""Orthogonal-pair search deciding Mori-dreamness of the blown-up plane.

A pair of weighted forms f1, f2 with d1^2 <= mu1^2*abc (d1 minimal),
d1*d2 = mu1*mu2*abc and f1 not dividing f2 (d2 minimal) certifies that the
blow-up of P(a,b,c) at [1,1,1] is a Mori dream surface.  The search runs
entirely in exact integer linear algebra over symbolic-power degree slices.
"""

from dataclasses import dataclass
from math import gcd, isqrt
from typing import Optional

from . import mult
from .poly import SparsePoly, divides
from .weights import ClassElement, intersection


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
    # mu^2 >= d^2/abc iff mu^2 >= ceil(d^2/abc), which is at least 1
    return ceil_sqrt(-(-d * d // abc))


def _in_semigroup(w, s):
    """True iff s = a*i + b*j + c*k for some i, j, k >= 0; s >= 0.

    A solution with i >= c gives one with i - c and k + a, so i < c
    suffices.  For each i, the least j >= 0 with b*j = s - a*i mod c is
    (s - a*i) * b^-1 mod c, and s - a*i is a member of <b, c> iff b*j is at
    most s - a*i.
    """
    a, b, c = w.as_tuple()
    b_inv = pow(b, -1, c)
    for i in range(min(s // a, c - 1) + 1):
        rest = s - a * i
        if rest * b_inv % c * b <= rest:
            return True
    return False


def _implied_zero(w, zeros, d):
    """True when d lies below a degree of zeros by an element of <a, b, c>."""
    return any(_in_semigroup(w, z - d) for z in zeros)


def find_f1(w, d_cap, tie_break="first"):
    """Minimal-degree form with non-positive self-intersection after blow-up.

    Finds the least degree d <= d_cap with a nonzero slice V(d, mu*(d)),
    where mu*(d) is the least mu with d^2 <= mu^2*abc, and returns (d,
    mu*(d), witness), or None if the cap is exhausted.  The witness has
    multiplicity exactly mu*(d).

    Multiplying by a monomial of degree s is injective and keeps the
    multiplicity at [1,1,1], where no monomial vanishes.  So V(e, mu) = 0
    implies V(e - s, mu) = 0 for every s in the semigroup <a, b, c>.  Each
    window of degrees with one mu*(d) is certified from its top down,
    skipping the degrees that a zero slice implies.  Only a nonzero slice
    sends the scan up the window again, for the least nonzero degree below it.
    """
    d = 1
    while d <= d_cap:
        mu = minimal_mu(d, w.abc)
        # the window's last degree is the largest e with e^2 <= mu^2*abc
        top = min(d_cap, isqrt(mu * mu * w.abc))
        zeros = []
        for e in range(top, d - 1, -1):
            if _implied_zero(w, zeros, e):
                continue
            found = mult.witness_vector(w, e, mu, tie_break=tie_break)
            if found is None:
                zeros.append(e)
                continue
            for low in range(d, e):
                if not _implied_zero(w, zeros, low):
                    low_found = mult.witness_vector(w, low, mu, tie_break=tie_break)
                    if low_found is not None:
                        e, found = low, low_found
                        break
            # only the slice returned gets its form built
            return e, mu, mult.vector_to_poly(*found)
        d = top + 1
    return None


def find_f2(w, d1, mu1, f1, d_cap, tie_break="first"):
    """Minimal-degree partner form orthogonal to f1 and not a multiple of it.

    Candidate degrees are the multiples of mu1*abc / gcd(d1, mu1*abc), the
    degrees at which mu2 = d1*d2/(mu1*abc) is a positive integer.  The first
    candidate with a form of exact multiplicity mu2 outside f1*S wins.
    """
    q = mu1 * w.abc
    step = q // gcd(d1, q)
    for d2 in range(step, d_cap + 1, step):
        mu2 = d1 * d2 // q
        found = mult.witness_vector(w, d2, mu2, factor=(d1, mu1, f1), tie_break=tie_break)
        if found is not None:
            return d2, mu2, mult.vector_to_poly(*found)
    return None


def check_pair(w, pair):
    """Re-verify all four defining conditions of a pair with independent code."""
    if pair.d1 * pair.d1 > pair.mu1 * pair.mu1 * w.abc:
        raise AssertionError("self-intersection condition fails for f1")
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

