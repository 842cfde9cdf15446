"""Weighted-grading arithmetic for P(a,b,c) and the class lattice of its blow-up."""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import NamedTuple


@dataclass(frozen=True)
class WeightTriple:
    """Pairwise coprime positive weights (a, b, c) with deg(x,y,z) = (a,b,c)."""

    a: int
    b: int
    c: int

    def __post_init__(self):
        for w in (self.a, self.b, self.c):
            if w < 1:
                raise ValueError(f"weights must be positive, got {self.as_tuple()}")
        for p, q, names in (
            (self.a, self.b, "(a,b)"),
            (self.b, self.c, "(b,c)"),
            (self.a, self.c, "(a,c)"),
        ):
            g = gcd(p, q)
            if g != 1:
                raise ValueError(f"weights must be pairwise coprime: gcd{names} = {g}")

    def as_tuple(self):
        return (self.a, self.b, self.c)

    @property
    def abc(self):
        return self.a * self.b * self.c


class ClassElement(NamedTuple):
    """A divisor class d*H + mu*E on the blown-up surface."""

    d: int
    mu: int


@lru_cache(maxsize=None)
def _monomials_of_degree(a, b, c, d):
    out = []
    inv = pow(b, -1, c)
    for i in range(d // a + 1):
        rem_i = d - a * i
        # c divides rem_i - b * j iff j = rem_i / b mod c
        for j in range(rem_i * inv % c, rem_i // b + 1, c):
            out.append((i, j, (rem_i - b * j) // c))
    return tuple(out)


def monomials_of_degree(w, d):
    """All exponent vectors (i,j,k) with a*i + b*j + c*k = d, in lex order."""
    if d < 0:
        raise ValueError("degree must be non-negative")
    return list(_monomials_of_degree(w.a, w.b, w.c, d))


def coprime_triples(c_max):
    """All pairwise coprime a < b < c <= c_max, in sorted order."""
    out = []
    for c in range(3, c_max + 1):
        for b in range(2, c):
            if gcd(b, c) != 1:
                continue
            for a in range(1, b):
                if gcd(a, b) == 1 and gcd(a, c) == 1:
                    out.append((a, b, c))
    return sorted(out)


def monoid_member(n, p, q):
    """(alpha, beta) of least alpha with n = alpha*p + beta*q, both non-negative, or None."""
    if p < 1 or q < 1:
        raise ValueError("monoid generators must be positive")
    for alpha in range(n // p + 1):
        beta, r = divmod(n - alpha * p, q)
        if not r:
            return alpha, beta
    return None


def intersection(w, u, v):
    """Intersection number (u.d*H + u.mu*E) . (v.d*H + v.mu*E), an exact rational.

    Uses H^2 = 1/(abc), H.E = 0, E^2 = -1.
    """
    return Fraction(u.d * v.d, w.abc) - Fraction(u.mu * v.mu)
