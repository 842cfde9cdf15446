"""The coefficient invariant of `SparsePoly`, shared by the polynomial tests."""

from fractions import Fraction


def assert_coefficients(p):
    """Every coefficient of p is a nonzero int, or a Fraction with denominator > 1.

    So an integral coefficient is never a Fraction and no coefficient is a float.
    """
    for c in p.terms.values():
        assert (type(c) is int and c != 0) or (type(c) is Fraction and c.denominator > 1), c
