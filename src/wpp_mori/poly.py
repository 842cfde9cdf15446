"""Sparse multivariate polynomials with exact rational coefficients.

Terms map exponent tuples to nonzero coefficients; the variable list is
explicit data carried by every polynomial.  A coefficient is an `int` when it
is integral and a `Fraction` with denominator > 1 otherwise, so integer
polynomials are computed with ints only.  An int and an integral `Fraction`
compare and hash equal, so the form is invisible to `==`, `hash` and `str`.
The canonical term order is graded reverse lexicographic in the declared
variable order.
"""

import re
from fractions import Fraction
from math import gcd, lcm
from operator import add, mul, neg


def grevlex_key(exp):
    """Sort key for graded reverse lexicographic order (larger key = larger monomial)."""
    return (sum(exp), tuple(map(neg, reversed(exp))))


def _exact(c):
    """The rational c as a coefficient: an int when integral, else a Fraction."""
    return c.numerator if c.denominator == 1 else c


def _coefficient(c):
    """Any rational number c as a coefficient."""
    return c if type(c) is int else _exact(Fraction(c))


def _ratio(n, d):
    """The exact quotient n / d of rationals as a coefficient."""
    q, r = divmod(n, d)
    return Fraction(n, d) if r else q


def _integer_terms(p):
    """(den, terms) with p = terms / den and int coefficients.

    An all-int p gives its own term dict, which the caller must not change.
    """
    den = lcm(*(c.denominator for c in p.terms.values()))
    if den == 1:
        return 1, p.terms
    return den, {e: c.numerator * (den // c.denominator) for e, c in p.terms.items()}


def _mul_terms(f, g):
    """Product of two term dicts (exponent tuple -> int or Fraction)."""
    out = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            e = tuple(map(add, e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c.numerator if c.denominator == 1 else c for e, c in out.items() if c}


class SparsePoly:
    """Polynomial over Q with explicit variables and sparse term storage."""

    __slots__ = ("variables", "terms")

    def __init__(self, variables, terms=None):
        self.variables = tuple(variables)
        clean = {}
        if terms:
            n = len(self.variables)
            for exp, coeff in terms.items():
                c = _coefficient(coeff)
                if c == 0:
                    continue
                exp = tuple(exp)
                if len(exp) != n or any(e < 0 for e in exp):
                    raise ValueError(f"bad exponent tuple {exp} for {self.variables}")
                c = _exact(clean.get(exp, 0) + c)
                if c:
                    clean[exp] = c
                else:
                    del clean[exp]
        self.terms = clean

    @classmethod
    def _trusted(cls, variables, terms):
        """Wrap a clean term dict without validation or copying.

        For internal arithmetic only: `variables` is already a tuple, and
        `terms` maps exponent tuples of its length to nonzero coefficients:
        ints, or Fractions with denominator > 1.
        """
        p = object.__new__(cls)
        p.variables = variables
        p.terms = terms
        return p

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, variables):
        return cls(variables)

    @classmethod
    def constant(cls, variables, c):
        return cls(variables, {(0,) * len(tuple(variables)): c})

    @classmethod
    def monomial(cls, variables, exp, coeff=1):
        return cls(variables, {tuple(exp): coeff})

    @classmethod
    def variable(cls, variables, name):
        variables = tuple(variables)
        idx = variables.index(name)
        exp = tuple(1 if i == idx else 0 for i in range(len(variables)))
        return cls(variables, {exp: 1})

    # -- predicates -------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, SparsePoly):
            return NotImplemented
        return self.variables == other.variables and self.terms == other.terms

    def __hash__(self):
        return hash((self.variables, frozenset(self.terms.items())))

    # -- arithmetic -------------------------------------------------------

    def _check_ring(self, other):
        if self.variables != other.variables:
            raise ValueError(
                f"mismatched variable lists: {self.variables} vs {other.variables}"
            )

    def __add__(self, other):
        self._check_ring(other)
        terms = dict(self.terms)
        for exp, c in other.terms.items():
            c = terms.get(exp, 0) + c
            if c:
                terms[exp] = c.numerator if c.denominator == 1 else c
            else:
                del terms[exp]
        return SparsePoly._trusted(self.variables, terms)

    def __neg__(self):
        return SparsePoly._trusted(
            self.variables, {e: -c for e, c in self.terms.items()}
        )

    def __sub__(self, other):
        return self + -other

    def __mul__(self, other):
        self._check_ring(other)
        return SparsePoly._trusted(self.variables, _mul_terms(self.terms, other.terms))

    def scale(self, c):
        c = _coefficient(c)
        if not c:
            return SparsePoly._trusted(self.variables, {})
        return SparsePoly._trusted(
            self.variables, {e: _exact(c * v) for e, v in self.terms.items()}
        )

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power")
        if len(self.terms) == 1:
            ((exp, c),) = self.terms.items()
            return SparsePoly._trusted(
                self.variables, {tuple(n * e for e in exp): _exact(c ** n)}
            )
        result = SparsePoly.constant(self.variables, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- structure --------------------------------------------------------

    def leading(self):
        """(exponent, coefficient) of the grevlex leading term."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        exp = max(self.terms, key=grevlex_key)
        return exp, self.terms[exp]

    def monic(self):
        _, c = self.leading()
        return self.scale(_ratio(1, c))

    def primitive(self):
        """Integer-content-normalized copy with positive grevlex leading coefficient."""
        if not self.terms:
            return self
        _, terms = _integer_terms(self)
        g = gcd(*terms.values())
        if terms[self.leading()[0]] < 0:
            g = -g
        return SparsePoly._trusted(
            self.variables, {e: c // g for e, c in terms.items()}
        )

    def weighted_degree(self, weights):
        """Common weighted degree of all terms, or None if inhomogeneous.

        `weights` is one integer per variable (e.g. (a, b, c) for K[x,y,z]).
        """
        degs = {sum(map(mul, weights, exp)) for exp in self.terms}
        if len(degs) != 1:
            return None
        return degs.pop()

    def multi_degree(self, degree_map):
        """Common vector degree of all terms under per-variable vector degrees.

        `degree_map` maps variable name to a tuple; returns the common tuple
        degree or None if the polynomial is not homogeneous for it.  The
        terms share a vector degree iff they share each coordinate of it.
        """
        columns = zip(*(degree_map[v] for v in self.variables))
        degs = tuple(self.weighted_degree(col) for col in columns)
        return None if None in degs else degs

    # -- ring changes -----------------------------------------------------

    def rename_ring(self, variables):
        """Move to a ring with different variables, each variable kept by name.

        A variable missing from the new ring may only occur with exponent 0.
        """
        variables = tuple(variables)
        idx = [variables.index(v) if v in variables else None for v in self.variables]
        terms = {}
        for exp, c in self.terms.items():
            new_exp = [0] * len(variables)
            for v, i, e in zip(self.variables, idx, exp):
                if e:
                    if i is None:
                        raise ValueError(f"variable {v} is not in {variables}")
                    new_exp[i] = e
            terms[tuple(new_exp)] = c
        return SparsePoly._trusted(variables, terms)

    def substitute(self, assignment):
        """Substitute polynomials for variables; all images share one ring.

        Works on integer term dicts: each image is integer terms over one
        denominator, each power of an image is computed once per call, and
        `Fraction` coefficients are made only for the result's true fractions.
        """
        images = [assignment[v] for v in self.variables]
        for img in images[1:]:
            images[0]._check_ring(img)
        ring = images[0].variables
        ints = [_integer_terms(img) for img in images]
        powers = {}  # (variable index, exponent) -> (den, integer terms)

        def power(i, e):
            if (i, e) not in powers:
                den, terms = ints[i]
                if len(terms) == 1:
                    ((exp, c),) = terms.items()
                    terms = {tuple(e * k for k in exp): c ** e}
                elif e > 1:
                    # square-and-multiply, reusing the powers already made
                    half = power(i, e >> 1)[1]
                    sq = _mul_terms(half, half)
                    terms = _mul_terms(sq, terms) if e & 1 else sq
                powers[i, e] = den ** e, terms
            return powers[i, e]

        den = 1
        result = {}
        for exp, c in self.terms.items():
            term_den = c.denominator
            term = {(0,) * len(ring): c.numerator}
            for i, e in enumerate(exp):
                if e:
                    d, p = power(i, e)
                    term_den *= d
                    term = _mul_terms(term, p)
            # bring the sum and the term over their least common denominator
            common = lcm(den, term_den)
            if common != den:
                m = common // den
                for k in result:
                    result[k] *= m
                den = common
            m = common // term_den
            for k, v in term.items():
                v = result.get(k, 0) + m * v
                if v:
                    result[k] = v
                else:
                    del result[k]
        if den > 1:
            result = {k: _ratio(v, den) for k, v in result.items()}
        return SparsePoly._trusted(ring, result)

    # -- division ---------------------------------------------------------

    def divide_by(self, f):
        """Divide by a single polynomial: returns (quotient, remainder)."""
        if f.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        self._check_ring(f)
        lexp, lc = f.leading()
        ring = self.variables
        g = dict(self.terms)
        quot = {}
        rem = {}
        # one term dict, updated in place; its leading exponent strictly
        # falls, so no quotient exponent repeats
        while g:
            gexp = max(g, key=grevlex_key)
            gc = g.pop(gexp)
            diff = tuple(a - b for a, b in zip(gexp, lexp))
            if min(diff, default=0) < 0:
                rem[gexp] = gc
                continue
            q = quot[diff] = _ratio(gc, lc)
            for exp, c in f.terms.items():
                if exp != lexp:
                    exp = tuple(map(add, exp, diff))
                    c = g.get(exp, 0) - q * c
                    if c:
                        g[exp] = c.numerator if c.denominator == 1 else c
                    else:
                        del g[exp]
        return SparsePoly._trusted(ring, quot), SparsePoly._trusted(ring, rem)

    # -- text form --------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for exp in sorted(self.terms, key=grevlex_key, reverse=True):
            c = self.terms[exp]
            mono = "*".join(
                v if e == 1 else f"{v}^{e}"
                for v, e in zip(self.variables, exp)
                if e
            )
            mag = abs(c)
            if not mono:
                body = str(mag)
            elif mag == 1:
                body = mono
            else:
                body = f"{mag}*{mono}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"{'+' if c > 0 else '-'} {body}")
        return " ".join(parts)

    def __repr__(self):
        return f"SparsePoly({self.variables}, {self})"


def divides(f, g):
    """True iff f divides g, decided by division with remainder under grevlex."""
    if f.is_zero():
        raise ZeroDivisionError("divisibility by the zero polynomial is undefined")
    if g.is_zero():
        return True
    _, rem = g.divide_by(f)
    return rem.is_zero()


_TOKEN = re.compile(r"\s*([A-Za-z_][A-Za-z_0-9]*|\d+|\^|\*|\+|-|/)")


def parse_poly(text, variables):
    """Parse the textual polynomial grammar: e.g. '3/2*x^2*y - z + 1'."""
    variables = tuple(variables)
    pos = 0
    tokens = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise ValueError(f"cannot tokenize polynomial at: {text[pos:]!r}")
            break
        tokens.append(m.group(1))
        pos = m.end()

    result = SparsePoly.zero(variables)
    i = 0
    n = len(tokens)
    first = True
    while i < n:
        sign = 1
        while i < n and tokens[i] in "+-":
            if tokens[i] == "-":
                sign = -sign
            i += 1
        if i == n:
            if first:
                break
            raise ValueError("dangling sign in polynomial text")
        coeff = sign
        exp = [0] * len(variables)
        expect_factor = True
        while i < n and expect_factor:
            tok = tokens[i]
            if tok.isdigit():
                num = int(tok)
                i += 1
                if i < n and tokens[i] == "/":
                    if i + 1 >= n or not tokens[i + 1].isdigit():
                        raise ValueError("malformed fraction")
                    if int(tokens[i + 1]) == 0:
                        raise ValueError("zero denominator in polynomial text")
                    coeff *= Fraction(num, int(tokens[i + 1]))
                    i += 2
                else:
                    coeff *= num
            else:
                if tok not in variables:
                    raise ValueError(f"unknown variable {tok!r}")
                vi = variables.index(tok)
                i += 1
                e = 1
                if i < n and tokens[i] == "^":
                    if i + 1 >= n or not tokens[i + 1].isdigit():
                        raise ValueError("malformed exponent")
                    e = int(tokens[i + 1])
                    i += 2
                exp[vi] += e
            if i < n and tokens[i] == "*":
                i += 1
            else:
                expect_factor = False
        if expect_factor:
            raise ValueError("dangling '*' in polynomial text")
        if i < n and tokens[i] not in "+-":
            raise ValueError(f"expected '+', '-' or the end after a term, got {tokens[i]!r}")
        result = result + SparsePoly.monomial(variables, exp, coeff)
        first = False
    return result
