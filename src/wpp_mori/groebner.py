"""Buchberger engine over Q: reduced bases, normal forms, saturation, dimension.

Inside the kernel a polynomial is an integer term dict (packed monomial ->
int), see `_Packing`.  Each reduction step is a nonzero rational multiple of
the same step over Q, so remainders agree up to a scalar; exponent tuples and
rational coefficients are made only where a `SparsePoly` leaves the kernel,
and a `Fraction` only for a coefficient that is not an integer.
"""

import math
from dataclasses import dataclass
from itertools import combinations
from operator import itemgetter, lshift, mul, neg

from . import poly
from .poly import SparsePoly


class StepBudgetExceeded(RuntimeError):
    """The pair-reduction budget of a Groebner computation ran out."""


@dataclass
class Ideal:
    variables: tuple
    generators: list

    def __post_init__(self):
        self.variables = tuple(self.variables)
        for g in self.generators:
            if g.variables != self.variables:
                raise ValueError("generator outside the stated ring")


def _order_key(weights=None):
    """Sort key of weighted grevlex with these `weights` (larger key = larger monomial).

    `weights` is a positive int per variable (None: all ones).  The weighted
    degree sum(w_i * e_i) decides first, then grevlex's tie-break on the
    exponents.  Unit weights give grevlex.
    """
    def key(exp):
        return sum(map(mul, exp, weights or (1,) * len(exp))), tuple(map(neg, reversed(exp)))

    return key


def _weights(weights, n):
    """An order's weights as a tuple of n positive ints; None is all ones."""
    weights = (1,) * n if weights is None else tuple(weights)
    if len(weights) != n or not all(type(w) is int and w > 0 for w in weights):
        raise ValueError(f"weights must be {n} positive ints, got {weights}")
    return weights


class GroebnerBasis:
    """A reduced Groebner basis: its ring, its order (the `weights` of
    `_order_key`) and its monic elements in ascending order of their leads.

    It is its packing and its packed primitive integer `_element`s (`_int`),
    sorted by lead, as `buchberger` or `_divided_by_last` computed them; the
    monic `SparsePoly` elements are made from them when first asked for.
    """

    def __init__(self, variables, pk, basis):
        self.variables = variables
        self.weights = pk.weights
        self._int = pk, basis
        self._elements = None

    @property
    def elements(self):
        if self._elements is None:
            pk, basis = self._int
            self._elements = [_poly(b, pk, self.variables) for b in basis]
        return self._elements

    def __eq__(self, other):
        if not isinstance(other, GroebnerBasis):
            return NotImplemented
        return (self.variables, self.weights, self.elements) == (
            other.variables, other.weights, other.elements)

    def __repr__(self):
        return f"GroebnerBasis({self.variables!r}, weights={self.weights!r}, elements={self.elements!r})"

    def _packed(self, w=0):
        """(packing, `_element`s) of the elements, in a packing at least w bits wide.

        A wider packing re-keys each term: decoded by the old packing and
        encoded by the new one, with the same integer coefficient.
        """
        old, basis = self._int
        if old.w < w:
            pk = _Packing(len(self.variables), w, self.weights)
            self._int = pk, [_element({pk.encode(old.decode(k)): c for k, c in b[0].items()}, pk)
                             for b in basis]
        return self._int

    def elements_not_in(self, other):
        """The monic elements of this basis that are not elements of the basis `other`.

        Both are compared packed, in one packing wide enough for both.  The
        leads of a reduced basis are distinct, so an element is in `other`
        iff `other` has an element with its lead and its terms.
        """
        if (self.variables, self.weights) != (other.variables, other.weights):
            raise ValueError("the bases are in different rings or orders")
        w = max(self._int[0].w, other._int[0].w)
        theirs = {b[1]: b[0] for b in other._packed(w)[1]}
        pk, basis = self._packed(w)
        return [_poly(b, pk, self.variables) for b in basis if theirs.get(b[1]) != b[0]]

    def dimension(self):
        """Krull dimension of the quotient ring by the basis's ideal, or None for the unit ideal.

        The largest number of variables supporting no leading monomial: a set
        of variables does when every lead's packed vector P has a nonzero
        field outside it.
        """
        pk, basis = self._packed()
        if any(b[1] == 0 for b in basis):  # a constant lead: the unit ideal
            return None
        n = len(self.variables)
        fields = [pk.mask << s for s in pk.shifts]
        leads = [b[2] for b in basis]
        for size in range(n, 0, -1):
            for outside in combinations(fields, n - size):
                out = sum(outside)
                if all(p & out for p in leads):
                    return size
        return 0

    def quotient_by_last(self):
        """The reduced basis of <G> : v under the same order, v the last variable."""
        return self._divided_by_last(1)

    def _divided_by_last(self, cap):
        """The reduced basis of <G> : v^cap under the same order, v the last variable; cap None is oo.

        Let k be the exponent of v in an element's lead.  When each element
        has at least min(k, cap) factors of v in every term, the elements,
        each divided by v^min(k, cap), are a Groebner basis of <G> : v^cap,
        as in(<G> : v^cap) = in(<G>) : v^cap (Bayer-Stillman, Invent. Math.
        87, 1987).  Weighted grevlex puts the terms with least v first, so
        this holds for a homogeneous ideal; an element that breaks it raises
        AssertionError.  Dividing by v^m subtracts m * K(v) from each packed
        key; minimalizing and inter-reducing then gives the reduced basis.
        """
        pk, basis = self._packed()
        n = len(self.variables)
        shift, wv = pk.shifts[n - 1], pk.weights[n - 1]
        kv = pk.encode((0,) * (n - 1) + (1,))
        out = []
        for b in basis:
            m = (b[2] >> shift & pk.mask) // wv
            if cap is not None:
                m = min(m, cap)
            if m:
                if any((pk.unpack(k) >> shift & pk.mask) < m * wv for k in b[0]):
                    raise AssertionError(f"an element has a term with fewer than {m} factors of v")
                b = _element({k - m * kv: c for k, c in b[0].items()}, pk)
            out.append(b)
        if out == basis:
            return self
        return GroebnerBasis(self.variables, pk, _reduced(out, pk))


DEFAULT_BUDGET = 10 ** 6


class _Widen(Exception):
    """A popped term reached the packing's degree limit: rerun at double width."""


class _Packing:
    """Monomials of weighted grevlex packed into ints, with fields of w bits.

    The field of variable x_i holds y_i = w_i * e_i, its exponent times its
    weight.  A monomial of n variables is the base-2^w linear form
    K = deg * B^n - sum(y_i * B^i) on n + 1 digits, deg = sum(y_i) its
    weighted degree.  K is additive, K(a + b) = K(a) + K(b), and while deg
    stays below 2^(w-1), K orders monomials exactly as `_order_key` does: a
    tie in deg is a tie in the weighted sum, and the last differing y_i
    decides as the last differing e_i does.  unpack(K) is the packed vector
    P: one field y_i per variable, the degree digit zero.  Scaling a field
    by w_i > 0 keeps its comparisons and its max, so a divides b iff
    (P_b - P_a) & guard == 0, and the lcm is a select by guard bits
    (Monagan-Pearce, CASC 2007; Bachmann-Schoenemann, ISSAC 1998); only
    encode and decode see the weights.

    The kernel keeps every operand (input, basis and popped terms) below
    `limit` = 2^(w-2) in degree, so each product of two operands still
    compares exactly; a popped term at the limit raises _Widen.
    """

    def __init__(self, n, w, weights):
        self.w = w
        self.weights = weights
        self.limit = 1 << (w - 2)
        self.mask = (1 << w) - 1
        self.shifts = [i * w for i in range(n)]  # bit offset of each variable's field
        self.guard = sum(1 << (s + w - 1) for s in self.shifts)
        self.d = n * w  # bit offset of the degree digit
        self.ones = (1 << self.d) - 1
        self.top = self.mask << self.d
        self.high = 3 << (self.d + w - 2)
        self.units = self.guard >> (w - 1)  # 1 + B + ... + B^(n-1)

    def encode(self, exp):
        y = list(map(mul, exp, self.weights))
        return (sum(y) << self.d) - sum(map(lshift, y, self.shifts))

    def decode(self, k):
        p = ((k + self.ones) & self.top) - k
        mask = self.mask
        return tuple([((p >> s) & mask) // w for s, w in zip(self.shifts, self.weights)])

    def unpack(self, k):
        """P of K, after checking that the degree of K is below the limit."""
        t = k + self.ones
        if t & self.high:
            raise _Widen
        return (t & self.top) - k

    def lcm(self, pa, pb):
        """(K, P) of the lcm of two packed exponent vectors."""
        sel = ((pa | self.guard) - pb) & self.guard  # guard bit set where a_i >= b_i
        sel -= sel >> (self.w - 1)
        p = pb ^ ((pa ^ pb) & sel)
        # the n fields times 1 + B + ... + B^(n-1) hold the degree in digit n - 1
        deg = (p * self.units >> (self.d - self.w)) & self.mask
        return (deg << self.d) - p, p


def _first_width(polys, weights):
    """A field width whose limit exceeds every weighted total degree in polys."""
    d = max((sum(map(mul, e, weights)) for p in polys for e in p.terms), default=0)
    return d.bit_length() + 4


def _integer_terms(p, pk):
    """(den, terms) with p = terms / den, terms packed by pk with int coefficients."""
    den, terms = poly._integer_terms(p)
    encode = pk.encode
    return den, {encode(e): c for e, c in terms.items()}


def _primitive(terms):
    """Integer terms divided by their content, leading coefficient positive."""
    c = math.gcd(*terms.values())
    if terms[max(terms)] < 0:
        c = -c
    return {e: v // c for e, v in terms.items()}


def _element(terms, pk):
    """(terms, K and P of the leading monomial, leading coefficient)."""
    k = max(terms)
    return terms, k, pk.unpack(k), terms[k]


def _poly(element, pk, variables):
    """The monic `SparsePoly` of an `_element` in `variables`."""
    terms, _, _, lc = element
    decode = pk.decode
    return SparsePoly._trusted(variables, {decode(e): poly._ratio(c, lc) for e, c in terms.items()})


def _reduce(g, basis, pk):
    """Normal form of the packed integer term dict g (consumed) against `_element`s.

    Works in place on one term dict.  When a leading coefficient does not
    divide the current coefficient, the pending terms and the remainder are
    multiplied by the least factor that makes it divide.  Returns
    (rem, scale): rem is scale times the remainder over Q.
    """
    ones, top, high, guard = pk.ones, pk.top, pk.high, pk.guard
    rem = {}
    scale = 1
    while g:
        k = max(g)
        gc = g.pop(k)
        t = k + ones
        if t & high:
            raise _Widen
        p = (t & top) - k
        for h, hk, hp, lc in basis:
            if not (p - hp) & guard:
                break
        else:
            rem[k] = gc
            continue
        q, r = divmod(gc, lc)
        if r:
            m = abs(lc) // math.gcd(gc, lc)
            scale *= m
            for d in (g, rem):
                for e in d:
                    d[e] *= m
            q = gc * m // lc
        shift = k - hk
        for e, c in h.items():
            if e == hk:
                continue
            e += shift
            c = g.get(e, 0) - q * c
            if c:
                g[e] = c
            else:
                del g[e]
    return rem, scale


def normal_form(f, gb):
    """Unique remainder of f modulo a Groebner basis; zero iff f is in the ideal."""
    if f.variables != gb.variables:
        raise ValueError("polynomial outside the basis ring")
    # the order is graded, so no popped term exceeds the degree of f, which
    # `_first_width` puts below the limit: one packing, one reduction
    pk, basis = gb._packed(_first_width([f], gb.weights))
    den, g = _integer_terms(f, pk)
    rem, scale = _reduce(g, basis, pk)
    den *= scale
    decode = pk.decode
    return SparsePoly._trusted(f.variables, {decode(e): poly._ratio(c, den) for e, c in rem.items()})


def _spoly(f, g, lk):
    """(c_g/d) x^u f - (c_f/d) x^v g with d = gcd(c_f, c_g): the leading terms cancel."""
    (f, fk, _, cf), (g, gk, _, cg) = f, g
    d = math.gcd(cf, cg)
    a, b = cg // d, cf // d
    u, v = lk - fk, lk - gk
    s = {e + u: a * c for e, c in f.items() if e != fk}
    for e, c in g.items():
        if e != gk:
            e += v
            c = s.get(e, 0) - b * c
            if c:
                s[e] = c
            else:
                del s[e]
    return s


def _update_pairs(basis, pairs, pk):
    """Gebauer-Moeller pair update, in place, on adding the last element of `basis`.

    `pairs` maps each pending pair (i, j) to (K, P) of its lcm.
    """
    t = len(basis) - 1
    pt = basis[t][2]
    guard = pk.guard
    lcms = [pk.lcm(b[2], pt) for b in basis[:t]]
    for (i, j), (_, lp) in list(pairs.items()):
        if not (lp - pt) & guard and lp != lcms[i][1] and lp != lcms[j][1]:
            del pairs[i, j]
    by_lcm = {}
    for i, lcm in enumerate(lcms):
        by_lcm.setdefault(lcm, []).append(i)
    minimal = []
    for lcm in sorted(by_lcm):
        if all((lcm[1] - m[1]) & guard for m in minimal):
            minimal.append(lcm)
    for lcm in minimal:
        idxs = by_lcm[lcm]
        # drop the whole class if any member has coprime leads
        if any(lcm[1] == basis[i][2] + pt for i in idxs):
            continue
        pairs[idxs[0], t] = lcm


def buchberger(ideal, weights=None, step_budget=DEFAULT_BUDGET, start=None):
    """Reduced Groebner basis of the ideal under weighted grevlex with these `weights`, see `_order_key`.

    The default is grevlex.  With `start`, a complete reduced basis under
    the same order in the ideal's ring, the result is the reduced basis of
    the ideal generated by start and the ideal's generators.  The run starts
    from start's packed elements with no pending S-pairs, since every S-pair
    of a Groebner basis reduces to 0 (Gebauer-Moeller, "On an installation
    of Buchberger's algorithm", J. Symbolic Comput. 6, 1988), so only the
    new generators are reduced and `step_budget` counts only the pairs they
    bring.  A reduced basis is unique, so the result equals the basis
    computed from all the generators; when no generator adds an element,
    start's elements are the result, with no inter-reduction.  The returned
    basis keeps its packed integer elements for `normal_form`, `dimension`
    and later extensions.
    """
    n = len(ideal.variables)
    weights = _weights(weights, n)
    if start is not None and (start.variables, start.weights) != (ideal.variables, weights):
        raise ValueError("start basis in another ring or under another order")
    gens = [g for g in ideal.generators if not g.is_zero()]
    w = _first_width(gens, weights)
    while True:
        if start is None:
            pk, base = _Packing(n, w, weights), []
        else:
            pk, base = start._packed(w)
        try:
            reduced = _buchberger(base, gens, pk, step_budget)
            break
        except _Widen:
            w = 2 * pk.w
    return GroebnerBasis(ideal.variables, pk, reduced)


def _buchberger(base, gens, pk, step_budget):
    """`_element`s of the reduced basis of base + gens, packed by pk, sorted by lead.

    `base` is a reduced basis (or empty) as `_element`s, taken with no
    pending pairs; the sorted gens are then reduced and added one by one.
    When none of them adds an element, `base` itself is returned.
    """
    gens = sorted((_primitive(_integer_terms(g, pk)[1]) for g in gens), key=max)
    basis = list(base)  # `_element`s, each taken once when it is added
    pairs = {}  # pending pair (i, j) -> (K, P) of its lcm
    steps = 0
    guard = pk.guard
    # Reduction uses the elements whose lead no later lead divides, in basis
    # order (as GROEBNERNEWS2 does, Becker-Weispfenning, "Groebner Bases",
    # p. 232).  Their leads generate the same monomial ideal as all the
    # leads, so a remainder by them is a remainder by the whole basis; the
    # dropped elements stay in `basis` for their pairs.  Reducing by the
    # dropped elements too swells the coefficients: on the quotient pinned by
    # an example of the extension property test, past 10^5 bits.
    reducers = list(basis)

    def add(p):
        new = _element(p, pk)
        basis.append(new)
        reducers[:] = [b for b in reducers if (b[2] - new[2]) & guard] + [new]
        _update_pairs(basis, pairs, pk)

    for g in gens:
        r, _ = _reduce(g, reducers, pk)
        if r:
            add(_primitive(r))

    while pairs:
        i, j = min(pairs, key=pairs.__getitem__)
        lk, _ = pairs.pop((i, j))
        steps += 1
        if steps > step_budget:
            raise StepBudgetExceeded(f"pair-reduction budget {step_budget} exhausted")
        r, _ = _reduce(_spoly(basis[i], basis[j], lk), reducers, pk)
        if r:
            add(_primitive(r))

    if len(basis) == len(base):
        return base
    return _reduced(basis, pk)


def _reduced(basis, pk):
    """`_element`s of the reduced basis, sorted by lead, of a Groebner basis given as `_element`s."""
    # minimalize: a lead is divisible only by leads not above it, so one pass
    # in ascending order keeps each element unless a kept lead divides its
    # lead (of equal leads the first is kept, the sort being stable)
    minimal = []
    for b in sorted(basis, key=itemgetter(1)):
        if all((b[2] - c[2]) & pk.guard for c in minimal):
            minimal.append(b)
    # inter-reduce; the leads stay, so the order by lead stays too
    return [
        _element(_primitive(_reduce(dict(b[0]), minimal[:idx] + minimal[idx + 1:], pk)[0]), pk)
        for idx, b in enumerate(minimal)
    ]


def ideal_member(f, gb):
    return normal_form(f, gb).is_zero()


def _colon(ideal, f, cap, step_budget):
    """I : f^cap (cap None: I : f^oo) as the Ideal of its reduced grevlex basis.

    The homogenized g^h of G, the reduced grevlex basis of I, generate the
    homogenization I^h, since grevlex is graded (Cox-Little-O'Shea, "Ideals,
    Varieties, and Algorithms", ch. 8 section 4).  With fresh variables h
    and u last, weighted 1 and deg f, J = <g^h, u - f^h> is homogeneous, and
    u -> f^h maps J : u^cap onto I^h : (f^h)^cap.  So the basis of J : u^cap
    read off J's basis (`_divided_by_last`) maps under u -> f, h -> 1 onto
    generators of I : f^cap: setting h = 1 takes I^h : (f^h)^cap onto
    I : f^cap, as (pq)^h = p^h q^h.  One more `buchberger` run makes them
    the reduced grevlex basis.  A constant f or the unit ideal gives G.
    `step_budget` bounds each of the three runs.
    """
    if f.variables != ideal.variables:
        raise ValueError("polynomial outside the ideal's ring")
    if f.is_zero():
        raise ValueError("cannot divide an ideal by zero")
    variables = ideal.variables
    gb = buchberger(ideal, step_budget=step_budget)
    deg = max(map(sum, f.terms))
    one = SparsePoly.constant(variables, 1)
    if deg == 0 or gb.elements[:1] == [one]:
        return Ideal(variables, gb.elements)
    h = _fresh_name("h", variables)
    ring = variables + (h, _fresh_name("u", variables + (h,)))

    def homogenized(p):
        d = max(map(sum, p.terms))
        return SparsePoly._trusted(ring, {e + (d - sum(e), 0): c for e, c in p.terms.items()})

    gens = [homogenized(g) for g in gb.elements] + [SparsePoly.variable(ring, ring[-1]) - homogenized(f)]
    weights = (1,) * (len(ring) - 1) + (deg,)
    read = buchberger(Ideal(ring, gens), weights=weights, step_budget=step_budget)._divided_by_last(cap)
    image = dict(zip(ring, [SparsePoly.variable(variables, v) for v in variables] + [one, f]))
    back = [g.substitute(image) for g in read.elements]
    return Ideal(variables, buchberger(Ideal(variables, back), step_budget=step_budget).elements)


def saturate(ideal, f, step_budget=DEFAULT_BUDGET):
    """I : f^oo, as the Ideal of its reduced grevlex basis (`_colon`).

    The generators are in `buchberger`'s order, so saturate(I, f).generators
    equals buchberger(saturate(I, f)).elements.
    """
    return _colon(ideal, f, None, step_budget)


def quotient_by(ideal, f, step_budget=DEFAULT_BUDGET):
    """The ideal quotient I : <f>, as the Ideal of its reduced grevlex basis (`_colon`).

    The package reads I : v off a basis of I instead
    (`GroebnerBasis.quotient_by_last`); this is its reference for any f.
    """
    return _colon(ideal, f, 1, step_budget)


def krull_dimension(ideal):
    """Krull dimension of the quotient ring, or None for the unit ideal, read off a grevlex basis."""
    return buchberger(ideal).dimension()


def _fresh_name(stem, variables):
    name = stem
    k = 0
    while name in variables:
        k += 1
        name = f"{stem}{k}"
    return name
