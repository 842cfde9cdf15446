"""Buchberger engine over Q: reduced bases, normal forms, saturation, dimension.

Inside the kernel a polynomial is an integer term dict (exponent tuple ->
int).  Each reduction step is a nonzero rational multiple of the same step
over Q, so remainders agree up to a scalar; `Fraction` coefficients are made
only where a `SparsePoly` leaves the kernel.
"""

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from operator import add, le

from .poly import SparsePoly, block_key, grevlex_key


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


@dataclass
class GroebnerBasis:
    variables: tuple
    elements: list
    key: object = field(default=grevlex_key, repr=False)
    # (integer terms, leading terms) of `elements`, built by the first normal_form
    _int: tuple = field(default=None, init=False, repr=False, compare=False)


DEFAULT_BUDGET = 10 ** 6


def _lcm_exp(e1, e2):
    return tuple(map(max, e1, e2))


def _divides_exp(e1, e2):
    return all(map(le, e1, e2))


def _integer_terms(p):
    """(den, terms) with p = terms / den and every coefficient of terms an int."""
    den = math.lcm(*(c.denominator for c in p.terms.values()))
    return den, {e: c.numerator * (den // c.denominator) for e, c in p.terms.items()}


def _primitive(terms):
    """Integer terms divided by their content, grevlex leading coefficient positive."""
    c = math.gcd(*terms.values())
    if terms[max(terms, key=grevlex_key)] < 0:
        c = -c
    return {e: v // c for e, v in terms.items()}


def _lead(terms, key):
    exp = max(terms, key=key)
    return exp, terms[exp]


def _reduce(g, basis, leads, key):
    """Normal form of the integer term dict g (consumed) against integer basis dicts.

    leads[i] = (exp, coeff) of basis[i].  Works in place on one term dict.
    When a leading coefficient does not divide the current coefficient, the
    pending terms and the remainder are multiplied by the least factor that
    makes it divide.  Returns (rem, scale): rem is scale times the remainder
    over Q.  Order keys are memoised for the length of the call.
    """
    rem = {}
    scale = 1
    keys = {}

    def order(exp):
        k = keys.get(exp)
        if k is None:
            k = keys[exp] = key(exp)
        return k

    while g:
        gexp = max(g, key=order)
        gc = g.pop(gexp)
        for (lexp, lc), h in zip(leads, basis):
            if _divides_exp(lexp, gexp):
                break
        else:
            rem[gexp] = gc
            continue
        q, r = divmod(gc, lc)
        if r:
            m = abs(lc) // math.gcd(gc, lc)
            scale *= m
            for d in (g, rem):
                for exp in d:
                    d[exp] *= m
            q = gc * m // lc
        diff = tuple(a - b for a, b in zip(gexp, lexp))
        for exp, c in h.items():
            if exp == lexp:
                continue
            exp = tuple(map(add, exp, diff))
            c = g.get(exp, 0) - q * c
            if c:
                g[exp] = c
            else:
                del g[exp]
    return rem, scale


def normal_form(f, gb):
    """Unique remainder of f modulo a Groebner basis; zero iff f is in the ideal."""
    if f.variables != gb.variables:
        raise ValueError("polynomial outside the basis ring")
    if gb._int is None:
        basis = [_integer_terms(g)[1] for g in gb.elements]
        gb._int = (basis, [_lead(p, gb.key) for p in basis])
    den, g = _integer_terms(f)
    rem, scale = _reduce(g, *gb._int, gb.key)
    den *= scale
    return SparsePoly._trusted(f.variables, {e: Fraction(c, den) for e, c in rem.items()})


def _spoly(f, f_lead, g, g_lead, lcm):
    """(c_g/d) x^u f - (c_f/d) x^v g with d = gcd(c_f, c_g): the leading terms cancel."""
    (ef, cf), (eg, cg) = f_lead, g_lead
    d = math.gcd(cf, cg)
    a, b = cg // d, cf // d
    u = tuple(x - y for x, y in zip(lcm, ef))
    v = tuple(x - y for x, y in zip(lcm, eg))
    s = {tuple(map(add, e, u)): a * c for e, c in f.items() if e != ef}
    for e, c in g.items():
        if e != eg:
            e = tuple(map(add, e, v))
            c = s.get(e, 0) - b * c
            if c:
                s[e] = c
            else:
                del s[e]
    return s


def _update_pairs(lead_exps, pairs, pair_info, new_index, key):
    """Gebauer-Moeller pair update on adding the polynomial at new_index.

    `pair_info` maps each pair of `pairs` to (order key of its lcm, lcm); it
    is updated in place to cover exactly the returned set.
    """
    t = new_index
    lt = lead_exps[t]
    lcms = [_lcm_exp(lead_exps[i], lt) for i in range(t)]
    kept = set()
    for (i, j) in pairs:
        lij = pair_info[(i, j)][1]
        if not _divides_exp(lt, lij) or lij == lcms[i] or lij == lcms[j]:
            kept.add((i, j))
        else:
            del pair_info[(i, j)]
    by_lcm = {}
    for i, lcm in enumerate(lcms):
        by_lcm.setdefault(lcm, []).append(i)
    keys = {lcm: key(lcm) for lcm in by_lcm}
    minimal = []
    for lcm in sorted(by_lcm, key=keys.__getitem__):
        if all(not _divides_exp(m, lcm) for m in minimal):
            minimal.append(lcm)
    for lcm in minimal:
        idxs = by_lcm[lcm]
        # drop the whole class if any member has coprime leads
        if any(lcm == tuple(map(add, lead_exps[i], lt)) for i in idxs):
            continue
        kept.add((idxs[0], t))
        pair_info[(idxs[0], t)] = (keys[lcm], lcm)
    return kept


def buchberger(
    ideal,
    key=grevlex_key,
    step_budget=DEFAULT_BUDGET,
    weighted_bound=None,
    weights=None,
):
    """Reduced Groebner basis of the ideal under the given monomial order.

    With `weighted_bound` and per-variable `weights`, S-pairs whose lcm has
    weighted degree above the bound are discarded; for an ideal homogeneous
    in those weights, the result is a Groebner basis truncated at that degree.
    """
    gens = [_primitive(_integer_terms(g)[1]) for g in ideal.generators if not g.is_zero()]
    if not gens:
        return GroebnerBasis(ideal.variables, [], key)
    gens.sort(key=lambda p: key(_lead(p, key)[0]))
    basis = []  # primitive integer term dicts
    leads = []  # (exp, coeff) of each basis element, taken once when it is added
    lead_exps = []
    pairs = set()
    pair_info = {}  # pair -> (order key of its lcm, lcm), for the pairs in `pairs`
    steps = 0

    def add(p):
        basis.append(p)
        leads.append(_lead(p, key))
        lead_exps.append(leads[-1][0])
        return _update_pairs(lead_exps, pairs, pair_info, len(basis) - 1, key)

    for g in gens:
        r, _ = _reduce(g, basis, leads, key)
        if r:
            pairs = add(_primitive(r))

    while pairs:
        pair = min(pairs, key=lambda p: pair_info[p][0])
        pairs.discard(pair)
        i, j = pair
        lcm = pair_info.pop(pair)[1]
        if weighted_bound is not None and weights is not None:
            if sum(w * e for w, e in zip(weights, lcm)) > weighted_bound:
                continue
        steps += 1
        if steps > step_budget:
            raise StepBudgetExceeded(f"pair-reduction budget {step_budget} exhausted")
        s = _spoly(basis[i], leads[i], basis[j], leads[j], lcm)
        r, _ = _reduce(s, basis, leads, key)
        if r:
            pairs = add(_primitive(r))

    # minimalize: drop elements whose lead is divisible by another lead
    keep = []
    for i, lexp in enumerate(lead_exps):
        if not any(
            j != i and _divides_exp(lead_exps[j], lexp) and (lead_exps[j] != lexp or j < i)
            for j in range(len(lead_exps))
        ):
            keep.append(i)
    minimal = [basis[i] for i in keep]
    minimal_leads = [leads[i] for i in keep]
    # inter-reduce, then normalize to monic on the way out of the kernel
    reduced = []
    for idx, p in enumerate(minimal):
        others = minimal[:idx] + minimal[idx + 1:]
        other_leads = minimal_leads[:idx] + minimal_leads[idx + 1:]
        reduced.append(_primitive(_reduce(dict(p), others, other_leads, key)[0]))
    reduced.sort(key=lambda p: key(_lead(p, key)[0]))
    elements = []
    for p in reduced:
        lc = _lead(p, key)[1]
        elements.append(
            SparsePoly._trusted(ideal.variables, {e: Fraction(c, lc) for e, c in p.items()})
        )
    return GroebnerBasis(ideal.variables, elements, key)


def ideal_member(f, gb):
    return normal_form(f, gb).is_zero()


def ideal_equal(i1, i2, step_budget=DEFAULT_BUDGET):
    """Ideal equality via reduced-basis comparison under the shared grevlex order."""
    g1 = buchberger(i1, step_budget=step_budget)
    g2 = buchberger(i2, step_budget=step_budget)
    return g1.elements == g2.elements


def _extend_front(p, new_var, variables):
    return p.rename_ring((new_var,) + variables)


def _contract(gb_elements, tag_var, variables):
    """Keep elements free of the leading tag variable and drop it from the ring."""
    out = []
    mapping = {v: v for v in variables}
    for g in gb_elements:
        if all(exp[0] == 0 for exp in g.terms):
            out.append(g.rename_ring(variables, mapping))
    return out


def saturate(ideal, f, step_budget=DEFAULT_BUDGET):
    """I : f^oo by adjoining w with 1 - w*f and eliminating w."""
    if f.is_zero():
        raise ValueError("cannot saturate by zero")
    tag = _fresh_name("w", ideal.variables)
    ring = (tag,) + ideal.variables
    gens = [_extend_front(g, tag, ideal.variables) for g in ideal.generators]
    one = SparsePoly.constant(ring, 1)
    wf = SparsePoly.variable(ring, tag) * _extend_front(f, tag, ideal.variables)
    gens.append(one - wf)
    gb = buchberger(Ideal(ring, gens), key=block_key(1), step_budget=step_budget)
    return Ideal(ideal.variables, _contract(gb.elements, tag, ideal.variables))


def quotient_by(ideal, f, step_budget=DEFAULT_BUDGET):
    """Single ideal quotient I : <f>, via tagged intersection and exact division."""
    if f.is_zero():
        raise ValueError("cannot take a quotient by zero")
    tag = _fresh_name("w", ideal.variables)
    ring = (tag,) + ideal.variables
    w = SparsePoly.variable(ring, tag)
    one = SparsePoly.constant(ring, 1)
    gens = [w * _extend_front(g, tag, ideal.variables) for g in ideal.generators]
    gens.append((one - w) * _extend_front(f, tag, ideal.variables))
    gb = buchberger(Ideal(ring, gens), key=block_key(1), step_budget=step_budget)
    inter = _contract(gb.elements, tag, ideal.variables)
    out = []
    for g in inter:
        q, r = g.divide_by(f)
        if not r.is_zero():
            raise AssertionError("intersection element not divisible by f")
        if not q.is_zero():
            out.append(q.primitive())
    return Ideal(ideal.variables, out)


def krull_dimension(ideal, step_budget=DEFAULT_BUDGET, gb=None):
    """Krull dimension of the quotient ring, or None for the unit ideal.

    Computed as the largest number of variables supporting no leading
    monomial of a Groebner basis.
    """
    if gb is None:
        gb = buchberger(ideal, step_budget=step_budget)
    if any(g.is_constant() and not g.is_zero() for g in gb.elements):
        return None
    n = len(ideal.variables)
    supports = [
        frozenset(i for i, e in enumerate(g.leading(gb.key)[0]) if e)
        for g in gb.elements
    ]
    for size in range(n, -1, -1):
        for subset in combinations(range(n), size):
            sset = set(subset)
            if all(not s <= sset for s in supports):
                return size
    return 0


def _fresh_name(stem, variables):
    name = stem
    k = 0
    while name in variables:
        k += 1
        name = f"{stem}{k}"
    return name
