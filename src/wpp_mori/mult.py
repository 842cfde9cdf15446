"""Vanishing-order linear algebra at the point [1,1,1] of P(a,b,c).

The degree-d forms with multiplicity >= mu at the point are cut out by
Hasse-derivative conditions on the Laurent polynomial obtained by pushing
monomial quotients down the torus chart.  Kernels of the resulting integer
condition matrices give the graded pieces of the symbolic powers I^mu : J^oo.
"""

from functools import lru_cache
from heapq import heappop, heappush
from itertools import count, islice
from math import gcd, isqrt
from operator import mul

from . import linalg
from .poly import SparsePoly
from .weights import monomials_of_degree

XYZ = ("x", "y", "z")


def _short_directions(a, b, c):
    """The three weight-zero directions of least weighted length, up to sign.

    The weighted length of a weight-zero vector (x, y, z) is
    (a|x| + b|y| + c|z|) / 2, the degree of its binomial.  A vector of
    length at most n has each weighted coordinate at most n, so enumerating
    the two coordinates of the larger weights in that box and solving for
    the third finds all of them; n doubles until three primitive vectors,
    one per direction, fit.  Ties go to the vector that sorts first.
    """
    w = (a, b, c)
    # enumerate the coordinates j, k of the two larger weights, solve for i
    i, j, k = sorted(range(3), key=w.__getitem__)
    inv = pow(w[k], -1, w[i])
    n = isqrt(a * b * c)
    while True:
        found = set()
        for s in range(-(n // w[j]), n // w[j] + 1):
            # only t = -w[j] * s / w[k] mod w[i] leaves an integer r
            lo = -(n // w[k])
            lo += (-w[j] * s * inv - lo) % w[i]
            for t in range(lo, n // w[k] + 1, w[i]):
                r = (-w[j] * s - w[k] * t) // w[i]
                twice = w[i] * abs(r) + w[j] * abs(s) + w[k] * abs(t)
                if twice <= 2 * n and gcd(r, s, t) == 1:
                    v = [0, 0, 0]
                    v[i], v[j], v[k] = r, s, t
                    found.add((twice, max(tuple(v), tuple(-x for x in v))))
        if len(found) >= 3:
            return [v for _, v in sorted(found)[:3]]
        n *= 2


@lru_cache(maxsize=None)
def _chart(a, b, c):
    d, u, v = linalg.smith_normal_form([[a, b, c]])
    if d[0][0] != 1:
        raise ValueError("weights are not coprime")
    # columns c1, c2 of the unimodular v form a basis of the weight-zero
    # sublattice; the coordinate map onto that basis is rows 1, 2 of v^{-1},
    # which by the adjugate formula are (c2 x c0) / det and (c0 x c1) / det,
    # with det = c0 . (c1 x c2) = +-1
    c0, c1, c2 = zip(*v)
    det = sum(map(mul, c0, linalg.cross(c1, c2)))
    chart_map = [tuple(det * x for x in linalg.cross(p, q)) for p, q in ((c2, c0), (c0, c1))]
    # the lines of direction t in a degree are the level sets of the normal t x (a, b, c)
    normals = [linalg.cross(t, (a, b, c)) for t in _short_directions(a, b, c)]
    return chart_map, [c1, c2], normals


def chart_kernel_basis(w):
    """Basis of the weight-zero exponent lattice (preimages of the Z^2 unit vectors)."""
    basis = _chart(w.a, w.b, w.c)[1]
    return [list(b) for b in basis]


def _chart_exponents(w, monos):
    """Exponents (u, v) in the lattice chart of monomials of one degree.

    With the chart map's rows r and s, (u, v) = (r.m - r.m0, s.m - s.m0),
    relative to the first monomial m0.
    """
    if not monos:
        return []
    (r0, r1, r2), (s0, s1, s2) = _chart(w.a, w.b, w.c)[0]
    x0, y0, z0 = monos[0]
    u0 = r0 * x0 + r1 * y0 + r2 * z0
    v0 = s0 * x0 + s1 * y0 + s2 * z0
    return [(r0 * x + r1 * y + r2 * z - u0, s0 * x + s1 * y + s2 * z - v0) for x, y, z in monos]


def _rows_by_order(uv):
    """Hasse-derivative conditions, one list of rows per order 0, 1, 2, ...

    Row alpha of order n holds C(u, alpha) * C(v, n - alpha) for each chart
    exponent (u, v).  Each binomial comes from the one before it by
    C(u, k + 1) = C(u, k) * (u - k) / (k + 1), an exact division also for
    negative u.
    """
    us = [u for u, _ in uv]
    vs = [v for _, v in uv]
    bu = [[1] * len(uv)]
    bv = [[1] * len(uv)]
    for order in count():
        yield [[x * y for x, y in zip(bu[alpha], bv[order - alpha])] for alpha in range(order + 1)]
        bu.append([x * (u - order) // (order + 1) for x, u in zip(bu[-1], us)])
        bv.append([x * (v - order) // (order + 1) for x, v in zip(bv[-1], vs)])


def condition_matrix(w, monos, mu):
    """Integer matrix whose kernel is V(d, mu) in monomial coordinates.

    monos are the monomials of degree d in lex order, `monomials_of_degree`;
    they index the columns and come back with the rows.  Rows are indexed by
    Hasse-derivative orders (alpha, beta) with alpha + beta < mu.
    """
    if not monos:
        return [], monos
    orders = islice(_rows_by_order(_chart_exponents(w, monos)), mu)
    return [row for rows in orders for row in rows], monos


def slice_dim(w, d, mu):
    """dim of {f in S_d : mult of f at [1,1,1] >= mu}, without building a basis."""
    rows, monos = condition_matrix(w, monomials_of_degree(w, d), mu)
    return len(monos) - linalg.rank(rows)


def _peel(w, monos, mu):
    """Residual (rest, m') of the line peel of the monomials monos of degree d.

    The rows C(u, alpha) * C(v, beta), alpha + beta < mu, span the
    polynomials of degree <= m = mu - 1 on the distinct chart points Z of
    the monomials, so V(d, mu) = 0 iff Z imposes independent conditions in
    degree m.  Any m + 1 distinct points do: through all but one of them
    pass m lines that miss that one.  Residual lemma: if a line L holds at
    most m + 1 points of Z and the points of Z off L are independent in
    degree m - 1, then Z is independent in degree m.  Interpolate the values
    on L by a univariate polynomial of degree <= m, then correct the values
    off L by l * h, where l is the line's equation and deg h <= m - 1.

    A line is {e : n.e = k} for a weight-zero direction t and its normal
    n = t x (a, b, c); the chart is affine, so it is a line in (u, v) too.
    The peel takes the three directions of least weighted length.  At each
    step it removes the line with the most points among those with at most
    m + 1 (of equal ones, the first in the shortest direction) and lowers m
    by one, while the points left fit the (m + 1)(m + 2) / 2 monomials of
    degree <= m.  Line counts drop as points go.  It stops once at most
    m + 1 points are left, and then rest is empty: V(d, mu) = 0.  Otherwise
    rest is the monomials of the points left, m' their degree, and by the
    lemma V(d, mu) = 0 if rest is independent in degree m'; rest is monos
    itself when the peel takes no step.  The directions decide only how far
    the peel gets, never what rest certifies.
    """
    left = len(monos)
    m = mu - 1
    if left <= m + 1:
        return [], m
    if 2 * left > (m + 1) * (m + 2):
        return monos, m
    # line ids go direction by direction, and within one by first point, so
    # the least id of equal counts is the shortest direction's first line
    members = []  # line id -> its points
    point_lines = []  # per direction, point -> line id
    for p, q, r in _chart(w.a, w.b, w.c)[2]:
        ids = {}
        of_point = []
        for i, (x, y, z) in enumerate(monos):
            k = p * x + q * y + r * z
            if k not in ids:
                ids[k] = len(members)
                members.append([])
            members[ids[k]].append(i)
            of_point.append(ids[k])
        point_lines.append(of_point)
    counts = [len(points) for points in members]
    # buckets[n] is a heap of the lines that held n points; a line whose
    # count has fallen since it entered is stale there and popped when met
    buckets = [[] for _ in range(max(counts) + 1)]
    for line, n in enumerate(counts):
        buckets[n].append(line)
    alive = [True] * left
    while True:
        best = None
        for n in range(min(m + 1, len(buckets) - 1), 0, -1):
            heap = buckets[n]
            while heap and counts[heap[0]] != n:
                heappop(heap)
            if heap:
                best = heap[0]
                break
        if best is None or 2 * (left - n) > m * (m + 1):
            return [mono for mono, a in zip(monos, alive) if a], m
        for i in members[best]:
            if alive[i]:
                alive[i] = False
                for of_point in point_lines:
                    line = of_point[i]
                    counts[line] -= 1
                    heappush(buckets[counts[line]], line)
        left -= n
        m -= 1
        if left <= m + 1:
            return [], m


def slice_kernel_vectors(w, d, mu):
    """Kernel basis vectors of the condition matrix (monomial coordinates).

    At mu = 0 there are no conditions, and the kernel basis of no rows is
    the unit vectors of S_d.  A slice whose `_peel` residual is empty, or
    whose smaller residual rest has full column rank mod p in its degree m'
    (chart exponents relative to rest[0] only translate the points), has no
    kernel, and its condition matrix is never built.  Every other slice takes
    the full condition matrix to `linalg.kernel_basis`.
    """
    monos = monomials_of_degree(w, d)
    rest, m = _peel(w, monos, mu)
    if not rest or len(rest) < len(monos) and linalg._full_rank_mod_p(
            condition_matrix(w, rest, m + 1)[0], len(rest)):
        return [], monos
    rows, monos = condition_matrix(w, monos, mu)
    return linalg.kernel_basis(rows, len(monos)), monos


def vector_to_poly(vec, monos):
    """The primitive form with coefficient vector vec in the monomials monos."""
    return SparsePoly(XYZ, {m: c for m, c in zip(monos, vec) if c}).primitive()


def _coefficient_vector(f, monos):
    vec = []
    lookup = dict(f.terms)
    seen = 0
    for m in monos:
        c = lookup.get(m, 0)
        if c:
            seen += 1
        vec.append(c)
    if seen != len(f.terms):
        raise ValueError("polynomial has terms outside the stated degree")
    return vec


def _vanishing_order(w, d, monos, vec):
    """Least order at which the degree-d form vec in the monomials monos has a
    nonzero Hasse derivative.

    monos may be any monomials of degree d that hold the form's support.
    """
    # a nonzero form has finite multiplicity; 2d + 2 safely bounds it
    for order, rows in zip(range(2 * d + 3), _rows_by_order(_chart_exponents(w, monos))):
        if any(sum(r * x for r, x in zip(row, vec)) for row in rows):
            return order
    raise AssertionError("multiplicity bound exceeded for a nonzero form")


def rees_multiplicity(w, f):
    """Multiplicity of the curve V(f) at [1,1,1]; 0 if f does not vanish there."""
    if f.is_zero():
        raise ValueError("Rees multiplicity of the zero polynomial is undefined")
    d = f.weighted_degree(w.as_tuple())
    if d is None:
        raise ValueError("polynomial is not weighted-homogeneous")
    # scaling keeps the multiplicity, and the primitive form has int terms; its
    # chart exponents relative to its first term multiply the Laurent
    # polynomial by a monomial, a unit at the point
    p = f.primitive()
    return _vanishing_order(w, d, list(p.terms), list(p.terms.values()))


def in_ideal(w, forms, g):
    """True iff the form g lies in the ideal generated by the given forms.

    g and every form are nonzero and weighted-homogeneous.  The ideal is
    homogeneous, so g, of degree d, lies in it iff g lies in the span of the
    spaces f * S_(d - d_f).  Those are `_multiple_vectors` at multiplicity 0,
    since V(e, 0) = S_e.
    """
    weights = w.as_tuple()
    d = g.weighted_degree(weights)
    if d is None:
        raise ValueError("polynomial is not weighted-homogeneous")
    monos = monomials_of_degree(w, d)
    rows = []
    for f in forms:
        d_f = f.weighted_degree(weights)
        if d_f is None:
            raise ValueError("generator is not weighted-homogeneous")
        rows += _multiple_vectors(w, (d_f, 0, f), d, 0, monos)
    target = _coefficient_vector(g.primitive(), monos)
    return linalg.in_span(rows, target)


def witness_vector(w, d, mu, factor=None, tie_break="first"):
    """(vec, monos) for a form of V(d, mu) of multiplicity exactly mu outside f*S.

    factor, when given, is (d_f, mu_f, f): a form f of degree d_f and
    multiplicity mu_f.  Returns None when V(d, mu) is zero or lies inside
    f*S.  vec is the first kernel basis vector of V(d, mu) outside f*S, in
    the monomials monos; tie_break "last" scans the basis from its end.

    Every kernel basis vector has multiplicity exactly mu.  The rows of the
    condition matrix evaluate the polynomials of degree < mu at the chart
    points of the degree-d monomials, which are distinct.  The vector of a
    free column is supported on its point and the earlier pivot points, and
    up to scale it is the only relation among them in degree < mu.  The
    Hilbert function of a finite point set rises strictly until it reaches
    the number of points, so no relation among them holds in degree mu: the
    vector has a nonzero Hasse derivative of order mu.  The multiples of f
    inside V(d, mu) are f * V(d - d_f, mu - mu_f).  Multiplication by f is
    injective, so the images of a kernel basis of V(d - d_f, mu - mu_f) are
    independent: their rank is their number.
    """
    vecs, monos = slice_kernel_vectors(w, d, mu)
    if not vecs:
        return None
    multiples = [] if factor is None else _multiple_vectors(w, factor, d, mu, monos)
    r = len(multiples)
    if r >= len(vecs):
        return None
    # r < len(vecs), so some basis vector lies outside the span of the multiples
    for v in vecs[::-1] if tie_break == "last" else vecs:
        if not multiples or not linalg.in_span(multiples, v):
            return v, monos


def _multiple_vectors(w, factor, d, mu, monos):
    """Coefficient vectors of f * V(d - d_f, mu - mu_f) in the monomials monos,
    for factor = (d_f, mu_f, f).

    Each is the integer convolution of f with a kernel basis vector, so they
    are independent.
    """
    d_f, mu_f, f = factor
    if d < d_f:
        return []
    vecs, sub_monos = slice_kernel_vectors(w, d - d_f, max(0, mu - mu_f))
    index = {m: i for i, m in enumerate(monos)}
    terms = f.primitive().terms.items()
    out = []
    for g in vecs:
        vec = [0] * len(monos)
        for m, x in zip(sub_monos, g):
            if x:
                for exp, c in terms:
                    vec[index[(exp[0] + m[0], exp[1] + m[1], exp[2] + m[2])]] += c * x
        out.append(vec)
    return out
