"""Vanishing-order linear algebra at the point [1,1,1] of P(a,b,c).

The degree-d forms with multiplicity >= mu at the point are cut out by
Hasse-derivative conditions on the Laurent polynomial obtained by pushing
monomial quotients down the torus chart.  Kernels of the resulting integer
condition matrices give the graded pieces of the symbolic powers I^mu : J^oo.
"""

from functools import lru_cache
from math import comb

from . import linalg
from .poly import SparsePoly
from .weights import monomials_of_degree

XYZ = ("x", "y", "z")


def _inverse_unimodular_3x3(v):
    det = (
        v[0][0] * (v[1][1] * v[2][2] - v[1][2] * v[2][1])
        - v[0][1] * (v[1][0] * v[2][2] - v[1][2] * v[2][0])
        + v[0][2] * (v[1][0] * v[2][1] - v[1][1] * v[2][0])
    )
    if det not in (1, -1):
        raise ValueError("matrix is not unimodular")
    cof = [
        [
            (v[(i + 1) % 3][(j + 1) % 3] * v[(i + 2) % 3][(j + 2) % 3]
             - v[(i + 1) % 3][(j + 2) % 3] * v[(i + 2) % 3][(j + 1) % 3])
            for j in range(3)
        ]
        for i in range(3)
    ]
    # inverse = adj / det; adj = cofactor transpose; det = 1/det for units
    return [[cof[j][i] * det for j in range(3)] for i in range(3)]


@lru_cache(maxsize=None)
def _chart(a, b, c):
    d, u, v = linalg.smith_normal_form([[a, b, c]])
    if d[0][0] != 1:
        raise ValueError("weights are not coprime")
    vinv = _inverse_unimodular_3x3(v)
    # columns 1,2 of v form a basis of the weight-zero sublattice; the
    # coordinate map onto that basis is rows 1,2 of v^{-1}.
    basis = [tuple(v[i][1] for i in range(3)), tuple(v[i][2] for i in range(3))]
    chart_map = [tuple(vinv[1]), tuple(vinv[2])]
    for i in range(2):
        for j in range(2):
            dot = sum(chart_map[i][k] * basis[j][k] for k in range(3))
            if dot != (1 if i == j else 0):
                raise AssertionError("chart map does not invert the kernel basis")
    return chart_map, basis


def chart_kernel_basis(w):
    """Basis of the weight-zero exponent lattice (preimages of the Z^2 unit vectors)."""
    _, basis = _chart(w.a, w.b, w.c)
    return [list(b) for b in basis]


def binom_int(n, k):
    """Binomial coefficient C(n, k) for arbitrary integer n and k >= 0."""
    if k < 0:
        raise ValueError("k must be non-negative")
    if n >= 0:
        return comb(n, k) if k <= n else 0
    return (-1) ** k * comb(k - n - 1, k)


def _chart_exponents(w, d):
    """Monomials of degree d and their exponents (u, v) in the lattice chart."""
    monos = monomials_of_degree(w, d)
    chart_map, _ = _chart(w.a, w.b, w.c)
    uv = []
    for m in monos:
        # exponents relative to the lexicographically least monomial
        diff = [m[i] - monos[0][i] for i in range(3)]
        uv.append(tuple(sum(r[i] * diff[i] for i in range(3)) for r in chart_map))
    return uv, monos


def _order_rows(uv, order):
    """Hasse-derivative conditions of one order, one row per (alpha, order - alpha)."""
    return [
        [binom_int(u, alpha) * binom_int(v, order - alpha) for u, v in uv]
        for alpha in range(order + 1)
    ]


def condition_matrix(w, d, mu):
    """Integer matrix whose kernel is V(d, mu) in monomial coordinates.

    Rows are indexed by Hasse-derivative orders (alpha, beta) with
    alpha + beta < mu; columns by the monomials of degree d in lex order.
    """
    uv, monos = _chart_exponents(w, d)
    if not monos:
        return [], monos
    return [row for order in range(mu) for row in _order_rows(uv, order)], monos


def nonzero_at_order(w, d, vecs, order):
    """For each coefficient vector of a degree-d form, whether some Hasse
    derivative of this order is nonzero at [1,1,1]: for a form in
    V(d, order), whether it lies outside V(d, order + 1)."""
    rows = _order_rows(_chart_exponents(w, d)[0], order)
    return [any(sum(r * x for r, x in zip(row, v)) for row in rows) for v in vecs]


def slice_dim(w, d, mu):
    """dim of {f in S_d : mult of f at [1,1,1] >= mu}, without building a basis."""
    rows, monos = condition_matrix(w, d, mu)
    return len(monos) - linalg.rank(rows)


def slice_kernel_vectors(w, d, mu):
    """Kernel basis vectors of the condition matrix (monomial coordinates)."""
    rows, monos = condition_matrix(w, d, mu)
    return linalg.kernel_basis(rows, len(monos)), monos


def _vector_to_poly(vec, monos):
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


def _vanishing_order(w, d, vec):
    """Least order at which the degree-d form vec has a nonzero Hasse derivative."""
    # a nonzero form has finite multiplicity; 2d + 2 safely bounds it
    for order in range(2 * d + 3):
        if nonzero_at_order(w, d, [vec], order)[0]:
            return order
    raise AssertionError("multiplicity bound exceeded for a nonzero form")


def rees_multiplicity(w, f):
    """Multiplicity of the curve V(f) at [1,1,1]; 0 if f does not vanish there."""
    if f.is_zero():
        raise ValueError("Rees multiplicity of the zero polynomial is undefined")
    d = f.weighted_degree(w.as_tuple())
    if d is None:
        raise ValueError("polynomial is not weighted-homogeneous")
    # scaling keeps the multiplicity, and integer sums are cheaper than Fraction ones
    vec = [int(c) for c in _coefficient_vector(f.primitive(), monomials_of_degree(w, d))]
    return _vanishing_order(w, d, vec)


def exact_witness(w, d, mu, factor=None, tie_break="first"):
    """A form of V(d, mu) of multiplicity exactly mu that factor does not divide.

    Returns None when V(d, mu) is zero or lies inside factor*S.  The form is
    a kernel basis vector of V(d, mu), or the sum of two of them; tie_break
    "last" scans the basis from its end.

    A nonzero V(d, mu) always strictly contains V(d, mu + 1): its rows
    evaluate the polynomials of degree < mu at the distinct chart points of
    the degree-d monomials, and the Hilbert function of a finite point set
    rises strictly until it reaches the number of points.  The multiples of
    factor inside V(d, mu) are factor * V(d - d_f, mu - mu_f).  When both are
    proper subspaces, some form avoids them both: a vector space over an
    infinite field is never a union of two proper subspaces.
    """
    vecs, monos = slice_kernel_vectors(w, d, mu)
    if not vecs:
        return None
    exact = nonzero_at_order(w, d, vecs, mu)
    if not any(exact):
        raise AssertionError(f"V({d},{mu}) does not strictly contain V({d},{mu + 1})")
    multiples = [] if factor is None else _multiple_vectors(w, factor, d, mu, monos)
    r = linalg.rank(multiples) if multiples else 0
    if r >= len(vecs):
        return None
    pairs = list(zip(vecs, exact))
    va = vb = None
    for v, out_a in pairs[::-1] if tie_break == "last" else pairs:
        out_b = not multiples or linalg.rank(multiples + [v]) > r
        if out_a and out_b:
            return _vector_to_poly(v, monos)
        if out_a and va is None:
            va = v
        if out_b and vb is None:
            vb = v
    # va lies among the multiples and vb in V(d, mu + 1), so their sum avoids both
    return _vector_to_poly([x + y for x, y in zip(va, vb)], monos)


def _multiple_vectors(w, factor, d, mu, monos):
    """Coefficient vectors of factor * V(d - d_f, mu - mu_f) in the monomials monos.

    Each is the integer convolution of factor with a kernel basis vector;
    only the span of the result matters.
    """
    mu_f = rees_multiplicity(w, factor)
    d_f = factor.weighted_degree(w.as_tuple())
    if d < d_f:
        return []
    vecs, sub_monos = slice_kernel_vectors(w, d - d_f, max(0, mu - mu_f))
    index = {m: i for i, m in enumerate(monos)}
    terms = [(exp, int(c)) for exp, c in factor.primitive().terms.items()]
    out = []
    for g in vecs:
        vec = [0] * len(monos)
        for m, x in zip(sub_monos, g):
            if x:
                for exp, c in terms:
                    vec[index[(exp[0] + m[0], exp[1] + m[1], exp[2] + m[2])]] += c * x
        out.append(vec)
    return out
