"""Generator verification for the Cox ring of a point blow-up.

Given generators f_1..f_k of the ideal of the blown-up point, the ring
R_2 = R_1[s_1..s_k, t] maps onto the saturated Rees algebra by
s_i -> f_i t^{-m_i}.  Surjectivity follows once some enlargement B of
B_0 = {t^{m_i} s_i - f_i} inside <B_0> : t^oo satisfies
dim(R_1) = dim(<B u {t}>) > dim(<B u {t,f}>), where f is the product of
the R_1-generators not vanishing on the point.
"""

import re
from dataclasses import dataclass, field

from . import groebner, mult
from .groebner import Ideal
from .poly import SparsePoly, grevlex_key, parse_poly
from .weights import WeightTriple


class DiscoveryBudgetExceeded(RuntimeError):
    """The discovery loop ran out of iterations before reaching a verdict."""


@dataclass
class BlowupInput:
    """Ring data for one verification instance."""

    weights: WeightTriple
    variables: tuple
    ideal_gens: list
    product: SparsePoly

    def __post_init__(self):
        self.variables = tuple(self.variables)
        if len(self.variables) != 3 or len(set(self.variables)) != 3:
            raise ValueError(f"need three distinct variable names, got {self.variables}")
        for v in self.variables:
            if not re.fullmatch(r"[A-Za-z_][A-Za-z_0-9]*", v):
                raise ValueError(f"variable name {v!r} is not a name polynomials can use")
        # the Rees ring appends s1..sk and t, so those names would clash
        reserved = {f"s{i + 1}" for i in range(len(self.ideal_gens))} | {"t"}
        clash = sorted(reserved.intersection(self.variables))
        if clash:
            raise ValueError(f"variable names {clash} are reserved for the Rees ring")
        # the criterion wants a product of the R_1-generators; a constant
        # makes <B u {t, f}> the unit ideal and the dimension test vacuous
        terms = list(self.product.terms)
        if len(terms) != 1 or not any(terms[0]):
            raise ValueError(f"the product must be one term of positive degree, not {self.product}")
        for g in self.ideal_gens:
            if g.is_zero():
                raise ValueError("an ideal generator is zero")
            if g.weighted_degree(self.weights.as_tuple()) is None:
                raise ValueError(f"ideal generator {g} is not weighted-homogeneous")


@dataclass
class Certificate:
    """Outcome of a verification run with its checkable data."""

    ok: bool
    dims: tuple  # (dim R_1, dim <B u {t}>, dim <B u {t,f}>)
    basis: list
    trace: list
    multiplicities: list
    warnings: list = field(default_factory=list)


def parse_instance(text):
    """Parse the plain-text instance format (weights:, vars:, ideal:, product:)."""
    weights = None
    variables = ("x", "y", "z")
    ideal_lines = []
    product_line = None
    seen = set()
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, value = line.partition(":")
        key = key.strip()
        value = value.strip()
        if key in seen:
            raise ValueError(f"repeated {key}: section")
        if key != "ideal":
            seen.add(key)
        if key == "weights":
            parts = value.split()
            if len(parts) != 3:
                raise ValueError(f"weights: needs exactly three integers, got {value!r}")
            weights = WeightTriple(*(int(p) for p in parts))
        elif key == "vars":
            variables = tuple(value.split())
        elif key == "ideal":
            ideal_lines.append(value)
        elif key == "product":
            product_line = value
        else:
            raise ValueError(f"unknown section {key!r}")
    if weights is None:
        raise ValueError("missing weights: section")
    if not ideal_lines:
        raise ValueError("missing ideal: sections")
    if product_line is None:
        raise ValueError("missing product: section")
    gens = [parse_poly(s, variables) for s in ideal_lines]
    product = parse_poly(product_line, variables)
    return BlowupInput(weights, variables, gens, product)


def rees_multiplicities(instance):
    """Exact Rees multiplicity of each ideal generator at the blown-up point."""
    return [mult.rees_multiplicity(instance.weights, g) for g in instance.ideal_gens]


def _rees_ring(instance, k):
    s_names = tuple(f"s{i + 1}" for i in range(k))
    return instance.variables + s_names + ("t",), s_names


def initial_basis(instance, mults):
    """B_0 = {t^{m_i} s_i - f_i} in the extended ring, plus that ring and names."""
    k = len(instance.ideal_gens)
    ring, s_names = _rees_ring(instance, k)
    basis = []
    nvars = len(instance.variables)
    for i, (f, m) in enumerate(zip(instance.ideal_gens, mults)):
        exp = [0] * len(ring)
        exp[nvars + i] = 1
        exp[-1] = m
        basis.append(SparsePoly.monomial(ring, exp) - f.rename_ring(ring))
    return ring, s_names, basis


def _degree_map(instance, mults, s_names):
    weights = instance.weights.as_tuple()
    dm = {v: (wv, 0) for v, wv in zip(instance.variables, weights)}
    for name, f, m in zip(s_names, instance.ideal_gens, mults):
        dm[name] = (f.weighted_degree(weights), -m)
    dm["t"] = (0, 1)
    return dm


def discover_saturation_element(gb, degree_map):
    """One element of (<B> : t) outside <B>, or None at the fixed point.

    `gb` is the reduced basis of <B>, t the last variable of its ring.  The
    candidates are the nonzero normal forms of the elements of the reduced
    basis of <B> : t, read off `gb` (`GroebnerBasis.quotient_by_last`); the
    returned element has minimal Z^2-degree under `degree_map`, with grevlex
    on the leading term breaking ties, whatever order `gb` is under: the
    choice decides the certificate.  An element of `gb` itself reduces to
    0, so it takes no normal form.
    """
    candidates = []
    for g in gb.quotient_by_last().elements_not_in(gb):
        r = groebner.normal_form(g, gb)
        if not r.is_zero():
            candidates.append(r.primitive())
    if not candidates:
        return None

    def sort_key(p):
        deg = p.multi_degree(degree_map)
        head = deg if deg is not None else (10 ** 9, 10 ** 9)
        return (head, grevlex_key(p.leading()[0]))

    return min(candidates, key=sort_key)


def verify(instance, discovery_budget=25, step_budget=groebner.DEFAULT_BUDGET):
    """Run the discovery loop until the dimension condition settles.

    Returns a Certificate: ok records whether some enlargement of B_0 meets
    dim(R_1) = dim(<B u {t}>) > dim(<B u {t,f}>); reaching the saturation
    fixed point without meeting it is a definitive negative; running out of
    discovery iterations raises DiscoveryBudgetExceeded.

    Each round adds one element to B, so the reduced basis of <B> (for the
    normal forms, and <B> : t read off it) is carried from round to round
    and extended by it.  dim(<B u {t}>) is the basis of <B> extended by t,
    and dim(<B u {t,f}>) that basis extended by f, computed only
    when dim(<B u {t}>) = dim(R_1), the one case in which the condition can
    hold, or at the fixed point, whose certificate records it.
    `step_budget` bounds the S-pair reductions of each Groebner computation;
    an extended basis counts only the pairs its new generators add.

    Every ideal here is Z^2-homogeneous under `_degree_map`, so all the
    Groebner work runs under weighted grevlex with the weight alpha*d + e of
    each variable's degree (d, e): (alpha*a, alpha*b, alpha*c,
    alpha*d_i - m_i, 1) on x, y, z, s_i, t, with alpha >= 1 the least that
    makes every weight with d > 0 positive.  The weight is linear in the
    degree, so the generators are homogeneous: Buchberger's pair order works
    degree by degree (the sugar strategy of Giovini-Mora-Niesi-Robbiano-
    Traverso, ISSAC 1991, is exact here), and <B> : t can be read off the
    basis of <B>, t being the last variable.
    """
    mults = rees_multiplicities(instance)
    warnings = []
    for f, m in zip(instance.ideal_gens, mults):
        if m == 0:
            warnings.append(f"generator {f} does not vanish at the point")
    ring, s_names, basis = initial_basis(instance, mults)
    degree_map = _degree_map(instance, mults, s_names)
    alpha = max([1] + [-e // d + 1 for d, e in degree_map.values() if d > 0])
    # an s_i of degree (0, 0), from a constant generator c, takes weight 1:
    # every element of a reduced basis but s_i - c is free of it
    weights = tuple(max(1, alpha * d + e) for d, e in map(degree_map.get, ring))
    t_poly = SparsePoly.variable(ring, "t")
    f_poly = instance.product.rename_ring(ring)
    dim_r1 = len(instance.variables)
    trace = []

    def extend(gb, gens):
        return groebner.buchberger(Ideal(ring, gens), weights=weights, step_budget=step_budget, start=gb)

    def dim_tf():
        return extend(gb_t, [f_poly]).dimension()

    gb = groebner.buchberger(Ideal(ring, basis), weights=weights, step_budget=step_budget)
    for _ in range(discovery_budget + 1):
        if trace:
            gb = extend(gb, trace[-1:])
        gb_t = extend(gb, [t_poly])
        dim_t = gb_t.dimension()
        dims = None
        if dim_t == dim_r1:
            dims = (dim_r1, dim_t, dim_tf())
            if dims[2] is None or dim_t > dims[2]:
                return Certificate(True, dims, list(basis), trace, mults, warnings)
        new = discover_saturation_element(gb, degree_map)
        if new is None:
            if dims is None:
                dims = (dim_r1, dim_t, dim_tf())
            return Certificate(False, dims, list(basis), trace, mults, warnings)
        basis.append(new)
        trace.append(new)
    raise DiscoveryBudgetExceeded(
        f"no verdict after {discovery_budget} discovery iterations"
    )


def certificate_text(cert):
    """Structured text form of a certificate."""
    lines = [
        f"verified: {cert.ok}",
        f"dims: {cert.dims[0]} {cert.dims[1]} {cert.dims[2]}",
        f"multiplicities: {' '.join(str(m) for m in cert.multiplicities)}",
        "basis:",
    ]
    for g in cert.basis:
        lines.append(f"  {g}")
    if cert.trace:
        lines.append("discovered:")
        for g in cert.trace:
            lines.append(f"  {g}")
    for wmsg in cert.warnings:
        lines.append(f"warning: {wmsg}")
    return "\n".join(lines)
