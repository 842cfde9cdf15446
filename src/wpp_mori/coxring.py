"""Cox ring presentations for the blow-up of P(a,b,c) at [1,1,1].

Covers the two solved generation regimes: one weight in the monoid of the
other two (a single trinomial relation in five generators), and the
multiplicity-two regime 2a = nb + mc with b >= 3m, c >= 3n (nine relations
in eight generators, with one generator of Rees multiplicity two).
"""

from dataclasses import dataclass
from itertools import permutations
from typing import Optional

from . import groebner, linalg, mult
from .poly import SparsePoly
from .weights import WeightTriple, monoid_member


class ParityError(ValueError):
    """An exponent of the form (c-n)/2 or (b-m)/2 failed to be an integer."""


@dataclass(frozen=True)
class TripleClass:
    """Classification of a weight triple with its witness data."""

    variant: str  # "KStar", "Mult2" or "Other"
    reordering: Optional[tuple] = None
    alpha: Optional[int] = None  # KStar: a = alpha*b + beta*c
    beta: Optional[int] = None
    n: Optional[int] = None  # Mult2: 2a = n*b + m*c
    m: Optional[int] = None

    @property
    def is_kstar(self):
        return self.variant == "KStar"

    @property
    def is_mult2(self):
        return self.variant == "Mult2"


@dataclass(frozen=True)
class CoxPresentation:
    """Generators with Z^2-degrees, Rees multiplicities, relations, sections.

    `sections` maps each generator to a concrete polynomial in K[x,y,z]
    realizing it (t maps to the formal exceptional parameter); relations are
    identities among the generators once t carries degree (0, 1).
    """

    variant: str
    weights: tuple  # reordered (a, b, c)
    generators: tuple
    degrees: dict  # name -> (H-degree, E-coefficient)
    rees: dict  # name -> Rees multiplicity (t carries -1)
    relations: tuple
    sections: dict  # name -> SparsePoly over ("x","y","z"); "t" excluded
    saturated_by: Optional[str] = None  # variable t when the ideal is I : t^oo
    toric: bool = False
    notes: tuple = ()


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass
class VerificationReport:
    checks: list

    @property
    def ok(self):
        return all(c.passed for c in self.checks)

    def failures(self):
        return [c for c in self.checks if not c.passed]


def classify(w):
    """Sort a triple into the KStar, Mult2 or Other regime with witnesses."""
    weights = w.as_tuple()
    kstar = []
    for i in range(3):
        a = weights[i]
        b, c = sorted(weights[:i] + weights[i + 1:])
        witness = monoid_member(a, b, c)
        if witness is not None:
            kstar.append((a, b, c, *witness))
    if kstar:
        a, b, c, alpha, beta = min(kstar)
        return TripleClass("KStar", reordering=(a, b, c), alpha=alpha, beta=beta)
    best = None
    for a, b, c in permutations(weights):
        for n in range(1, 2 * a // b + 1):
            rem = 2 * a - n * b
            if rem <= 0:
                break
            if rem % c:
                continue
            m = rem // c
            if b >= 3 * m and c >= 3 * n:
                cand = (a, n, b, c, m)
                if best is None or cand < best:
                    best = cand
    if best is not None:
        a, n, b, c, m = best
        return TripleClass("Mult2", reordering=(a, b, c), n=n, m=m)
    return TripleClass("Other")


def _half(value, what):
    if value < 0 or value % 2:
        raise ParityError(f"{what} = {value} is not an even non-negative integer")
    return value // 2


def kstar_presentation(w):
    """Five-generator presentation with the single relation T4*T5 - T1^c + T2^b."""
    cls = classify(w)
    if not cls.is_kstar:
        raise ValueError(f"{w.as_tuple()} is not in the KStar regime")
    a, b, c = cls.reordering
    gens = ("T1", "T2", "T3", "T4", "T5")
    R = gens
    t4t5 = SparsePoly.monomial(R, (0, 0, 0, 1, 1))
    t1c = SparsePoly.monomial(R, (c, 0, 0, 0, 0))
    t2b = SparsePoly.monomial(R, (0, b, 0, 0, 0))
    relation = t4t5 - t1c + t2b
    S = ("x", "y", "z")
    x = SparsePoly.variable(S, "x")
    y = SparsePoly.variable(S, "y")
    z = SparsePoly.variable(S, "z")
    sections = {
        "T1": y,
        "T2": z,
        "T3": x - y ** cls.alpha * z ** cls.beta,
        "T4": y ** c - z ** b,
    }
    return CoxPresentation(
        variant="KStar",
        weights=(a, b, c),
        generators=gens,
        degrees={
            "T1": (b, 0),
            "T2": (c, 0),
            "T3": (a, -1),
            "T4": (b * c, -1),
            "T5": (0, 1),
        },
        rees={"T1": 0, "T2": 0, "T3": 1, "T4": 1, "T5": -1},
        relations=(relation,),
        sections=sections,
        toric=1 in (a, b, c),
    )


def _mult2_halves(cls):
    """(c-n)/2, (b-m)/2, (c+n)/2, (b+m)/2, (c-3n)/2, (b-3m)/2 of a Mult2 class."""
    a, b, c = cls.reordering
    n, m = cls.n, cls.m
    return (
        _half(c - n, "c - n"),
        _half(b - m, "b - m"),
        _half(c + n, "c + n"),
        _half(b + m, "b + m"),
        _half(c - 3 * n, "c - 3n"),
        _half(b - 3 * m, "b - 3m"),
    )


def mult2_fs(cls):
    """The four distinguished forms f1..f4 in K[x,y,z] for a Mult2 `TripleClass`."""
    if not cls.is_mult2:
        raise ValueError("not in the Mult2 regime")
    cn2, bm2, cp2, bp2, c3n2, b3m2 = _mult2_halves(cls)
    n, m = cls.n, cls.m
    S = ("x", "y", "z")
    x = SparsePoly.variable(S, "x")
    y = SparsePoly.variable(S, "y")
    z = SparsePoly.variable(S, "z")
    f1 = x ** 2 - y ** n * z ** m
    f2 = x * z ** bm2 - y ** cp2
    f3 = x * y ** cn2 - z ** bp2
    f4 = x * y ** c3n2 * z ** b3m2 * f1 - y ** cn2 * f2 - z ** bm2 * f3
    return f1, f2, f3, f4


def mult2_presentation(w):
    """Eight-generator, nine-relation presentation for the 2a = nb + mc regime."""
    cls = classify(w)
    if not cls.is_mult2:
        raise ValueError(f"{w.as_tuple()} is not in the Mult2 regime")
    a, b, c = cls.reordering
    n, m = cls.n, cls.m
    cn2, bm2, _, _, c3n2, b3m2 = _mult2_halves(cls)
    R = ("x", "y", "z", "s1", "s2", "s3", "s4", "t")

    def mono(x=0, y=0, z=0, s1=0, s2=0, s3=0, s4=0, t=0, coeff=1):
        return SparsePoly.monomial(R, (x, y, z, s1, s2, s3, s4, t), coeff)

    f1, f2, f3, f4 = mult2_fs(cls)
    relations = tuple(
        f.rename_ring(R) - mono(**{s: 1}, t=1) for f, s in ((f1, "s1"), (f2, "s2"), (f3, "s3"))
    ) + (
        mono(x=1, y=c3n2, z=b3m2, s1=1) - mono(y=cn2, s2=1)
        - mono(z=bm2, s3=1) - mono(s4=1, t=1),
        mono(y=c3n2, z=b3m2, s1=2) - mono(s2=1, s3=1) - mono(x=1, s4=1),
        mono(y=cn2, s1=1) - mono(z=m, s2=1) - mono(x=1, s3=1),
        mono(z=bm2, s1=1) - mono(x=1, s2=1) - mono(y=n, s3=1),
        mono(s3=2) + mono(y=c3n2, s1=1, s2=1) - mono(z=m, s4=1),
        # the y-exponent n is forced by Z^2-homogeneity and the f-identity
        mono(s2=2) + mono(z=b3m2, s1=1, s3=1) - mono(y=n, s4=1),
    )
    S = ("x", "y", "z")
    sections = {
        "x": SparsePoly.variable(S, "x"),
        "y": SparsePoly.variable(S, "y"),
        "z": SparsePoly.variable(S, "z"),
        "s1": f1,
        "s2": f2,
        "s3": f3,
        "s4": f4,
    }
    return CoxPresentation(
        variant="Mult2",
        weights=(a, b, c),
        generators=R,
        degrees={
            "x": (a, 0),
            "y": (b, 0),
            "z": (c, 0),
            "s1": (2 * a, -1),
            "s2": (b * (c + n) // 2, -1),
            "s3": (c * (b + m) // 2, -1),
            "s4": (b * c, -2),
            "t": (0, 1),
        },
        rees={"x": 0, "y": 0, "z": 0, "s1": 1, "s2": 1, "s3": 1, "s4": 2, "t": -1},
        relations=relations,
        sections=sections,
        saturated_by="t",
        notes=("the y-exponent in the final relation is n, forced by homogeneity",),
    )


def chart_binomials(w):
    """Binomial generators of the ideal of [1,1,1] from the torus chart lattice."""
    S = ("x", "y", "z")
    out = []
    for vec in mult.chart_kernel_basis(w):
        plus = tuple(max(e, 0) for e in vec)
        minus = tuple(max(-e, 0) for e in vec)
        out.append(
            SparsePoly.monomial(S, plus) - SparsePoly.monomial(S, minus)
        )
    return out


def _unit_binomial(f):
    """The exponents (p, q) when f = +-(x^p - x^q) in K[x,y,z], else None."""
    if f.variables != ("x", "y", "z") or len(f.terms) != 2:
        return None
    (p, cp), (q, cq) = f.terms.items()
    if cp + cq != 0 or abs(cp) != 1:
        return None
    return p, q


def _lattice_basis_binomials(w, f1, f2):
    """True iff f1, f2 are binomials x^p - x^q whose exponent differences have cross product +-w.

    Then the differences u, v are a Z-basis of L = {e : w.e = 0}, so
    <f1,f2> : (xyz)^oo is the lattice ideal of L, the ideal of the point
    [1,1,1] (Sturmfels, "Groebner Bases and Convex Polytopes", ch. 12;
    Hosten-Sturmfels, IPCO 1995: I_L is the saturation by x1...xn of the
    binomials of any Z-basis of L).  Proof that u, v is a Z-basis:
    u x v = +-w != 0 makes u and v independent and orthogonal to w, so
    Zu + Zv is a sublattice of L of full rank.  For a primitive w,
    |u x v| = [L : Zu + Zv] * |w|, so the index is 1.  WeightTriple weights
    are pairwise coprime, so w is primitive.
    """
    vecs = []
    for f in (f1, f2):
        exps = _unit_binomial(f)
        if exps is None:
            return False
        p, q = exps
        vecs.append([i - j for i, j in zip(p, q)])
    a, b, c = w.as_tuple()
    return linalg.cross(*vecs) in ((a, b, c), (-a, -b, -c))


def _staircase_size(gens):
    """Number of monomials y^j z^k outside the monomial ideal <y^j z^k : (j, k) in gens>.

    None when it is infinite, that is unless a pure power of y and one of z
    occur.  The minimal generators, sorted by rising j, have falling k; the
    columns j_t <= j < j_(t+1) each hold k_t standard monomials.
    """
    stair = []
    for j, k in sorted(gens):
        if not stair or k < stair[-1][1]:
            stair.append((j, k))
    if stair[0][0] != 0 or stair[-1][1] != 0:
        return None
    return sum((j1 - j0) * k0 for (j0, k0), (j1, _) in zip(stair, stair[1:]))


def _lattice_ideal_by_count(w, f1, f2, f3):
    """True when a count certifies <f1,f2,f3> = I_L, the lattice ideal of L = {e : w.e = 0}.

    Lemma.  Let w = (a, b, c) be pairwise coprime and I = <f1,f2,f3>, where
    each f_i is a binomial x^p - x^q with coefficients 1 and -1 whose terms
    have the same weighted degree (so p - q lies in L and I lies in I_L),
    and suppose dim_K K[x,y,z]/(I + <x>) = a.  Then I = I_L.  Proof:
    K[x,y,z]/I_L is the semigroup ring K[t^a, t^b, t^c] of H = <a, b, c>,
    so K[x,y,z]/(I_L + <x>) has the basis t^h, h in the Apery set Ap(H, a),
    of size a (Herzog, Manuscripta Math. 3, 1970).  I + <x> lies in
    I_L + <x> and both quotients have dimension a, so the ideals are equal.
    Take a homogeneous g in I_L and write g = i + x*h with i in I and h
    homogeneous of lower degree.  Then x*h lies in I_L, which is prime and
    does not contain x, so h lies in I_L; by induction on the degree (graded
    Nakayama), g lies in I.

    The count: when each f_i has exactly one x-free term y^j z^k, I + <x> is
    <x> plus those monomials, and the dimension is `_staircase_size` of
    their exponents.  Any other shape returns False, which proves nothing.
    """
    weights = w.as_tuple()
    free = []
    for f in (f1, f2, f3):
        exps = _unit_binomial(f)
        if exps is None:
            return False
        p, q = exps
        if sum(u * e for u, e in zip(weights, p)) != sum(u * e for u, e in zip(weights, q)):
            return False
        x_free = [e[1:] for e in exps if e[0] == 0]
        if len(x_free) != 1:
            return False
        free.extend(x_free)
    return _staircase_size(free) == w.a


def verify_presentation(w, pres):
    """Run the mechanical checks on a constructed presentation.

    Checks: (1) Z^2-homogeneity of every relation; (2) section Rees
    multiplicities match the degree matrix; (3) relations vanish identically
    under section substitution with t = 1; and for the Mult2 variant
    (4) the saturation identity <f1,f2> : (xyz)^oo = <f1,f2,f3> = lattice
    ideal of the point; (5) f4 lies in (I^2 : J^oo) but not in I^2.
    In (4), when f1 and f2 are binomials of a Z-basis of the point's
    lattice (`_lattice_basis_binomials`), <f1,f2> : (xyz)^oo is that
    lattice ideal I_L by theorem (Hosten-Sturmfels), and when moreover
    f1, f2, f3 are binomials with dim K[x,y,z]/(<f1,f2,f3> + <x>) = a,
    <f1,f2,f3> = I_L by the lemma of `_lattice_ideal_by_count`: then (4)
    holds with no Groebner basis.  Otherwise <f1,f2> is saturated by xyz
    and its basis compared with that of <f1,f2,f3>, and without the Z-basis
    the chart binomials are saturated and compared too.  In (5), I^2 is
    homogeneous, so f4 in I^2 is decided by linear algebra in the one
    degree bc of f4 (`mult.in_ideal`); the multiplicity of f4 is the one
    check (2) found for s4, computed afresh only if (2) skipped s4.  When a
    section s1-s4 is not weighted-homogeneous, (5) fails without either
    computation.
    """
    checks = []
    wt = WeightTriple(*pres.weights)

    degree_map = {g: pres.degrees[g] for g in pres.generators}
    bad = []
    for i, rel in enumerate(pres.relations):
        if rel.multi_degree(degree_map) is None:
            bad.append(i)
    checks.append(
        CheckResult(
            "homogeneity",
            not bad,
            "all relations Z^2-homogeneous" if not bad
            else f"inhomogeneous relations at positions {bad}",
        )
    )

    bad = []
    multiplicities = {}
    for g in pres.generators:
        d, e = pres.degrees[g]
        if g not in pres.sections:
            if (d, e) != (0, 1) or pres.rees[g] != -1:
                bad.append(f"{g}: exceptional parameter must have degree (0,1)")
            continue
        if pres.rees[g] != -e:
            bad.append(f"{g}: Rees multiplicity {pres.rees[g]} != {-e}")
            continue
        sec = pres.sections[g]
        if sec.weighted_degree(wt.as_tuple()) != d:
            bad.append(f"{g}: section degree mismatch")
            continue
        actual = multiplicities[g] = mult.rees_multiplicity(wt, sec)
        if actual != pres.rees[g]:
            bad.append(f"{g}: section multiplicity {actual} != {pres.rees[g]}")
    checks.append(
        CheckResult(
            "rees_multiplicities",
            not bad,
            "; ".join(bad) if bad else "section multiplicities match the degree matrix",
        )
    )

    S = ("x", "y", "z")
    assignment = {
        g: pres.sections[g] if g in pres.sections else SparsePoly.constant(S, 1)
        for g in pres.generators
    }
    bad = []
    for i, rel in enumerate(pres.relations):
        if not rel.substitute(assignment).is_zero():
            bad.append(i)
    checks.append(
        CheckResult(
            "substitution_identities",
            not bad,
            "all relations vanish under the section map" if not bad
            else f"nonzero images at positions {bad}",
        )
    )

    if pres.variant == "Mult2":
        f1, f2, f3, f4 = (pres.sections[s] for s in ("s1", "s2", "s3", "s4"))
        basis12 = _lattice_basis_binomials(wt, f1, f2)
        if basis12 and _lattice_ideal_by_count(wt, f1, f2, f3):
            # <f1,f2> : (xyz)^oo = I_L = <f1,f2,f3>, both by theorem
            ok = ok2 = True
        else:
            xyz = SparsePoly.monomial(S, (1, 1, 1))
            sat12 = groebner.saturate(groebner.Ideal(S, [f1, f2]), xyz)
            gb123 = groebner.buchberger(groebner.Ideal(S, [f1, f2, f3]))
            # a saturation's generators are its reduced basis, so comparing
            # them with gb123's elements decides ideal equality
            ok = sat12.generators == gb123.elements
            if basis12:
                # then sat12 is the point lattice ideal itself
                ok2 = ok
            else:
                lattice = groebner.saturate(groebner.Ideal(S, chart_binomials(wt)), xyz)
                ok2 = lattice.generators == gb123.elements
        checks.append(
            CheckResult(
                "lattice_ideal_saturation",
                ok and ok2,
                "saturating <f1,f2> by xyz yields <f1,f2,f3> = point lattice ideal"
                if ok and ok2
                else f"saturation identity failed (f3: {ok}, lattice: {ok2})",
            )
        )

        inhomogeneous = [
            s for s, f in zip(("s1", "s2", "s3", "s4"), (f1, f2, f3, f4))
            if f.weighted_degree(wt.as_tuple()) is None
        ]
        if inhomogeneous:
            # I^2 and the multiplicity of f4 are taken for forms only
            check = CheckResult(
                "f4_between_powers", False, f"not weighted-homogeneous: {', '.join(inhomogeneous)}"
            )
        else:
            sq_gens = [f1 * f1, f1 * f2, f1 * f3, f2 * f2, f2 * f3, f3 * f3]
            in_square = mult.in_ideal(wt, sq_gens, f4)
            mu4 = multiplicities.get("s4")
            if mu4 is None:
                mu4 = mult.rees_multiplicity(wt, f4)
            check = CheckResult(
                "f4_between_powers",
                (not in_square) and mu4 == 2,
                f"f4 multiplicity {mu4}, in I^2: {in_square}",
            )
        checks.append(check)
    return VerificationReport(checks)


def presentation_text(pres):
    """Structured text form: generator table, then the relation list."""
    lines = [f"variant: {pres.variant}", f"weights: {pres.weights}"]
    if pres.saturated_by:
        lines.append(f"ideal saturated by: {pres.saturated_by}")
    lines.append("generators:")
    for g in pres.generators:
        d, e = pres.degrees[g]
        lines.append(f"  {g}  degree ({d}, {e})  rees {pres.rees[g]}")
    lines.append("relations:")
    for rel in pres.relations:
        lines.append(f"  {rel}")
    for note in pres.notes:
        lines.append(f"note: {note}")
    return "\n".join(lines)
