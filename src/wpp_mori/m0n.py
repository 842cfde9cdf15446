"""Integer-lattice verification of reductions from moduli lattices to P(a,b,c).

A reduction consists of a saturated rank-(n-5) sublattice N' of N = Z^{n-3}
generated by signed 0/1 vectors, three more such vectors v1, v2, v3 whose
images generate the quotient N/N' = Z^2, and weights (a,b,c) with
a*v1 + b*v2 + c*v3 in N'.  Everything is checked by Smith normal form.
"""

from dataclasses import dataclass
from math import gcd, prod
from typing import Optional

from . import linalg
from .weights import WeightTriple


@dataclass
class LatticeReduction:
    """Sublattice generators, the three projected vectors, optional weights."""

    generators: list  # vectors spanning N', as tuples in Z^{n-3}
    v1: tuple
    v2: tuple
    v3: tuple
    weights: Optional[tuple] = None

    @property
    def ambient_rank(self):
        return len(self.v1)

    @property
    def n(self):
        return self.ambient_rank + 3


def _signed_unit_vector(vec):
    """True iff all entries lie in {0,1} or all lie in {0,-1}."""
    vals = set(vec)
    return vals <= {0, 1} or vals <= {0, -1}


def parse_reduction(text):
    """Parse the plain-text format with sections kernel:, v:, weights:."""
    section = None
    kernel = []
    vs = []
    weights = None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.endswith(":"):
            section = line[:-1]
            if section not in ("kernel", "v", "weights"):
                raise ValueError(f"unknown section {section!r}")
            continue
        values = tuple(int(p) for p in line.split())
        if section == "kernel":
            kernel.append(values)
        elif section == "v":
            vs.append(values)
        elif section == "weights":
            if weights is not None:
                raise ValueError("repeated weights line")
            if len(values) != 3:
                raise ValueError("weights must be three integers")
            weights = WeightTriple(*values).as_tuple()
        else:
            raise ValueError("vector line before any section header")
    if not kernel:
        raise ValueError("missing kernel: section")
    if len(vs) != 3:
        raise ValueError(f"expected exactly 3 v-vectors, got {len(vs)}")
    lengths = {len(v) for v in kernel} | {len(v) for v in vs}
    if len(lengths) != 1:
        raise ValueError("vectors have inconsistent lengths")
    return LatticeReduction(kernel, vs[0], vs[1], vs[2], weights)


def _quotient_map(generators, ambient):
    """Columns-of-V chart for N/N': returns (projector rows, rank) or None.

    With U*G*V = D in Smith normal form, the map x -> last coordinates of
    x*V identifies N/N' with Z^{ambient-rank} exactly when all invariant
    factors are 1 (N' saturated).  No generators span N' = 0, saturated of
    rank 0, and the chart is the identity.
    """
    diagonal, v = linalg.smith_normal_form(generators) if generators else ([], linalg.identity(ambient))
    factors = [x for x in diagonal if x]
    rank = len(factors)
    if any(x != 1 for x in factors):
        return None, rank
    # x*V has the quotient coordinates in its last (ambient - rank) slots
    cols = [[v[r][j] for r in range(ambient)] for j in range(rank, ambient)]
    return cols, rank


def _project(cols, vec):
    return tuple(sum(c[i] * vec[i] for i in range(len(vec))) for c in cols)


def verify_reduction(r):
    """Check all reduction invariants; returns (ok, diagnostics)."""
    diags = []
    for vec in list(r.generators) + [r.v1, r.v2, r.v3]:
        if not _signed_unit_vector(vec):
            raise ValueError(f"vector {vec} is not a signed 0/1 vector")
    ambient = r.ambient_rank
    expected_rank = r.n - 5
    cols, rank = _quotient_map(r.generators, ambient)
    if rank != expected_rank:
        diags.append(f"sublattice rank {rank} != n-5 = {expected_rank}")
        return False, diags
    if cols is None:
        diags.append("sublattice is not saturated (invariant factor > 1)")
        return False, diags
    diags.append(f"sublattice saturated of rank {rank}")
    images = [_project(cols, v) for v in (r.v1, r.v2, r.v3)]
    invariants, _ = linalg.smith_normal_form(images)
    if sorted(x for x in invariants if x) != [1, 1]:
        diags.append(f"images do not generate the quotient: invariants {invariants}")
        return False, diags
    diags.append("projected vectors generate the quotient Z^2")
    if r.weights is None:
        diags.append("no weights given; congruence not checked")
        return True, diags
    a, b, c = r.weights
    combo = tuple(
        a * x + b * y + c * z for x, y, z in zip(r.v1, r.v2, r.v3)
    )
    if _project(cols, combo) != (0,) * (ambient - rank):
        diags.append(f"congruence fails: {a}*v1 + {b}*v2 + {c}*v3 not in N'")
        return False, diags
    diags.append(f"{a}*v1 + {b}*v2 + {c}*v3 lies in N'")
    return True, diags


def quotient_images(r):
    """2x3 matrix whose columns are the quotient images of v1, v2, v3."""
    cols, rank = _quotient_map(r.generators, r.ambient_rank)
    if cols is None or rank != r.n - 5 or r.ambient_rank - rank != 2:
        raise ValueError("reduction does not define a rank-2 quotient")
    images = [_project(cols, v) for v in (r.v1, r.v2, r.v3)]
    return [[w[0] for w in images], [w[1] for w in images]]


def unimodular_equivalent(m1, m2):
    """True iff m2 = T*m1 for some 2x2 integer T with det +-1.

    That holds iff m1 has rank 2 and the row lattices of m1 and m2 are
    equal.  For lattices L in M of equal rank, [M : L] = d(L)/d(M), d the
    product of the nonzero invariant factors; so the test is that m1, m2
    and m1 stacked on m2 all have rank 2 and the same d.
    """
    if len(m1) != 2 or len(m2) != 2 or len(m1[0]) != len(m2[0]):
        return False
    factors = [[x for x in linalg.smith_normal_form(m)[0] if x] for m in (m1, m2, [*m1, *m2])]
    return all(len(f) == 2 for f in factors) and len({prod(f) for f in factors}) == 1


def search_weights(r, bound):
    """All pairwise coprime positive (a,b,c) with max <= bound killing the images.

    The image matrix has rank 2, so its integer kernel is spanned by one
    primitive vector k (the cross product of the rows); solutions are its
    positive multiples.  Any two entries of lam * k share the factor lam,
    so only k itself can be pairwise coprime.
    """
    cross = linalg.cross(*quotient_images(r))
    g = gcd(*cross)
    if g == 0:
        return []
    k = tuple(x // g for x in cross)
    if all(x < 0 for x in k):
        k = tuple(-x for x in k)
    a, b, c = k
    if min(k) > 0 and max(k) <= bound and gcd(a, b) == gcd(b, c) == gcd(a, c) == 1:
        return [k]
    return []
