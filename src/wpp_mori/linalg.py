"""Exact integer linear algebra: a packed mod-p full-rank certificate, then
Bareiss elimination for rank and kernels, Smith normal form.

All matrices are lists of lists of Python ints (arbitrary precision).
No floating point anywhere.

The certificate packs a row mod p into one int, one 64-bit word per column,
the lowest column in the lowest word, and packs and unpacks it through
`array("Q")` in one step.  `array` stores words in the machine's byte order,
so on a big-endian machine they are byte-swapped to keep the lowest column in
the lowest word.
"""

import sys
from array import array
from math import gcd

# The certificate below is sound for every prime; this one is below 2^20, so
# a column fits one 64-bit word for every ncols < 2^23.
_PRIME = 1048573

_BIG_ENDIAN = sys.byteorder == "big"


def _pack(xs):
    """The int whose 64-bit words, lowest first, are the values xs."""
    words = array("Q", xs)
    if _BIG_ENDIAN:
        words.byteswap()
    return int.from_bytes(words.tobytes(), "little")


def _unpack(r, n):
    """The n lowest 64-bit words of r."""
    words = array("Q", r.to_bytes(8 * n, "little"))
    if _BIG_ENDIAN:
        words.byteswap()
    return words


def _full_rank_mod_p(rows, ncols, p=_PRIME):
    """True only if the integer matrix has full column rank mod p.

    The rank mod p never exceeds the rank over Q, so True proves that the
    right kernel is 0.  False proves nothing: p may divide every maximal
    minor, the matrix may have a kernel, or p may be too large to certify.

    Each row, reduced mod p, is packed into one int with one 64-bit word per
    column, the lowest column in the lowest word.  A pivot row is normalised
    once (unpacked, reduced and scaled by the inverse of its pivot); every
    other row clears its lowest word with one multiply-add,
    r + (p - f) * top, and then drops that word.  A row takes at most ncols
    such updates, each adding less than p^2 to a word, so every word stays
    below p + ncols * p^2.  When p + (ncols + 1) * p^2 reaches 2^64 a word
    could carry into the next one, and the answer is False.
    """
    if p + (ncols + 1) * p * p >= 1 << 64:
        return False
    mask = (1 << 64) - 1
    packed = [_pack([x % p for x in row]) for row in rows]
    for c in range(ncols):
        i = next((i for i, r in enumerate(packed) if (r & mask) % p), None)
        if i is None:
            return False
        if c == ncols - 1:
            # the last pivot needs no elimination below it
            return True
        top = packed.pop(i)
        inv = pow(top & mask, -1, p)
        top = _pack([x * inv % p for x in _unpack(top, ncols - c)])
        packed = [(r + (p - f) * top if (f := (r & mask) % p) else r) >> 64 for r in packed]
    return True


def _echelon(rows, ncols):
    """Fraction-free (Bareiss) row echelon form; returns (rows, pivot_cols).

    Row r has its leading entry in column pivot_cols[r].  Every entry is an
    integer minor of the input; the last pivot is, up to sign, the
    determinant of the square submatrix on the pivot rows and pivot columns.
    """
    m = [list(r) for r in rows]
    nrows = len(m)
    pivots = []
    prev = 1
    for c in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        piv = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        top = m[r]
        p = top[c]
        for i in range(r + 1, nrows):
            row = m[i]
            f = row[c]
            row[c + 1:] = [(p * x - f * y) // prev for x, y in zip(row[c + 1:], top[c + 1:])]
            row[c] = 0
        prev = p
        pivots.append(c)
    return m[:len(pivots)], pivots


def rank(rows):
    """Rank of an integer matrix: the number of Bareiss pivots."""
    return len(_echelon(rows, len(rows[0]) if rows else 0)[1])


def kernel_basis(rows, ncols):
    """Basis of the right kernel of an integer matrix.

    One primitive integer vector per free column of the echelon form: it is
    positive in that column and zero in every other free column.
    Deterministic given the input.  A matrix certified to have full column
    rank mod p has the empty basis; every other one is eliminated exactly.
    """
    if len(rows) >= ncols and _full_rank_mod_p(rows, ncols):
        return []
    m, pivots = _echelon(rows, ncols)
    pivot_set = set(pivots)
    # By Cramer's rule, scaling the free entry by the last pivot (up to sign
    # the determinant of the pivot block) makes every pivot entry an integer,
    # so each division in the back-substitution is exact.
    det = abs(m[-1][pivots[-1]]) if pivots else 1
    basis = []
    for fc in range(ncols):
        if fc in pivot_set:
            continue
        v = [0] * ncols
        v[fc] = det
        for row, pc in zip(reversed(m), reversed(pivots)):
            s = sum(x * y for x, y in zip(row[pc + 1:], v[pc + 1:]))
            v[pc] = -s // row[pc]
        g = gcd(*v)
        basis.append(tuple(x // g for x in v))
    return basis


def in_span(vectors, target):
    """True iff target lies in the rational span of the given integer vectors.

    One echelon of the matrix whose columns are the vectors, with the target
    last: the target is in the span iff its column is not a pivot column.
    """
    cols = list(vectors) + [target]
    return len(cols) - 1 not in _echelon(list(zip(*cols)), len(cols))[1]


def cross(u, v):
    """The cross product u x v of two integer 3-vectors."""
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def smith_normal_form(a):
    """Smith normal form with transforms: returns (d, u, v) with u*a*v = d.

    u and v are unimodular; d is diagonal with d[i][i] dividing d[i+1][i+1].
    """
    d = [list(r) for r in a]
    nrows = len(d)
    ncols = len(d[0]) if d else 0
    u = identity(nrows)
    v = identity(ncols)

    def swap_rows(i, j):
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in d:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, k):
        # row dst += k * row src
        d[dst] = [x + k * y for x, y in zip(d[dst], d[src])]
        u[dst] = [x + k * y for x, y in zip(u[dst], u[src])]

    def add_col(src, dst, k):
        for row in d:
            row[dst] += k * row[src]
        for row in v:
            row[dst] += k * row[src]

    def negate_row(i):
        d[i] = [-x for x in d[i]]
        u[i] = [-x for x in u[i]]

    t = 0
    while t < min(nrows, ncols):
        # find smallest-magnitude nonzero entry in the remaining block
        best = None
        for i in range(t, nrows):
            for j in range(t, ncols):
                if d[i][j] != 0 and (best is None or abs(d[i][j]) < abs(d[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        swap_rows(t, best[0])
        swap_cols(t, best[1])
        if d[t][t] < 0:
            negate_row(t)
        dirty = False
        for i in range(t + 1, nrows):
            if d[i][t] != 0:
                q = d[i][t] // d[t][t]
                add_row(t, i, -q)
                if d[i][t] != 0:
                    dirty = True
        for j in range(t + 1, ncols):
            if d[t][j] != 0:
                q = d[t][j] // d[t][t]
                add_col(t, j, -q)
                if d[t][j] != 0:
                    dirty = True
        if dirty:
            continue
        # enforce divisibility of later entries by d[t][t]
        offender = None
        for i in range(t + 1, nrows):
            for j in range(t + 1, ncols):
                if d[i][j] % d[t][t] != 0:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            add_row(offender, t, 1)
            continue
        t += 1
    return d, u, v
