"""Exact linear algebra over the rationals, computed on integers: the one
home of the exact kernels of the default engines and the cross-checks.

mat_mul, det, rank, solve, inverse and nullspace take Fraction matrices
(lists of row lists) and return canonical Fractions, exactly what rational
Gaussian elimination gives.  Inside, they clear denominators (a row, or a
column of a right factor, scaled by the lcm of its denominators) and work
on ints: dot products, Bareiss elimination for det, and fraction-free
Gauss-Jordan with gcd-reduced rows (`echelon`) for the rest.  The integer
kernels make no Fraction: `echelon` itself, which `linkinv` runs once per
letter on [M - I | C] for both closure engines, `int_mul`, `int_nullspace`
(the kernel read off one `echelon`) and `signature`, which clears a
Fraction matrix once (`cleared_matrix`) and takes ints as they are.  No
floating point is used anywhere.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd, lcm
from operator import attrgetter, mul

__all__ = [
    "frac_matrix",
    "identity",
    "zeros",
    "transpose",
    "mat_mul",
    "mat_add",
    "mat_scale",
    "hstack",
    "vstack",
    "int_mul",
    "cleared_matrix",
    "echelon",
    "det",
    "rank",
    "solve",
    "inverse",
    "nullspace",
    "int_nullspace",
    "signature",
    "is_symmetric",
    "is_skew",
]

Matrix = list[list[Fraction]]

_numerator = attrgetter("numerator")
_denominator = attrgetter("denominator")


def _cleared(row) -> tuple[list[int], int]:
    """(integer row, scale) with row == integer row / scale, scale > 0."""
    scale = lcm(*map(_denominator, row))
    if scale == 1:
        return list(map(_numerator, row)), 1
    return [x.numerator * (scale // x.denominator) for x in row], scale


def frac_matrix(rows) -> Matrix:
    return [[Fraction(x) for x in row] for row in rows]


def identity(n: int) -> Matrix:
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def zeros(rows: int, cols: int) -> Matrix:
    return [[Fraction(0)] * cols for _ in range(rows)]


def transpose(m: Matrix) -> Matrix:
    return [list(col) for col in zip(*m)]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    cols = [_cleared(col) for col in zip(*b)]
    out = []
    for row in a:
        ia, sa = _cleared(row)
        out.append([Fraction(sum(map(mul, ia, ib)), sa * sb) for ib, sb in cols])
    return out


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(a: Matrix, s) -> Matrix:
    s = Fraction(s)
    return [[x * s for x in row] for row in a]


def hstack(a: Matrix, b: Matrix) -> Matrix:
    return [ra + rb for ra, rb in zip(a, b)]


def vstack(a: Matrix, b: Matrix) -> Matrix:
    return [list(r) for r in a] + [list(r) for r in b]


def int_mul(a, b) -> list[list[int]]:
    """The product of two integer matrices."""
    cols = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in cols] for row in a]


def cleared_matrix(m) -> tuple[list[list[int]], int]:
    """(M, s) with m == M / s: M an int matrix, s > 0 one scale for all
    entries.  An all-int m is returned as it is, with s = 1."""
    if set(map(type, itertools.chain.from_iterable(m))) <= {int}:
        return m, 1
    s = lcm(*[x.denominator for row in m for x in row])
    return [[x.numerator * (s // x.denominator) for x in row] for row in m], s


def echelon(m: list[list[int]]) -> tuple[list[list[int]], list[int]]:
    """Fraction-free Gauss-Jordan of an integer matrix; returns (rows, pivot
    columns).

    m is not modified (returned rows the elimination never touched may be
    m's own row lists).  Rows the elimination rewrites are gcd-reduced.
    Row r < len(pivots) divided by its entry in column pivots[r] is row r
    of the reduced row echelon form; the remaining rows are zero.  Callers
    with Fraction rows clear them first (`_cleared`, `cleared_matrix`).
    """
    rows = list(m)
    nrows = len(rows)
    cols = len(rows[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, nrows) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        prow = rows[r]
        p = prow[c]
        for i in range(nrows):
            f = rows[i][c]
            if f and i != r:
                new = [p * x - f * y for x, y in zip(rows[i], prow)]
                g = gcd(*new)
                rows[i] = [x // g for x in new] if g > 1 else new
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots


def rank(m: Matrix) -> int:
    return len(echelon([_cleared(row)[0] for row in m])[1])


def det(m: Matrix) -> Fraction:
    """Bareiss elimination: every division is exact."""
    rows = []
    scale = 1
    for row in m:
        ir, s = _cleared(row)
        rows.append(ir)
        scale *= s
    n = len(rows)
    sign = 1
    prev = 1
    for c in range(n):
        pivot = next((i for i in range(c, n) if rows[i][c]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            rows[c], rows[pivot] = rows[pivot], rows[c]
            sign = -sign
        prow = rows[c]
        p = prow[c]
        for i in range(c + 1, n):
            f = rows[i][c]
            rows[i] = [(p * x - f * y) // prev for x, y in zip(rows[i], prow)]
        prev = p
    return Fraction(sign * prev, scale)


def solve(a: Matrix, b: Matrix) -> Matrix:
    """Solve a X = b for square invertible a (b may have many columns)."""
    n = len(a)
    rows, pivots = echelon([_cleared(ra + rb)[0] for ra, rb in zip(a, b)])
    if len(pivots) < n or pivots[-1] >= n:
        raise ValueError("matrix is singular")
    return [[Fraction(x, row[c]) for x in row[n:]] for row, c in zip(rows, pivots)]


def inverse(a: Matrix) -> Matrix:
    return solve(a, identity(len(a)))


def nullspace(m: Matrix) -> list[list[Fraction]]:
    """Basis of the right kernel."""
    rows = len(m)
    cols = len(m[0]) if rows else 0
    ech, pivots = echelon([_cleared(row)[0] for row in m])
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * cols
        v[fc] = Fraction(1)
        for row, pc in zip(ech, pivots):
            v[pc] = Fraction(-row[fc], row[pc])
        basis.append(v)
    return basis


def int_nullspace(m) -> list[list[int]]:
    """den times the `nullspace` basis of an integer matrix, as ints, read
    off one `echelon` of m: den > 0 is the lcm of the pivots, and the
    vector of free column f has den at f and -row[f] den / row[p] at each
    pivot column p."""
    cols = len(m[0]) if m else 0
    rows, pivots = echelon(m)
    den = lcm(*(row[p] for row, p in zip(rows, pivots)))
    basis = []
    for f in sorted(set(range(cols)).difference(pivots)):
        v = [0] * cols
        v[f] = den
        for row, p in zip(rows, pivots):
            v[p] = -row[f] * (den // row[p])
        basis.append(v)
    return basis


def signature(m: Matrix) -> int:
    """Signature of a symmetric rational matrix, exactly.

    Symmetric elimination on the integer matrix lcm(denominators) * m (an
    int matrix is taken as it is): a nonzero diagonal pivot contributes its
    sign; when the active diagonal is all zero, a nonzero off-diagonal entry
    spans a hyperbolic pair contributing zero.  Singular matrices are fine
    (the radical contributes nothing).  The Schur complement is scaled by
    |d| at a pivot d and by c^2 at a pair entry c; both are positive
    congruences, so the signature is unchanged.  As in Bareiss elimination,
    the previous scale then divides every entry exactly, which keeps the
    entries minors of the matrix; the new scale is |d|, or c^2 / prev at a
    pair.

    Rows are brought up to scale lazily.  A row that does not meet the pivot
    (a_ip = 0, or zero against both rows of a pair) is only multiplied by
    new scale / old scale, and along a run of such pivots the factors
    telescope: its true entries are its stored entries times scale_now /
    scale_then, scale_then being the scale the row was last written at.  So
    a step rewrites only the rows that meet the pivot, after one exact
    division brings each up to date.  A stale row differs from the true one
    by a positive factor, so it has the true zero pattern and signs, which is
    all the pivot search reads.  Rows keep their full width; the columns of
    eliminated pivots are zero in every active row.  A Seifert form has a
    few nonzeros per row, so few rows meet each pivot.
    """
    if not is_symmetric(m):
        raise ValueError("matrix is not symmetric")
    rows = list(cleared_matrix(m)[0])  # rows are replaced, never changed in place
    written = [1] * len(rows)  # the scale each row was last written at
    active = list(range(len(rows)))
    prev = 1
    sig = 0

    def current(i: int) -> list[int]:
        if written[i] != prev:
            rows[i] = [x * prev // written[i] for x in rows[i]]
            written[i] = prev
        return rows[i]

    while active:
        piv = next((i for i in active if rows[i][i]), None)
        if piv is not None:
            active.remove(piv)
            prow = current(piv)
            d = prow[piv]
            s = 1 if d > 0 else -1
            sig += s
            scale = s * d
            for i in active:
                f = s * prow[i]
                if f:
                    rows[i] = [(scale * x - f * y) // prev for x, y in zip(current(i), prow)]
                    written[i] = scale
            prev = scale
            continue
        pair = next(
            ((i, j) for i, j in itertools.combinations(active, 2) if rows[i][j]), None
        )
        if pair is None:
            break
        i0, j0 = pair
        active.remove(i0)
        active.remove(j0)
        r0, r1 = current(i0), current(j0)
        c = r0[j0]
        cc, pp = c * c, prev * prev
        scale = cc // prev
        for i in active:
            f0, f1 = c * r0[i], c * r1[i]
            if f0 or f1:
                rows[i] = [
                    (cc * x - f0 * y1 - f1 * y0) // pp
                    for x, y0, y1 in zip(current(i), r0, r1)
                ]
                written[i] = scale
        prev = scale
    return sig


def is_symmetric(m: Matrix) -> bool:
    """m equals its transpose: row i read as a tuple equals column i."""
    return all(tuple(row) == col for row, col in zip(m, zip(*m)))


def is_skew(m: Matrix) -> bool:
    return all(m[i][j] == -m[j][i] for i in range(len(m)) for j in range(len(m)))
