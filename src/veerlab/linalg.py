"""Exact linear algebra over the rationals, computed on integers.

Matrices are lists of row lists with Fraction entries.  The contract is
Fraction in and Fraction out: every entry returned is a canonical Fraction,
exactly the value rational Gaussian elimination gives.  Inside, products
and eliminations clear denominators (a row, or a column of a right
factor, is scaled by the lcm of its denominators) and work on Python
ints: integer dot products for mat_mul and mat_vec, Bareiss elimination
for det, and fraction-free Gauss-Jordan with gcd-reduced rows for rank,
solve, inverse and nullspace.  `particular_solution` is the one integer-in,
integer-out entry: it exposes that elimination to callers whose data are
integral, so they never build a Fraction.  No floating point is used
anywhere.
"""

from __future__ import annotations

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
    "mat_sub",
    "mat_scale",
    "mat_vec",
    "hstack",
    "vstack",
    "det",
    "rank",
    "solve",
    "inverse",
    "nullspace",
    "particular_solution",
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


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(a: Matrix, s) -> Matrix:
    s = Fraction(s)
    return [[x * s for x in row] for row in a]


def mat_vec(a: Matrix, v: list[Fraction]) -> list[Fraction]:
    iv, sv = _cleared(v)
    out = []
    for row in a:
        ia, sa = _cleared(row)
        out.append(Fraction(sum(map(mul, ia, iv)), sa * sv))
    return out


def hstack(a: Matrix, b: Matrix) -> Matrix:
    return [ra + rb for ra, rb in zip(a, b)]


def vstack(a: Matrix, b: Matrix) -> Matrix:
    return [list(r) for r in a] + [list(r) for r in b]


def _echelon(m: Matrix) -> tuple[list[list[int]], list[int]]:
    """Fraction-free Gauss-Jordan on a copy; returns (rows, pivot columns).

    Rows are integer and gcd-reduced.  Row r < len(pivots) divided by its
    entry in column pivots[r] is row r of the reduced row echelon form; the
    remaining rows are zero.
    """
    rows = [_cleared(row)[0] for row in m]
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
    return len(_echelon(m)[1])


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
    rows, pivots = _echelon(hstack(a, b))
    if len(pivots) < n or pivots[-1] >= n:
        raise ValueError("matrix is singular")
    return [[Fraction(x, row[c]) for x in row[n:]] for row, c in zip(rows, pivots)]


def inverse(a: Matrix) -> Matrix:
    return solve(a, identity(len(a)))


def nullspace(m: Matrix) -> list[list[Fraction]]:
    """Basis of the right kernel."""
    rows = len(m)
    cols = len(m[0]) if rows else 0
    ech, pivots = _echelon(m)
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * cols
        v[fc] = Fraction(1)
        for row, pc in zip(ech, pivots):
            v[pc] = Fraction(-row[fc], row[pc])
        basis.append(v)
    return basis


def particular_solution(a, b) -> tuple[list[int], int] | None:
    """One solution of a x = b for an integer matrix a and integer vector b.

    Returns (x, den) with a (x / den) = b, den > 0 and the free variables
    zero, or None when the system is inconsistent.  One fraction-free
    Gauss-Jordan of [a | b]; no Fraction is made.
    """
    cols = len(a[0]) if a else 0
    rows, pivots = _echelon([list(row) + [bi] for row, bi in zip(a, b)])
    if pivots and pivots[-1] == cols:
        return None
    den = lcm(*(row[c] for row, c in zip(rows, pivots)))
    x = [0] * cols
    for row, c in zip(rows, pivots):
        x[c] = row[cols] * (den // row[c])
    return x, den


def is_symmetric(m: Matrix) -> bool:
    """m equals its transpose: row i read as a tuple equals column i."""
    return all(tuple(row) == col for row, col in zip(m, zip(*m)))


def is_skew(m: Matrix) -> bool:
    return all(m[i][j] == -m[j][i] for i in range(len(m)) for j in range(len(m)))
