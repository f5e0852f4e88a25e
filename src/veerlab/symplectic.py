"""Exact rational symplectic objects and the cross-check engines.

Lagrangian frames, chart coordinates, the Maslov index of polynomial
Lagrangian paths, the ternary index of Lagrangian triples and the Meyer
cocycle in two forms, on the kernels of `linalg`; `signature` and
`verdict.BoundExceeded` are re-exported here as the same objects.  All of
it is exact; a Maslov index is a half-integer and admits no tolerance.

The chart engine serves general paths: the ternary-index lemma and the
cross-check of `linkinv.maslov_of_word`.  It subdivides a path until each
piece is transverse to a Lagrangian complement W of the reference
L0 = span U (certified by Sturm root counting on det Q) and sums the
half-signature differences of the chart matrix at the piece ends, which
may lie on the Maslov cycle of L0.  Charts are read from the pairings
P = U^T Omega F and Q = W^T Omega F of a frame F(t) of the path
(`chart_coordinates`), with no solve; every pool complement has
G = U^T Omega W = I, so a chart signature is sig(-Q^T P)
(`_chart_signature`).  The pool is the dual complement V, checked once,
and its shears U C + V, read off the pairings of U and V with no frame
(`_complement_pool`); a bespoke complement is built and checked when no
pool chart fits.  The two termination bounds (subdivision depth, the
search for a transverse complement) raise BoundExceeded, naming the bound.

Each object is validated once, on integers, with K = L Omega the form
cleared: a frame B is isotropic when B^T K B = 0, g = H / M is symplectic
when H^T K H = M^2 K, and a path segment F when F^T K F = 0 as integer
polynomials, its ranks and junctions read off its integer columns.  Paths
made by `LagrangianPath.reversed` and `concat` reuse that validation.
Each clearing is a positive rescaling, a congruence that moves no
signature.

The Meyer cocycle has a closed form in V (`meyer_closed_form`, the engine
for general pairs; braid closures use its rank-one specialization,
`linkinv.meyer_letter`) and the ternary index of graphs in the doubled
space V x V (`meyer`, the cross-check).  Both run on integers.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import factorial, gcd
from operator import mul

from veerlab import linalg, poly
from veerlab.linalg import Matrix, signature
from veerlab.poly import Poly
from veerlab.verdict import BoundExceeded

__all__ = [
    "SymplecticSpace",
    "LagrangianFrame",
    "LagrangianPath",
    "ChartMissError",
    "BoundExceeded",
    "signature",
    "chart_coordinates",
    "lagrangian_complement",
    "maslov_index",
    "ternary_index",
    "ternary_index_kernel",
    "meyer",
    "meyer_closed_form",
    "graph_lagrangian",
    "graph_path",
    "constant_poly_matrix",
]


class ChartMissError(Exception):
    """The Lagrangian is not transverse to the chart's complement."""


# Termination bounds of the chart engine.
_MAX_DEPTH = 64  # chart subdivision depth
_COMPLEMENT_TRIES = 60  # random symmetric matrices tried for a complement


@dataclass(frozen=True)
class SymplecticSpace:
    """An even-dimensional rational vector space with a symplectic form."""

    form: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        rows = tuple(tuple(Fraction(x) for x in row) for row in self.form)
        object.__setattr__(self, "form", rows)
        m = self.form_matrix()
        if len(m) % 2 != 0 or not linalg.is_skew(m):
            raise ValueError("form must be an even-size skew matrix")
        if linalg.det(m) == 0:
            raise ValueError("form is degenerate")

    @property
    def dim(self) -> int:
        return len(self.form)

    @property
    def n(self) -> int:
        return self.dim // 2

    def form_matrix(self) -> Matrix:
        return [list(row) for row in self.form]

    @staticmethod
    @lru_cache(maxsize=None)
    def standard(n: int) -> "SymplecticSpace":
        """omega = sum dx_i wedge dy_i: block form [[0, I], [-I, 0]], built
        and validated once per n."""
        form = [[Fraction(0)] * 2 * n for _ in range(2 * n)]
        for i in range(n):
            form[i][n + i] = Fraction(1)
            form[n + i][i] = Fraction(-1)
        return SymplecticSpace(tuple(tuple(row) for row in form))

    def doubled(self) -> "SymplecticSpace":
        """(V x V, omega + (-omega)), home of the graph Lagrangians."""
        return self._doubled

    @cached_property
    def _doubled(self) -> "SymplecticSpace":
        d = self.dim
        form = [[Fraction(0)] * 2 * d for _ in range(2 * d)]
        for i in range(d):
            for j in range(d):
                form[i][j] = self.form[i][j]
                form[d + i][d + j] = -self.form[i][j]
        return SymplecticSpace(tuple(tuple(row) for row in form))

    @cached_property
    def _int_form(self) -> tuple[int, list[list[int]], list[list[tuple[int, int]]]]:
        """(L, K, nonzeros): K = L * form as ints with L > 0, and nonzeros[r]
        the pairs (s, K[r][s]) with K[r][s] != 0."""
        k, scale = linalg.cleared_matrix(self.form)
        return scale, k, [[(s, f) for s, f in enumerate(row) if f] for row in k]

    def _gram(self, b) -> list[list[int]]:
        """B^T K B for an integer matrix B with dim rows: L omega(b_i, b_j)."""
        cols = list(zip(*b))
        return self._pair(cols, cols)

    def _pair(self, us, vs) -> list[list[int]]:
        """[u^T K v] = [L omega(u, v)] for integer vectors u in us, v in vs."""
        nonzeros = self._int_form[2]
        k_vs = [[sum(f * v[s] for s, f in nz) for nz in nonzeros] for v in vs]
        return [[sum(map(mul, u, kv)) for kv in k_vs] for u in us]

    def is_symplectic_matrix(self, g: Matrix) -> bool:
        """g^T Omega g == Omega, on integers: with g = H / M cleared,
        H^T K H == M^2 K."""
        d = self.dim
        if len(g) != d or any(len(row) != d for row in g):
            return False
        h, m = linalg.cleared_matrix(g)
        mm = m * m
        return self._gram(h) == [[mm * x for x in row] for row in self._int_form[1]]


@dataclass(frozen=True)
class LagrangianFrame:
    """A Lagrangian subspace, presented by a dim x n basis matrix."""

    space: SymplecticSpace
    basis: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        rows = tuple(
            tuple(x if type(x) is Fraction else Fraction(x) for x in row) for row in self.basis
        )
        object.__setattr__(self, "basis", rows)
        b = self.basis_matrix()
        if len(b) != self.space.dim or len(b[0]) != self.space.n:
            raise ValueError("frame must be dim x n")
        if linalg.rank(b) != self.space.n:
            raise ValueError("frame columns are dependent")
        if any(any(row) for row in self.space._gram(linalg.cleared_matrix(b)[0])):
            raise ValueError("frame is not isotropic")

    def basis_matrix(self) -> Matrix:
        return [list(row) for row in self.basis]


def frame(space: SymplecticSpace, basis: Matrix) -> LagrangianFrame:
    return LagrangianFrame(space, tuple(tuple(row) for row in basis))


def lagrangian_complement(lam: LagrangianFrame) -> LagrangianFrame:
    """A Lagrangian complement V of lam with omega(u_i, v_j) = delta_ij.

    The pairing R = U^T Omega (n x dim) has rank n and kernel lam itself, so
    unit vectors e_k complete the frame to a basis exactly when their
    columns of R are independent; the first such are the pivot columns K
    of R.  One fraction-free Gauss-Jordan of [R | I] gives the solution V0
    of R V0 = I that vanishes off the rows K: V0 = E_K (R E_K)^-1, the dual
    of the unit-vector completion.  Then kill the skew defect: if
    M = V0^T Omega V0, the correction V = V0 + U (M/2) is isotropic and
    keeps the duality pairing.
    """
    space = lam.space
    n, dim = space.n, space.dim
    r, den = _pairing(lam)
    rows, pivots = linalg.echelon(
        [row + [den * (i == j) for j in range(n)] for i, row in enumerate(r)]
    )
    if pivots[-1] >= dim:
        raise AssertionError("pairing of a Lagrangian frame has rank < n")
    v0 = linalg.zeros(dim, n)
    for row, p in zip(rows, pivots):
        v0[p] = [Fraction(x, row[p]) for x in row[dim:]]
    v0i, v0s = linalg.cleared_matrix(v0)
    half = 2 * space._int_form[0] * v0s * v0s
    m = [[Fraction(x, half) for x in row] for row in space._gram(v0i)]
    return frame(space, linalg.mat_add(v0, linalg.mat_mul(lam.basis_matrix(), m)))


def _pairing(lam: LagrangianFrame) -> tuple[list[list[int]], int]:
    """(R, s) with B^T Omega = R / s for the basis B of lam: row i of R / s
    is the functional omega(b_i, .)."""
    scale, k, _ = lam.space._int_form
    bi, s = linalg.cleared_matrix(lam.basis_matrix())
    return linalg.int_mul(zip(*bi), k), scale * s


def chart_coordinates(
    lam: LagrangianFrame, lam0: LagrangianFrame, lam0p: LagrangianFrame
) -> Matrix:
    """The symmetric A with lam = {y = A x} in (lam0, lam0p) coordinates.

    x runs along lam0 = span U and y along lam0p = span W, with W replaced
    by its omega-dual V = W G^-1, G = U^T Omega W, so that the graph matrix
    of a Lagrangian is symmetric.  Writing the basis of lam as F = U X + V Y,
    the pairings P = U^T Omega F and Q = W^T Omega F give Y = P and
    X = -G^-T Q, so A = Y X^-1 = -P Q^-1 G^T.  Raises ValueError when G is
    singular (lam0p is not a complement of lam0) and ChartMissError when Q
    is, i.e. when lam is not transverse to lam0p.
    """
    def pairing(frame_: LagrangianFrame) -> Matrix:
        rows, den = _pairing(frame_)
        return [[Fraction(x, den) for x in row] for row in rows]

    u_rows = pairing(lam0)
    g = linalg.mat_mul(u_rows, lam0p.basis_matrix())
    if linalg.det(g) == 0:
        raise ValueError("lam0 and lam0p are not complementary Lagrangians")
    f = lam.basis_matrix()
    p = linalg.mat_mul(u_rows, f)
    q = linalg.mat_mul(pairing(lam0p), f)
    try:
        z = linalg.solve(linalg.transpose(q), linalg.transpose(p))  # Q^-T P^T
    except ValueError:
        raise ChartMissError("Lagrangian meets the chart complement") from None
    a = linalg.mat_scale(linalg.transpose(linalg.mat_mul(g, z)), -1)
    if not linalg.is_symmetric(a):
        raise AssertionError("chart matrix is not symmetric")
    return a


# --- polynomial frames and paths -------------------------------------------

PolyMatrix = list[list[Poly]]
IntPolyMatrix = list[list[list[int]]]  # integer coefficient lists, low degree first


def constant_poly_matrix(m: Matrix) -> PolyMatrix:
    return [[poly.pconst(x) for x in row] for row in m]


def pm_eval(pm: PolyMatrix, t) -> Matrix:
    return [[poly.peval(entry, t) for entry in row] for row in pm]


def _int_columns(pm: PolyMatrix) -> list[list[list[int]]]:
    """Each column of a polynomial matrix times the positive lcm of its
    denominators, as integer coefficient lists padded with zeros to the
    column's longest entry."""
    cols = []
    for col in zip(*pm):
        ints = linalg.cleared_matrix(col)[0]
        width = max(map(len, ints), default=0)
        cols.append([list(e) + [0] * (width - len(e)) for e in ints])
    return cols


def _pm_left_mul(r: list[list[int]], cols) -> IntPolyMatrix:
    """R pm for an integer k x dim matrix R, with pm's integer columns
    (`_int_columns`) given as coefficient vectors: column j is s_j R pm_j,
    s_j > 0 the scale of pm_j, a coefficient list of pm_j's width."""
    return [[[sum(map(mul, row, ck)) for ck in coeffs] for coeffs in cols] for row in r]


def _ipm_eval(m: IntPolyMatrix, t) -> list[list[int]]:
    """m(t) times v^(w_j - 1) on column j, for t = u / v and w_j the width
    of column j: an integer matrix, a positive column scaling of m(t)."""
    u, v = t.numerator, t.denominator
    return [[poly.peval_homogeneous(c, u, v) for c in row] for row in m]


def _pm_isotropic(cols, space: SymplecticSpace) -> bool:
    """Exact check that F(t)^T Omega F(t) is the zero matrix of polys, on
    the integer columns f_i of F (`_int_columns`) and K = L Omega, positive
    factors that keep zero at zero.  f_i^T Omega f_i vanishes identically
    (Omega is skew), so the pairs i < j are checked, coefficient by
    coefficient."""
    nonzeros = space._int_form[2]
    for j, fj in enumerate(cols):
        width = len(fj[0])
        kf = [[sum(f * fj[s][c] for s, f in nz) for c in range(width)] for nz in nonzeros]
        for fi in cols[:j]:
            total = [0] * (len(fi[0]) + width)
            for p, q in zip(fi, kf):
                for a, x in enumerate(p):
                    if x:
                        for b, y in enumerate(q):
                            total[a + b] += x * y
            if any(total):
                return False
    return True


def _det_poly(m: IntPolyMatrix) -> Poly:
    """A positive multiple of the determinant of a square integer polynomial
    matrix, with integer coefficients.

    The determinant has degree at most D, the sum of the column degrees.
    Its values at t = 0, ..., D are Bareiss determinants, and Newton's
    forward differences Delta^k give D! det = sum_k Delta^k (D! / k!)
    t (t - 1) ... (t - k + 1), all in integers; the content is divided out.
    """
    bound = sum(
        max((k for row in m for k, x in enumerate(row[j]) if x), default=0)
        for j in range(len(m))
    )
    diffs = [linalg.det(_ipm_eval(m, t)).numerator for t in range(bound + 1)]
    coeffs = [0] * (bound + 1)
    falling = [1]  # t (t - 1) ... (t - k + 1), low degree first
    ratio = factorial(bound)  # D! / k!
    for k in range(bound + 1):
        if diffs[0]:
            for i, c in enumerate(falling):
                coeffs[i] += diffs[0] * ratio * c
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
        falling = [0] + falling
        for i in range(len(falling) - 1):
            falling[i] -= k * falling[i + 1]
        ratio //= k + 1
    content = gcd(*coeffs) or 1
    return poly.poly([c // content for c in coeffs])


def _at(cols, t) -> list[list[int]]:
    """F(t) on F's integer columns: a positive column scaling, same span."""
    return _ipm_eval(list(zip(*cols)), t)


@dataclass(frozen=True)
class LagrangianPath:
    """A piecewise-polynomial path of Lagrangians on [0, 1] per segment.

    Each segment F is checked once, on its integer columns: F is dim x n,
    isotropic as polynomials, of rank n at t = 0, 1/2 and 1, and F(0) spans
    the previous segment's F(1).  No frame is built: its Gram check at a
    sample would only repeat the polynomial isotropy.
    """

    space: SymplecticSpace
    segments: tuple

    def __post_init__(self):
        if not self.segments:
            raise ValueError("path needs at least one segment")
        object.__setattr__(
            self, "segments", tuple(tuple(tuple(row) for row in s) for s in self.segments)
        )
        dim, n = self.space.dim, self.space.n
        prev_end = None
        for seg in self.segments:
            if len(seg) != dim or any(len(row) != n for row in seg):
                raise ValueError("frame must be dim x n")
            cols = _int_columns(seg)
            if not _pm_isotropic(cols, self.space):
                raise ValueError("segment is not isotropic for all t")
            start, mid, end = (_at(cols, t) for t in (Fraction(0), Fraction(1, 2), Fraction(1)))
            if any(len(linalg.echelon(f)[1]) != n for f in (start, mid, end)):
                raise ValueError("frame columns are dependent")
            if prev_end is not None:
                _check_junction(prev_end, start)
            prev_end = end

    def segment_matrices(self) -> list[PolyMatrix]:
        return [[list(row) for row in seg] for seg in self.segments]

    def _derived(self, segments: tuple) -> "LagrangianPath":
        path = object.__new__(LagrangianPath)
        object.__setattr__(path, "space", self.space)
        object.__setattr__(path, "segments", segments)
        return path

    def reversed(self) -> "LagrangianPath":
        """Not re-validated: t -> 1 - t maps the samples {0, 1/2, 1} onto
        themselves, keeps isotropy identically in t, and meets the same
        junction pairs."""
        return self._derived(tuple(
            tuple(tuple(poly.pcompose_affine(e, 1, -1) for e in row) for row in seg)
            for seg in reversed(self.segments)
        ))

    def concat(self, other: "LagrangianPath") -> "LagrangianPath":
        """Both paths are validated, so only the new junction is checked."""
        if other.space != self.space:
            raise ValueError("paths live in different spaces")
        _check_junction(
            _at(_int_columns(self.segments[-1]), Fraction(1)),
            _at(_int_columns(other.segments[0]), Fraction(0)),
        )
        return self._derived(self.segments + other.segments)


def _check_junction(end: list[list[int]], start: list[list[int]]) -> None:
    if len(linalg.echelon([a + b for a, b in zip(end, start)])[1]) != len(end[0]):
        raise ValueError("segment endpoints do not match")


def _complement_pool(lam0: LagrangianFrame, u) -> list[list[list[int]]]:
    """Chart rows W^T Omega, each up to a positive factor, of complements
    of lam0 = span U (u = `_pairing(lam0)`): the dual complement V and its
    shears W = U C + V.

    Only V is a frame (`_chart` checks it).  A shear needs none: C = C^T
    is integral, U and V are Lagrangian and U^T Omega V = I, so
    W^T Omega W = C^T - C = 0 and U^T Omega W = I.  With U^T Omega =
    R_U / d_U and V^T Omega = R_V / d_V, its rows are
    d_U d_V W^T Omega = d_V C^T R_U + d_U R_V.
    """
    r_u, d_u = u
    r_v, d_v = _chart(u, lagrangian_complement(lam0))
    return [r_v] + [
        [[d_v * x + d_u * y for x, y in zip(cu, rv)] for cu, rv in zip(linalg.int_mul(c, r_u), r_v)]
        for c in _candidate_symmetrics(lam0.space.n)
    ]


def _candidate_symmetrics(n: int):
    """I, -I, 2I and diag(1, -1, 1, ...), as int matrices."""
    for diag in ([1] * n, [-1] * n, [2] * n, [1 - 2 * (i % 2) for i in range(n)]):
        yield [[d * (i == j) for j in range(n)] for i, d in enumerate(diag)]


def _bespoke_complement(lam0: LagrangianFrame, target: Matrix, rng) -> LagrangianFrame:
    """A Lagrangian complement of lam0 transverse to the target frame.

    Complements of lam0 are graphs over the dual complement, parametrized
    by symmetric matrices; a generic one is transverse to the target, so a
    bounded randomized search over small symmetric matrices succeeds.
    """
    space = lam0.space
    v = lagrangian_complement(lam0)
    u = lam0.basis_matrix()
    n = space.n
    candidates = itertools.chain(
        [linalg.zeros(n, n)],
        _candidate_symmetrics(n),
        _random_symmetrics(n, rng),
    )
    for c_mat in candidates:
        basis = linalg.mat_add(linalg.mat_mul(u, c_mat), v.basis_matrix())
        if linalg.det(linalg.hstack(target, basis)) != 0:
            return frame(space, basis)
    raise BoundExceeded(
        "transverse complement search: none among the candidate shears and "
        f"{_COMPLEMENT_TRIES} random symmetric matrices"
    )


def _random_symmetrics(n: int, rng: random.Random):
    for k in range(_COMPLEMENT_TRIES):
        bound = 2 + k // 10
        m = linalg.zeros(n, n)
        for i in range(n):
            for j in range(i, n):
                m[i][j] = m[j][i] = Fraction(rng.randint(-bound, bound))
        yield m


def _chart(u, complement: LagrangianFrame):
    """`_pairing(complement)` for a complement W of lam0 = span U (u is
    lam0's pairing), after checking G = U^T Omega W = I, which the chart
    signatures rely on.  The dual and bespoke complements pass here."""
    (r, den), (wi, ws) = u, linalg.cleared_matrix(complement.basis_matrix())
    unit = den * ws
    if linalg.int_mul(r, wi) != [[unit * (i == j) for j in range(len(r))] for i in range(len(r))]:
        raise AssertionError("pool complement is not omega-dual to the reference")
    return _pairing(complement)


def maslov_index(path: LagrangianPath, lam0: LagrangianFrame) -> Fraction:
    """Robbin-Salamon Maslov index of the path relative to lam0.

    Chartwise half-signature differences; subdivision and chart choice are
    certified with exact root counting, so the result is exact.
    """
    if path.space != lam0.space:
        raise ValueError("path and reference live in different spaces")
    u = _pairing(lam0)
    pool = _complement_pool(lam0, u)
    rng = random.Random(20570)
    return Fraction(sum(_segment_index(seg, lam0, u, pool, rng) for seg in path.segments), 2)


def _segment_index(seg: PolyMatrix, lam0: LagrangianFrame, u, pool, rng) -> int:
    """Twice the Maslov index of one segment F: a sum over chart pieces
    [a, b] of sig(-Q^T P)(b) - sig(-Q^T P)(a), where P = U^T Omega F and
    Q = W^T Omega F are built once per chart as n x n integer polynomial
    matrices (up to the same positive factor per column), and the chart is
    certified by Sturm root counting on det Q: det[F | W] = +-det[U | W]
    det X with Q = -G^T X.  F's columns are cleared once, for P and every
    Q."""
    cols = [list(zip(*ints)) for ints in _int_columns(seg)]
    charts: dict[int, tuple[IntPolyMatrix, Poly]] = {}  # pool index -> (Q, det Q)

    def chart(idx: int) -> tuple[IntPolyMatrix, Poly]:
        if idx not in charts:
            q = _pm_left_mul(pool[idx], cols)
            charts[idx] = (q, _det_poly(q))
        return charts[idx]

    p = None
    total = 0
    stack = [(Fraction(0), Fraction(1), 0)]
    while stack:
        a, b, depth = stack.pop()
        if depth > _MAX_DEPTH:
            raise BoundExceeded(f"chart subdivision depth exceeded {_MAX_DEPTH}")
        found = None
        for idx in range(len(pool)):
            q, d = chart(idx)
            if poly.is_zero(d) or poly.has_root_in_closed(d, a, b):
                continue
            found = q
            break
        if found is not None:
            if p is None:
                p = _pm_left_mul(u[0], cols)
            total += _chart_signature(found, p, b)
            total -= _chart_signature(found, p, a)
            continue
        mid = (a + b) / 2
        pool.append(_chart(u, _bespoke_complement(lam0, pm_eval(seg, mid), rng))[0])
        stack.append((mid, b, depth + 1))
        stack.append((a, mid, depth + 1))
    return total


def _chart_signature(q: IntPolyMatrix, p: IntPolyMatrix, t: Fraction) -> int:
    """sig A(t) of the chart matrix A = -P Q^-1 at t, as sig(-Q^T P)(t).

    With G = I, X = -Q is invertible on the chart piece and X^T A X = -Q^T P,
    a congruence.  q and p, evaluated on integers, are P(t) and Q(t) up to
    positive scalars and the same positive factor per column, so q^T p is
    Q^T P up to a congruence by a positive diagonal matrix: the same
    signature, and symmetric exactly when Q^T P is.  F(t) needs no frame
    check: `LagrangianPath` checked its isotropy as polynomials, and det Q
    has no root on the piece, so Q(t) = W^T Omega F(t) is invertible and
    F(t) has rank n.
    """
    qtp = linalg.int_mul(zip(*_ipm_eval(q, t)), _ipm_eval(p, t))
    if not linalg.is_symmetric(qtp):
        raise AssertionError("chart matrix is not symmetric")
    return -signature(qtp)


# --- ternary index and the Meyer cocycle ------------------------------------


def _ternary(space: SymplecticSpace, f1, f2, f3) -> int:
    """`ternary_index` on integer bases (lists of rows).  For (a, b, c) in
    ker[f1 | f2 | -f3], v = f3 c and v2 = f2 b; the vectors whose z-parts c
    are independent (the pivot columns of the z-parts) give a basis."""
    n = space.n
    null = linalg.int_nullspace([r1 + r2 + [-x for x in r3] for r1, r2, r3 in zip(f1, f2, f3)])
    picked = linalg.echelon([list(z) for z in zip(*(v[2 * n :] for v in null))])[1]
    chosen = [null[j] for j in picked]
    vs = [[sum(map(mul, row, v[2 * n :])) for row in f3] for v in chosen]
    v2s = [[sum(map(mul, row, v[n : 2 * n])) for row in f2] for v in chosen]
    q = space._pair(v2s, vs)
    if not linalg.is_symmetric(q):
        raise AssertionError("ternary form is not symmetric")
    return signature(q)


def ternary_index(
    l1: LagrangianFrame, l2: LagrangianFrame, l3: LagrangianFrame
) -> int:
    """Signature of Q(v, w) = omega(v2, w) on (L1 + L2) intersect L3,
    where v = v1 + v2 with v1 in L1, v2 in L2.  On the cleared bases."""
    space = l1.space
    if l2.space != space or l3.space != space:
        raise ValueError("frames live in different spaces")
    return _ternary(space, *(linalg.cleared_matrix(f.basis)[0] for f in (l1, l2, l3)))


def ternary_index_kernel(
    l1: LagrangianFrame, l2: LagrangianFrame, l3: LagrangianFrame
) -> int:
    """Second definition: signature of Q' on the kernel triple space
    {(v1, v2, v3) : v1 + v2 + v3 = 0}, Q' = omega(v1, w3).  On the cleared
    bases."""
    space = l1.space
    f1, f2, f3 = (linalg.cleared_matrix(f.basis)[0] for f in (l1, l2, l3))
    n = space.n
    null = linalg.int_nullspace([r1 + r2 + r3 for r1, r2, r3 in zip(f1, f2, f3)])
    v1s = [[sum(map(mul, row, v[:n])) for row in f1] for v in null]
    v3s = [[sum(map(mul, row, v[2 * n :])) for row in f3] for v in null]
    q = space._pair(v1s, v3s)
    if not linalg.is_symmetric(q):
        raise AssertionError("kernel ternary form is not symmetric")
    return signature(q)


def graph_lagrangian(space: SymplecticSpace, g: Matrix) -> LagrangianFrame:
    """The graph {(v, g v)} as a Lagrangian of (V x V, omega + (-omega))."""
    if not space.is_symplectic_matrix(g):
        raise ValueError("matrix does not preserve the form")
    top = linalg.identity(space.dim)
    return frame(space.doubled(), linalg.vstack(top, g))


def graph_path(space: SymplecticSpace, matrix_segments) -> LagrangianPath:
    """Graph path of a polynomial path of symplectic matrices."""
    top = constant_poly_matrix(linalg.identity(space.dim))
    segs = []
    for seg in matrix_segments:
        segs.append([list(row) for row in top] + [list(row) for row in seg])
    return LagrangianPath(space.doubled(), tuple(segs))


def meyer(space: SymplecticSpace, g1: Matrix, g2: Matrix) -> int:
    """Meyer cocycle: ternary index of the graphs of id, g1, g1 g2 in the
    doubled space.

    g1 and g2 are validated once.  Graphs of symplectic g are Lagrangian:
    [I; g]^T (Omega + -Omega) [I; g] = Omega - g^T Omega g = 0, and the
    identity block has rank d.  So the integer graph bases [m I; H] of I,
    g1 = H1 / m1 and g1 g2 = H1 H2 / (m1 m2) need no frame.
    """
    for g in (g1, g2):
        if not space.is_symplectic_matrix(g):
            raise ValueError("matrix does not preserve the form")
    d = space.dim
    (h1, m1), (h2, m2) = linalg.cleared_matrix(g1), linalg.cleared_matrix(g2)

    def graph(h, m: int) -> list[list[int]]:
        return [[m * (i == j) for j in range(d)] for i in range(d)] + [list(r) for r in h]

    ident = [[int(i == j) for j in range(d)] for i in range(d)]
    return _ternary(
        space.doubled(), graph(ident, 1), graph(h1, m1), graph(linalg.int_mul(h1, h2), m1 * m2)
    )


def meyer_closed_form(space: SymplecticSpace, g1: Matrix, g2: Matrix) -> int:
    """Meyer cocycle of (A, B) = (g1, g2) by Turaev's closed form, in V.

    The signature of the form omega(x1 + y1, (I - B) y2) on
    W = {(x, y) in V x V : (A^-1 - I) x + (B - I) y = 0}.  The form is
    symmetric on W (Meyer), which is asserted, so its symmetrization is
    itself.  The value equals `meyer` (the ternary index of graphs in
    V x V) for every symplectic pair; the meyer-cocycle sweep checks that.

    On integers, with no inverse: x = A x' gives W = {(A x', y) :
    (I - A) x' + (B - I) y = 0}, so for A = H1 / m1, B = H2 / m2 cleared,
    (x', y) runs over ker[m2 (m1 I - H1) | m1 (H2 - m2 I)], and
    q = (H1 x' + m1 y)^T K (H2 - m2 I) y' = L m1 m2 omega(x + y, (B - I) y').
    (x', y) -> (A x', y) is an isomorphism onto W; it, the positive scalar
    and the positive factors of the kernel vectors are congruences, so the
    value is -sig(q).  Int matrices (`burau_matrix` tuples) are accepted.
    """
    for g in (g1, g2):
        if not space.is_symplectic_matrix(g):
            raise ValueError("matrix does not preserve the form")
    d = space.dim
    (h1, m1), (h2, m2) = linalg.cleared_matrix(g1), linalg.cleared_matrix(g2)
    w = linalg.int_nullspace(
        [
            [m2 * (m1 * (i == j) - x) for j, x in enumerate(r1)]
            + [m1 * (y - m2 * (i == j)) for j, y in enumerate(r2)]
            for i, (r1, r2) in enumerate(zip(h1, h2))
        ]
    )
    left, right = [], []
    for v in w:
        x, y = v[:d], v[d:]
        left.append([sum(map(mul, row, x)) + m1 * yi for row, yi in zip(h1, y)])
        right.append([sum(map(mul, row, y)) - m2 * yi for row, yi in zip(h2, y)])
    q = space._pair(left, right)
    if not linalg.is_symmetric(q):
        raise AssertionError("Meyer form is not symmetric")
    return -signature(q)
