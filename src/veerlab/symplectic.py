"""Exact rational symplectic linear algebra.

Lagrangian frames, chart coordinates, signatures of symmetric forms, the
Maslov index of piecewise-polynomial Lagrangian paths, the ternary index of
Lagrangian triples, and the Meyer cocycle in two forms.  Everything is
computed over the rationals; a Maslov index is a half-integer and admits no
tolerance.

The chart engine serves general paths: the ternary-index lemma on rational
frames, Meyer values from lifts, and the cross-check of the braid-lift
Maslov index (which `linkinv.maslov_of_word` computes by crossing counts in
V itself).  The Maslov index of a path gamma with respect to a reference
Lagrangian L0 is computed chartwise: subdivide until each piece is
transverse to some Lagrangian complement L0' of L0 (certified exactly by Sturm root counting
of the transversality determinant), write the piece as graphs {y = A(t) x}
in the dual coordinates of (L0, L0'), and sum the half-signature
differences of A at the piece endpoints.  Endpoints may lie on the Maslov
cycle of L0 (singular A is fine); only transversality to L0' is required.
Its two termination bounds (subdivision depth, the search for a transverse
complement) raise BoundExceeded, naming the bound.

The Meyer cocycle has a closed form in V (`meyer_closed_form`, the engine
for general pairs; braid closures use its rank-one specialization,
`linkinv.meyer_letter`) and the ternary index of graphs in the doubled
space V x V (`meyer`, the cross-check).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm

from veerlab import linalg, poly
from veerlab.linalg import Matrix
from veerlab.poly import Poly

__all__ = [
    "SymplecticSpace",
    "LagrangianFrame",
    "LagrangianPath",
    "ChartMissError",
    "BoundExceeded",
    "signature",
    "symmetric_form",
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


class BoundExceeded(RuntimeError):
    """A termination bound of the chart engine was hit; the message names it."""


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

    def omega(self, u: list[Fraction], v: list[Fraction]) -> Fraction:
        return sum(
            ui * sum(f * vj for f, vj in zip(row, v))
            for ui, row in zip(u, self.form)
        )

    @classmethod
    def standard(cls, n: int) -> "SymplecticSpace":
        """omega = sum dx_i wedge dy_i: block form [[0, I], [-I, 0]]."""
        form = [[Fraction(0)] * 2 * n for _ in range(2 * n)]
        for i in range(n):
            form[i][n + i] = Fraction(1)
            form[n + i][i] = Fraction(-1)
        return cls(tuple(tuple(row) for row in form))

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

    def is_symplectic_matrix(self, g: Matrix) -> bool:
        omega = self.form_matrix()
        return linalg.mat_mul(linalg.mat_mul(linalg.transpose(g), omega), g) == omega


@dataclass(frozen=True)
class LagrangianFrame:
    """A Lagrangian subspace, presented by a dim x n basis matrix."""

    space: SymplecticSpace
    basis: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        rows = tuple(tuple(Fraction(x) for x in row) for row in self.basis)
        object.__setattr__(self, "basis", rows)
        b = self.basis_matrix()
        if len(b) != self.space.dim or len(b[0]) != self.space.n:
            raise ValueError("frame must be dim x n")
        if linalg.rank(b) != self.space.n:
            raise ValueError("frame columns are dependent")
        omega = self.space.form_matrix()
        prod = linalg.mat_mul(linalg.mat_mul(linalg.transpose(b), omega), b)
        if any(any(x != 0 for x in row) for row in prod):
            raise ValueError("frame is not isotropic")

    def basis_matrix(self) -> Matrix:
        return [list(row) for row in self.basis]

    def same_subspace(self, other: "LagrangianFrame") -> bool:
        stacked = linalg.hstack(self.basis_matrix(), other.basis_matrix())
        return linalg.rank(stacked) == self.space.n


def frame(space: SymplecticSpace, basis: Matrix) -> LagrangianFrame:
    return LagrangianFrame(space, tuple(tuple(row) for row in basis))


def symmetric_form(rows) -> Matrix:
    m = linalg.frac_matrix(rows)
    if not linalg.is_symmetric(m):
        raise ValueError("matrix is not symmetric")
    return m


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
    if not linalg.is_symmetric(m):
        raise ValueError("matrix is not symmetric")
    den = lcm(*[x.denominator for row in m for x in row])
    rows = [[x.numerator * (den // x.denominator) for x in row] for row in m]
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


def lagrangian_complement(lam: LagrangianFrame) -> LagrangianFrame:
    """A Lagrangian complement V of lam with omega(u_i, v_j) = delta_ij.

    Complete the frame to a basis with unit vectors, dualize against the
    frame, then kill the skew defect: if M = V0^T Omega V0, the correction
    V = V0 + U (M/2) is isotropic and keeps the duality pairing.
    """
    space = lam.space
    u = lam.basis_matrix()
    n = space.n
    cols = [[row[j] for row in u] for j in range(n)]
    chosen: list[list[Fraction]] = []
    for k in range(space.dim):
        e = [Fraction(int(i == k)) for i in range(space.dim)]
        test = cols + chosen + [e]
        if linalg.rank([list(r) for r in zip(*test)]) == len(test):
            chosen.append(e)
        if len(chosen) == n:
            break
    w = [list(r) for r in zip(*chosen)]
    omega = space.form_matrix()
    d = linalg.mat_mul(linalg.mat_mul(linalg.transpose(u), omega), w)
    v0 = linalg.mat_mul(w, linalg.inverse(d))
    m = linalg.mat_mul(linalg.mat_mul(linalg.transpose(v0), omega), v0)
    v = linalg.mat_add(v0, linalg.mat_mul(u, linalg.mat_scale(m, Fraction(1, 2))))
    return frame(space, v)


def chart_coordinates(
    lam: LagrangianFrame, lam0: LagrangianFrame, lam0p: LagrangianFrame
) -> Matrix:
    """The symmetric A with lam = {y = A x} in (lam0, lam0p) coordinates.

    x runs along lam0 and y along lam0p, with the lam0p basis replaced by
    its omega-dual so that the graph matrix of a Lagrangian is symmetric.
    Raises ChartMissError when lam is not transverse to lam0p.
    """
    space = lam.space
    u = lam0.basis_matrix()
    w = lam0p.basis_matrix()
    omega = space.form_matrix()
    g = linalg.mat_mul(linalg.mat_mul(linalg.transpose(u), omega), w)
    try:
        v = linalg.mat_mul(w, linalg.inverse(g))
    except ValueError:
        raise ValueError("lam0 and lam0p are not complementary Lagrangians")
    coords = linalg.solve(linalg.hstack(u, v), lam.basis_matrix())
    n = space.n
    x = coords[:n]
    y = coords[n:]
    try:
        x_inv = linalg.inverse(x)
    except ValueError:
        raise ChartMissError("Lagrangian meets the chart complement") from None
    a = linalg.mat_mul(y, x_inv)
    if not linalg.is_symmetric(a):
        raise AssertionError("chart matrix is not symmetric")
    return a


# --- polynomial frames and paths -------------------------------------------

PolyMatrix = list[list[Poly]]


def constant_poly_matrix(m: Matrix) -> PolyMatrix:
    return [[poly.pconst(x) for x in row] for row in m]


def pm_eval(pm: PolyMatrix, t) -> Matrix:
    return [[poly.peval(entry, t) for entry in row] for row in pm]


def pm_hstack(a: PolyMatrix, b: PolyMatrix) -> PolyMatrix:
    return [ra + rb for ra, rb in zip(a, b)]


def _pm_isotropic(seg: PolyMatrix, space: SymplecticSpace) -> bool:
    """Exact check that seg(t)^T Omega seg(t) is the zero matrix of polys."""
    omega = space.form_matrix()
    dim, cols = len(seg), len(seg[0])
    for i in range(cols):
        for j in range(i, cols):
            total = poly.pzero()
            for r in range(dim):
                for s in range(dim):
                    if omega[r][s]:
                        total = poly.padd(
                            total,
                            poly.pscale(poly.pmul(seg[r][i], seg[s][j]), omega[r][s]),
                        )
            if not poly.is_zero(total):
                return False
    return True


def _det_poly(pm: PolyMatrix) -> Poly:
    """Determinant of a square polynomial matrix, by interpolation."""
    bound = sum(
        max((poly.degree(pm[i][j]) for i in range(len(pm))), default=0)
        for j in range(len(pm))
    )
    bound = max(bound, 0)
    points = [Fraction(k) for k in range(bound + 1)]
    values = [linalg.det(pm_eval(pm, t)) for t in points]
    return _interpolate(points, values)


def _interpolate(points: list[Fraction], values: list[Fraction]) -> Poly:
    total = poly.pzero()
    for i, (xi, yi) in enumerate(zip(points, values)):
        if yi == 0:
            continue
        term = poly.pconst(yi)
        for j, xj in enumerate(points):
            if j != i:
                term = poly.pscale(poly.pmul(term, poly.poly([-xj, 1])), Fraction(1, xi - xj))
        total = poly.padd(total, term)
    return total


@dataclass(frozen=True)
class LagrangianPath:
    """A piecewise-polynomial path of Lagrangians on [0, 1] per segment."""

    space: SymplecticSpace
    segments: tuple

    def __post_init__(self):
        if not self.segments:
            raise ValueError("path needs at least one segment")
        object.__setattr__(
            self, "segments", tuple(tuple(tuple(e for e in row) for row in s) for s in self.segments)
        )
        prev_end = None
        for seg in self.segment_matrices():
            # Isotropy must hold identically in t: F(t)^T Omega F(t) = 0
            # as polynomials, checked exactly.
            if not _pm_isotropic(seg, self.space):
                raise ValueError("segment is not isotropic for all t")
            for t in (Fraction(0), Fraction(1, 2), Fraction(1)):
                f = frame(self.space, pm_eval(seg, t))  # rank check at samples
                if t == 0 and prev_end is not None and not f.same_subspace(prev_end):
                    raise ValueError("segment endpoints do not match")
            prev_end = f  # the t = 1 frame

    def segment_matrices(self) -> list[PolyMatrix]:
        return [[[entry for entry in row] for row in seg] for seg in self.segments]

    def reversed(self) -> "LagrangianPath":
        segs = []
        for seg in reversed(self.segment_matrices()):
            segs.append(
                [[poly.pcompose_affine(entry, 1, -1) for entry in row] for row in seg]
            )
        return LagrangianPath(self.space, tuple(segs))

    def concat(self, other: "LagrangianPath") -> "LagrangianPath":
        return LagrangianPath(self.space, self.segments + other.segments)


def _complement_pool(lam0: LagrangianFrame) -> list[LagrangianFrame]:
    """Complements of lam0: the dual complement and a few shear images."""
    space = lam0.space
    v = lagrangian_complement(lam0)
    u = lam0.basis_matrix()
    pool = [v]
    n = space.n
    for c_mat in _candidate_symmetrics(n):
        basis = linalg.mat_add(linalg.mat_mul(u, c_mat), v.basis_matrix())
        pool.append(frame(space, basis))
    return pool


def _candidate_symmetrics(n: int):
    yield linalg.identity(n)
    yield linalg.mat_scale(linalg.identity(n), -1)
    yield linalg.mat_scale(linalg.identity(n), 2)
    diag = linalg.zeros(n, n)
    for i in range(n):
        diag[i][i] = Fraction(1 if i % 2 == 0 else -1)
    yield diag


def _bespoke_complement(
    lam0: LagrangianFrame, target: Matrix, rng: random.Random
) -> LagrangianFrame:
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


def _random_symmetrics(n: int, rng: random.Random, tries: int = _COMPLEMENT_TRIES):
    for k in range(tries):
        bound = 2 + k // 10
        m = linalg.zeros(n, n)
        for i in range(n):
            for j in range(i, n):
                m[i][j] = m[j][i] = Fraction(rng.randint(-bound, bound))
        yield m


def maslov_index(path: LagrangianPath, lam0: LagrangianFrame) -> Fraction:
    """Robbin-Salamon Maslov index of the path relative to lam0.

    Chartwise half-signature differences; subdivision and chart choice are
    certified with exact root counting, so the result is exact.
    """
    if path.space != lam0.space:
        raise ValueError("path and reference live in different spaces")
    pool = _complement_pool(lam0)
    rng = random.Random(20570)
    total = Fraction(0)
    for seg in path.segment_matrices():
        total += _segment_index(seg, lam0, pool, rng)
    return total


def _segment_index(
    seg: PolyMatrix,
    lam0: LagrangianFrame,
    pool: list[LagrangianFrame],
    rng: random.Random,
) -> Fraction:
    dets: dict[int, Poly] = {}

    def det_against(idx: int) -> Poly:
        if idx not in dets:
            dets[idx] = _det_poly(
                pm_hstack(seg, constant_poly_matrix(pool[idx].basis_matrix()))
            )
        return dets[idx]

    total = Fraction(0)
    stack = [(Fraction(0), Fraction(1), 0)]
    while stack:
        a, b, depth = stack.pop()
        if depth > _MAX_DEPTH:
            raise BoundExceeded(f"chart subdivision depth exceeded {_MAX_DEPTH}")
        found = None
        for idx in range(len(pool)):
            d = det_against(idx)
            if poly.is_zero(d) or poly.has_root_in_closed(d, a, b):
                continue
            found = pool[idx]
            break
        if found is not None:
            a_end = chart_coordinates(frame(lam0.space, pm_eval(seg, b)), lam0, found)
            a_start = chart_coordinates(frame(lam0.space, pm_eval(seg, a)), lam0, found)
            total += Fraction(signature(a_end) - signature(a_start), 2)
            continue
        mid = (a + b) / 2
        pool.append(_bespoke_complement(lam0, pm_eval(seg, mid), rng))
        stack.append((mid, b, depth + 1))
        stack.append((a, mid, depth + 1))
    return total


# --- ternary index and the Meyer cocycle ------------------------------------


def ternary_index(
    l1: LagrangianFrame, l2: LagrangianFrame, l3: LagrangianFrame
) -> int:
    """Signature of Q(v, w) = omega(v2, w) on (L1 + L2) intersect L3,
    where v = v1 + v2 with v1 in L1, v2 in L2."""
    space = l1.space
    if l2.space != space or l3.space != space:
        raise ValueError("frames live in different spaces")
    f1, f2, f3 = (f.basis_matrix() for f in (l1, l2, l3))
    n = space.n
    stacked = linalg.hstack(linalg.hstack(f1, f2), linalg.mat_scale(f3, -1))
    null = linalg.nullspace(stacked)
    # Select null vectors whose z-parts (last n coordinates) are independent.
    chosen: list[list[Fraction]] = []
    z_rows: list[list[Fraction]] = []
    for vec in null:
        z = vec[2 * n :]
        if linalg.rank(z_rows + [z]) > len(z_rows):
            z_rows.append(z)
            chosen.append(vec)
    vs = [linalg.mat_vec(f3, vec[2 * n :]) for vec in chosen]
    v2s = [linalg.mat_vec(f2, vec[n : 2 * n]) for vec in chosen]
    q = linalg.mat_mul(linalg.mat_mul(v2s, space.form_matrix()), linalg.transpose(vs))
    if not linalg.is_symmetric(q):
        raise AssertionError("ternary form is not symmetric")
    return signature(q)


def ternary_index_kernel(
    l1: LagrangianFrame, l2: LagrangianFrame, l3: LagrangianFrame
) -> int:
    """Second definition: signature of Q' on the kernel triple space
    {(v1, v2, v3) : v1 + v2 + v3 = 0}, Q' = omega(v1, w3)."""
    space = l1.space
    f1, f2, f3 = (f.basis_matrix() for f in (l1, l2, l3))
    n = space.n
    stacked = linalg.hstack(linalg.hstack(f1, f2), f3)
    null = linalg.nullspace(stacked)
    v1s = [linalg.mat_vec(f1, vec[:n]) for vec in null]
    v3s = [linalg.mat_vec(f3, vec[2 * n :]) for vec in null]
    q = [[space.omega(v1, w3) for w3 in v3s] for v1 in v1s]
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


def meyer(
    space: SymplecticSpace, g1: Matrix, g2: Matrix, lift1=None, lift2=None
) -> int:
    """Meyer cocycle: ternary index of the graphs of id, g1, g1 g2 in the
    doubled space.

    Lifts (paths from the identity to g1, g2) may be passed but only their
    endpoints matter, which is verified; the value is the same for every
    choice of lift.
    """
    for g, lf in ((g1, lift1), (g2, lift2)):
        if not space.is_symplectic_matrix(g):
            raise ValueError("matrix does not preserve the form")
        if lf is not None and lf.end_matrix() != [list(r) for r in g]:
            raise ValueError("lift endpoint does not match the matrix")
    l1 = graph_lagrangian(space, linalg.identity(space.dim))
    l2 = graph_lagrangian(space, g1)
    l3 = graph_lagrangian(space, linalg.mat_mul(g1, g2))
    return ternary_index(l1, l2, l3)


def meyer_closed_form(space: SymplecticSpace, g1: Matrix, g2: Matrix) -> int:
    """Meyer cocycle of (A, B) = (g1, g2) by Turaev's closed form, in V.

    The signature of the form omega(x1 + y1, (I - B) y2) on
    W = {(x, y) in V x V : (A^-1 - I) x + (B - I) y = 0}.  The form is
    symmetric on W (Meyer), which is asserted, so its symmetrization is
    itself.  The value equals `meyer` (the ternary index of graphs in
    V x V) for every symplectic pair; the meyer-cocycle sweep checks that.
    """
    for g in (g1, g2):
        if not space.is_symplectic_matrix(g):
            raise ValueError("matrix does not preserve the form")
    d = space.dim
    ident = linalg.identity(d)
    b_minus = linalg.mat_sub(g2, ident)
    w = linalg.nullspace(linalg.hstack(linalg.mat_sub(linalg.inverse(g1), ident), b_minus))
    left = [[x + y for x, y in zip(v[:d], v[d:])] for v in w]
    right = [linalg.mat_vec(b_minus, v[d:]) for v in w]
    # q is omega(x1 + y1, (B - I) y2), the negative of the Meyer form.
    q = linalg.mat_mul(linalg.mat_mul(left, space.form_matrix()), linalg.transpose(right))
    if not linalg.is_symmetric(q):
        raise AssertionError("Meyer form is not symmetric")
    return -signature(q)
