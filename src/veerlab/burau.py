"""The homology representation of odd braid groups: Burau at -1.

B_{2n+1} acts on the first homology of the genus-n double branched cover,
a symplectic Z-module of rank 2n with intersection form
omega(C_i, C_j) = delta_{i+1,j} - delta_{i-1,j}.  The generator sigma_i is
the positive Dehn twist about C_i, acting by v -> v - omega(v, C_i) C_i,
which in the C-basis is the identity plus (-1, +1) in row i at columns
(i-1, i+1).  For sigma_1 and interior generators this is the familiar
block pattern

    A1 = [[1, 1], [0, 1]],     A2 = [[1, 0, 0], [-1, 1, 1], [0, 0, 1]],

and for the last generator the lower-triangular twin of A1 (the twist
formula forces it; the braid relations then hold on the nose).  Even braid
groups embed by adding a trivial strand.  The lift to the universal cover
replaces the offsets by t-multiples, one path segment per letter.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd

from veerlab import linalg, poly, symplectic
from veerlab.braid import BraidWord, stabilize
from veerlab.linalg import Matrix
from veerlab.symplectic import LagrangianPath, PolyMatrix, SymplecticSpace

__all__ = [
    "HomologyRep",
    "SymplecticLift",
    "homology_rep",
    "intersection_form",
    "burau_matrix",
    "lift",
    "embed_even",
    "standardize_form",
    "symplectic_space",
    "graph_path_of",
]


def intersection_form(genus: int) -> Matrix:
    """omega(C_i, C_j) = delta_{i+1,j} - delta_{i-1,j} on rank 2*genus."""
    dim = 2 * genus
    form = linalg.zeros(dim, dim)
    for i in range(dim - 1):
        form[i][i + 1] = Fraction(1)
        form[i + 1][i] = Fraction(-1)
    return form


@dataclass(frozen=True)
class HomologyRep:
    """Generator images, their inverses and the intersection form for odd
    strand count."""

    strands: int
    generator_images: tuple
    form: tuple
    inverse_images: tuple

    def image(self, letter: int) -> Matrix:
        images = self.generator_images if letter > 0 else self.inverse_images
        return [list(row) for row in images[abs(letter) - 1]]


def _twist_matrix(dim: int, i: int, scale: int = 1) -> list[list[int]]:
    """Image of sigma_i: v -> v - scale * omega(v, C_i) C_i."""
    m = [[int(r == c) for c in range(dim)] for r in range(dim)]
    if i - 2 >= 0:
        m[i - 1][i - 2] = -scale
    if i <= dim - 1:
        m[i - 1][i] = scale
    return m


def _check_twists(form, gens, invs) -> None:
    """Validate generator images and their inverses in closed form, on ints.

    The form must be skew.  Image i must be the twist v -> v - omega(v, C) C
    about C = C_i, read off the form: the identity except row c = i - 1,
    which is e_c - (omega(C_j, C))_j, at most two off-diagonal entries for
    the intersection form.  Stored inverse i must be the twist with the
    opposite sign.  With omega(C, C) = 0 such a twist is symplectic:
    omega(T u, T v) = omega(u, v) - omega(u, C) omega(C, v) - omega(v, C)
    omega(u, C) = omega(u, v).  Two such twists differ from I in row c only,
    so their product is I exactly when row c of it is: on its nonzeros,
    1 at c and the two rows' off-diagonal entries cancelling.  Each failure
    raises AssertionError, which `python -O` keeps.
    """
    dim = len(form)
    if not linalg.is_skew(form):
        raise AssertionError("intersection form is not skew")
    units = tuple(tuple(int(r == j) for j in range(dim)) for r in range(dim))
    for c, (g, g_inv) in enumerate(zip(gens, invs)):
        if form[c][c]:
            raise AssertionError("twist curve is not isotropic")
        for s, m in ((1, g), (-1, g_inv)):
            row = tuple(u - s * f[c] for u, f in zip(units[c], form))
            if m[c] != row or m[:c] != units[:c] or m[c + 1 :] != units[c + 1 :]:
                raise AssertionError("generator image is not the twist about C_i")
        # Row c of g g_inv is g_inv[c] + g[c] - e_c, as g[c][c] = 1.
        if [x + y - u for x, y, u in zip(g[c], g_inv[c], units[c])] != list(units[c]):
            raise AssertionError("inverse twist is not the inverse of the generator image")


@lru_cache(maxsize=None)
def homology_rep(strands: int) -> HomologyRep:
    if strands % 2 == 0 or strands < 3:
        raise ValueError("homology representation needs odd strands >= 3")
    dim = strands - 1
    gens = tuple(
        tuple(tuple(row) for row in _twist_matrix(dim, i))
        for i in range(1, strands)
    )
    # The inverse twist v -> v + omega(v, C_i) C_i, in closed form.
    invs = tuple(
        tuple(tuple(row) for row in _twist_matrix(dim, i, -1))
        for i in range(1, strands)
    )
    form = tuple(tuple(int(x) for x in row) for row in intersection_form(dim // 2))
    _check_twists(form, gens, invs)
    return HomologyRep(strands, gens, form, invs)


@lru_cache(maxsize=None)
def symplectic_space(strands: int) -> SymplecticSpace:
    """The homology space of B_strands, built and validated once per count."""
    rep = homology_rep(strands if strands % 2 == 1 else strands + 1)
    return SymplecticSpace(tuple(tuple(Fraction(x) for x in row) for row in rep.form))


def embed_even(b: BraidWord) -> BraidWord:
    """Standard embedding of B_2n into B_2n+1: same letters, one more strand."""
    if b.strands % 2 != 0:
        raise ValueError("embed_even needs an even strand count")
    return stabilize(b)


def _odd_word(b: BraidWord) -> BraidWord:
    return b if b.strands % 2 == 1 else embed_even(b)


def burau_matrix(b: BraidWord) -> tuple[tuple[int, ...], ...]:
    """Integer matrix image of the word (even words are embedded first).

    The product g_1 ... g_k of the letter images is built from the right,
    g_i (g_{i+1} ... g_k), and each g_i is a twist that changes one row
    (`_twist_rows`): O(dim) work per letter, not a dense product.
    """
    b = _odd_word(b)
    form = homology_rep(b.strands).form
    dim = b.strands - 1
    out = [[int(i == j) for j in range(dim)] for i in range(dim)]
    for letter in reversed(b.letters):
        _twist_rows(form, letter, out)
    return tuple(tuple(row) for row in out)


def _twist_rows(form, letter: int, m: list[list[int]]) -> None:
    """Replace m by T_C^s m in place: only row c changes, by -s omega(C_j, C) row j."""
    s = 1 if letter > 0 else -1
    c = abs(letter) - 1
    row = m[c]
    for j, f in enumerate(form):
        if f[c]:
            row = [x - s * f[c] * y for x, y in zip(row, m[j])]
    m[c] = row


def _generator_path(dim: int, letter: int) -> PolyMatrix:
    """The path t -> (twist by t) for a letter; inverses run from the
    identity to the inverse matrix (pointwise inverse of the twist path)."""
    i = abs(letter)
    scale = 1 if letter > 0 else -1
    pm = [
        [poly.pconst(1) if r == c else poly.pzero() for c in range(dim)]
        for r in range(dim)
    ]
    if i - 2 >= 0:
        pm[i - 1][i - 2] = poly.poly([0, -scale])
    if i <= dim - 1:
        pm[i - 1][i] = poly.poly([0, scale])
    return pm


@dataclass(frozen=True)
class SymplecticLift:
    """Per-letter polynomial path from the identity to the word's image."""

    word: BraidWord
    segments: tuple

    def segment_matrices(self) -> list[PolyMatrix]:
        return [[[e for e in row] for row in seg] for seg in self.segments]

    def end_matrix(self) -> Matrix:
        last = self.segment_matrices()[-1]
        return symplectic.pm_eval(last, Fraction(1))

    def compose_pointwise(self, other: "SymplecticLift") -> "SymplecticLift":
        """The product lift t -> g1(t) g2(t), one segment per common piece.

        Both lifts are reparametrized to a common set of pieces; on each
        piece the product of two polynomial matrices is again polynomial.
        """
        segs1 = self.segment_matrices()
        segs2 = other.segment_matrices()
        k = len(segs1) * len(segs2) // gcd(len(segs1), len(segs2))
        s1 = _refine(segs1, k)
        s2 = _refine(segs2, k)
        prod = [_pm_mul(a, b) for a, b in zip(s1, s2)]
        word = BraidWord(self.word.strands, self.word.letters + other.word.letters)
        return SymplecticLift(word, tuple(tuple(tuple(r) for r in s) for s in prod))


def _refine(segs: list[PolyMatrix], k: int) -> list[PolyMatrix]:
    """Split the path of len(segs) pieces into k equal pieces."""
    m = len(segs)
    if k % m:
        raise AssertionError("piece count does not refine the path")
    per = k // m
    out = []
    for seg in segs:
        for j in range(per):
            a = Fraction(j, per)
            b = Fraction(1, per)
            out.append(
                [[poly.pcompose_affine(e, a, b) for e in row] for row in seg]
            )
    return out


def _pm_mul(a: PolyMatrix, b: PolyMatrix) -> PolyMatrix:
    n = len(a)
    return [
        [
            _psum(poly.pmul(a[i][k], b[k][j]) for k in range(n))
            for j in range(n)
        ]
        for i in range(n)
    ]


def _psum(polys) -> poly.Poly:
    total = poly.pzero()
    for p in polys:
        total = poly.padd(total, p)
    return total


def lift(b: BraidWord) -> SymplecticLift:
    """Lift of the word: segment j is (prefix product) * (letter path)."""
    b = _odd_word(b)
    rep = homology_rep(b.strands)
    dim = b.strands - 1
    prefix = [[int(i == j) for j in range(dim)] for i in range(dim)]
    segments = []
    letters = b.letters if b.letters else ()
    for letter in letters:
        const = symplectic.constant_poly_matrix(linalg.frac_matrix(prefix))
        seg = _pm_mul(const, _generator_path(dim, letter))
        segments.append(seg)
        img = rep.image(letter)
        prefix = [
            [sum(prefix[i][k] * img[k][j] for k in range(dim)) for j in range(dim)]
            for i in range(dim)
        ]
    if not segments:
        segments.append(symplectic.constant_poly_matrix(linalg.identity(dim)))
    return SymplecticLift(b, tuple(tuple(tuple(r) for r in s) for s in segments))


def graph_path_of(b: BraidWord) -> LagrangianPath:
    """Graph path of the lift, in the doubled space."""
    b = _odd_word(b)
    space = symplectic_space(b.strands)
    return symplectic.graph_path(space, lift(b).segment_matrices())


def meyer_via_lifts(a: SymplecticLift, b: SymplecticLift) -> Fraction:
    """Meyer value from Maslov indices of graph paths:
    2 (mu(lift a) + mu(lift b) - mu(pointwise product)).

    Agrees with the endpoint formula for every choice of lifts, which is
    the well-definedness statement behind the cocycle.
    """
    strands = a.word.strands
    space = symplectic_space(strands)
    gid = symplectic.graph_lagrangian(space, linalg.identity(strands - 1))

    def mu_of(lf: SymplecticLift) -> Fraction:
        return symplectic.maslov_index(
            symplectic.graph_path(space, lf.segment_matrices()), gid
        )

    return 2 * (mu_of(a) + mu_of(b) - mu_of(a.compose_pointwise(b)))


def standardize_form(rep: HomologyRep) -> tuple[Matrix, HomologyRep]:
    """Congruence T with T^T Omega T standard, plus the conjugated rep.

    Symplectic Gram-Schmidt over the rationals: pick e, find its dual f,
    project the rest onto the omega-complement of the pair, recurse.
    """
    omega = linalg.frac_matrix(rep.form)
    dim = len(omega)
    n = dim // 2
    space_vecs = [
        [Fraction(int(i == j)) for j in range(dim)] for i in range(dim)
    ]

    def omega_pair(u, v):
        return sum(
            ui * sum(o * vj for o, vj in zip(row, v))
            for ui, row in zip(u, omega)
        )

    es: list[list[Fraction]] = []
    fs: list[list[Fraction]] = []
    pool = [list(v) for v in space_vecs]
    while len(es) < n:
        e = next(v for v in pool if any(x != 0 for x in v))
        partner = next(v for v in pool if omega_pair(e, v) != 0)
        f = [x / omega_pair(e, partner) for x in partner]
        new_pool = []
        for v in pool:
            w = [
                vi + omega_pair(v, e) * fi - omega_pair(v, f) * ei
                for vi, ei, fi in zip(v, e, f)
            ]
            if any(x != 0 for x in w):
                new_pool.append(w)
        es.append(e)
        fs.append(f)
        # Drop dependent vectors to keep the pool a complement basis.
        pool = []
        basis_so_far = es + fs
        for w in new_pool:
            if linalg.rank(basis_so_far + pool + [w]) > len(basis_so_far) + len(pool):
                pool.append(w)
    t = linalg.transpose(es + fs)
    std = linalg.mat_mul(linalg.mat_mul(linalg.transpose(t), omega), t)
    expected = SymplecticSpace.standard(n).form_matrix()
    if std != expected:
        raise AssertionError("symplectic Gram-Schmidt failed")
    t_inv = linalg.inverse(t)

    def conjugated(images):
        out = []
        for g in images:
            conj = linalg.mat_mul(linalg.mat_mul(t_inv, linalg.frac_matrix(g)), t)
            out.append(tuple(tuple(row) for row in conj))
        return tuple(out)

    new_rep = HomologyRep(
        rep.strands,
        conjugated(rep.generator_images),
        tuple(tuple(row) for row in expected),
        conjugated(rep.inverse_images),
    )
    return t, new_rep
