"""Signatures of braid closures by two independent engines.

The oracle builds the Seifert matrix of the canonical Seifert surface of
the closed braid (one disk per strand, one band per letter; H_1 basis from
consecutive same-column band pairs) and takes the signature of V + V^T.
The second engine never sees the diagram: it factors the braid into
letters, maps them by Burau at -1, and accumulates Meyer cocycle values,
using that each letter closes to an unknot of signature zero.  Each term
pairs one letter, a rank-one twist, with the integer image of the rest of
the word, so it is one sign read off one integer solve (`meyer_letter`);
`invariants` and `signature` use it.  Turaev's closed form
(`symplectic.meyer_closed_form`) serves general pairs (`meyer`,
`verify_eq_signature`) and, in the meyer-cocycle sweep, cross-checks the
rank-one term.  The Maslov index of the lifted path, for sign = -lk +
2 mu, is counted by crossings in the same 2n-dimensional space; the
doubled-space chart engine cross-checks it.

Sign conventions are calibrated so the positive Hopf link (closure of
sigma_1^2) has signature -1 and the right trefoil -2; the dual-engine
equality on random words is the standing cross-check.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from veerlab import burau, linalg, symplectic
from veerlab.braid import BraidWord, linking_number
from veerlab.modular import (
    Classification,
    PSL2Element,
    classify,
    project_b3,
    rademacher_class,
)

__all__ = [
    "seifert_matrix",
    "seifert_signature",
    "meyer_signature",
    "meyer_letter",
    "maslov_of_word",
    "maslov_by_charts",
    "verify_sign_maslov",
    "verify_eq_signature",
    "gg_remark_check",
]


def seifert_matrix(b: BraidWord) -> list[list[int]]:
    """Seifert matrix of the canonical Seifert surface of the closure.

    Basis loops run through consecutive bands in the same column.  The
    symmetrized entries are: -(e1 + e2)/2 on the diagonal (e the letter
    signs of the loop's two bands), the shared letter's sign between
    adjacent loops in one column, and +-1 between interleaved loops in
    adjacent columns (+1 when the lower column starts first).
    """
    positions: dict[int, list[int]] = {}
    for idx, letter in enumerate(b.letters):
        positions.setdefault(abs(letter), []).append(idx)
    loops: list[tuple[int, int, int]] = []  # (column, band position a, band position b)
    for col in sorted(positions):
        pos = positions[col]
        for a, bb in zip(pos, pos[1:]):
            loops.append((col, a, bb))
    sign = {idx: (1 if letter > 0 else -1) for idx, letter in enumerate(b.letters)}
    m = len(loops)
    v = [[0] * m for _ in range(m)]
    for i, (col, a, bb) in enumerate(loops):
        v[i][i] = -(sign[a] + sign[bb]) // 2
    # Loops are ordered by (column, position), so for j > i the column of
    # loop j is the same or higher.
    for i, (ci, ai, bi) in enumerate(loops):
        for j, (cj, aj, bj) in enumerate(loops):
            if j <= i:
                continue
            if ci == cj and bi == aj:
                # Adjacent pairs sharing the middle band.
                e = sign[bi]
                v[i][j] += (e + 1) // 2
                v[j][i] += (e - 1) // 2
            elif cj == ci + 1:
                if ai < aj < bi < bj:
                    v[i][j] += 1
                elif aj < ai < bj < bi:
                    v[i][j] -= 1
    return v


def seifert_signature(b: BraidWord) -> int:
    """Signature of the symmetrized Seifert pairing of the closure.

    V + V^T is integral, so it goes to `symplectic.signature` as ints; no
    Fraction is made.
    """
    v = seifert_matrix(b)
    return symplectic.signature([[x + y for x, y in zip(row, col)] for row, col in zip(v, zip(*v))])


def meyer_signature(b: BraidWord) -> int:
    """Closure signature through the Meyer cocycle recursion.

    Each letter is a (conjugate of a) half-twist or its inverse with
    closure signature zero, so iterating the signature cocycle identity
    leaves -sum_i Meyer(g_i, g_{i+1} ... g_k) over the letter images
    (the last term, Meyer(g_k, I), is 0).  Each term is `meyer_letter` on
    the integer suffix image, which a letter updates by one row operation;
    no Fraction matrix is built.
    """
    b = burau._odd_word(b)
    form = burau.homology_rep(b.strands).form
    dim = b.strands - 1
    suffix = [[int(i == j) for j in range(dim)] for i in range(dim)]
    total = 0
    for letter in reversed(b.letters):
        total += meyer_letter(form, letter, suffix)
        _twist_rows(form, letter, suffix)
    return -total


def meyer_letter(form, letter: int, suffix) -> int:
    """Meyer(A, B) for a letter image A = T_C^s and an integer image B.

    A is the twist v -> v - s omega(v, C) C about C = C_{|letter|}, s the
    letter's sign; B = `suffix` is symplectic, and `form` is the integer
    intersection form.  Then

        Meyer(A, B) = sign(s - omega(a, C)) if (B - I) a = C is solvable,
                      0 otherwise.

    Derivation from the closed form (`symplectic.meyer_closed_form`): the
    cocycle is the signature of Q(y, y') = -omega(x + y, (B - I) y') on
    W = ker[A^-1 - I | B - I].  Here A^-1 - I = s C omega(., C) has rank
    one, so on W (B - I) y = lambda(y) C and omega(x, C) = -s lambda(y).
    With mu = omega(., C), Q(y, y') = s lambda lambda' - (lambda' mu(y) +
    lambda mu(y'))/2, and x enters only through lambda.  If C is not in
    im(B - I), then lambda = 0 on W and Q = 0.  Otherwise y runs over
    ker(B - I) + span(a) with (B - I) a = C.  Since B is symplectic,
    im(B - I) = ker(B - I)^omega, so mu vanishes on ker(B - I), which lies
    in the radical of Q; this is also why omega(a, C) does not depend on
    the choice of a.  What remains is Q(a, a) = s - omega(a, C).

    One fraction-free elimination of [B - I | C] (`linalg.particular_solution`)
    gives a = x / den, so the sign is that of s den - sum_j x_j omega(C_j, C).
    """
    s = 1 if letter > 0 else -1
    c = abs(letter) - 1
    target = [int(i == c) for i in range(len(suffix))]
    solution = linalg.particular_solution(_minus_identity(suffix), target)
    if solution is None:
        return 0
    x, den = solution
    d = s * den - sum(xj * row[c] for xj, row in zip(x, form))
    return (d > 0) - (d < 0)


def _twist_rows(form, letter: int, m: list[list[int]]) -> None:
    """Replace m by T_C^s m in place: only row c changes, by -s omega(C_j, C) row j."""
    s = 1 if letter > 0 else -1
    c = abs(letter) - 1
    row = m[c]
    for j, f in enumerate(form):
        if f[c]:
            row = [x - s * f[c] * y for x, y in zip(row, m[j])]
    m[c] = row


def maslov_of_word(b: BraidWord) -> Fraction:
    """mu(Graph(lift(b)), Graph(id)) by crossing counts in dimension 2n.

    Lift segment j is Psi(t) = P + t PN, where P is the integer image of
    the prefix and N v = -s omega(v, C) C is the letter's rank-one twist
    generator (C = C_{|letter|}, s the letter's sign).  So Psi(t) - I is
    the pencil A + t x y^T with A = P - I, x = -s P C and y^T v =
    omega(v, C).  Proof sketch (Robbin-Salamon, Topology 32, 1993): the
    index of the graph path against the diagonal counts crossings, the t
    with Psi(t) - I singular.  On ker(Psi(t) - I) the crossing form is
    s omega(u, C)^2 (oriented so that sigma_1 has mu = 1/2, as in the
    chart engine), so every segment is semidefinite of sign s and a
    crossing adds s times the kernel dimension beyond the generic one,
    halved at the ends t = 0, 1.  The generic kernel is the persistent
    one, ker(P - I) intersect C^omega: a nondegenerate crossing would
    persist, but nondegenerate crossings are isolated.  The rank of a
    rank-one pencil is generic except at one t* at most, where it drops by
    exactly 1 (see `_pencil`).  A segment thus contributes

        s [(r_g - r(0))/2 + (r_g - r(1))/2 + (1 if 0 < t* < 1)],

    with r(t) = rank(Psi(t) - I) and r_g its generic value.  r(1) is the
    next segment's r(0), so each prefix rank is computed once.  The terms
    are summed doubled, as ints, and halved once at the end.  A rank
    drop other than 0 or 1 contradicts the sketch: AssertionError.  The
    chart engine on the doubled space (`maslov_by_charts`) is the
    independent cross-check.
    """
    b = burau._odd_word(b)
    form = burau.homology_rep(b.strands).form
    dim = b.strands - 1
    prefix = [[int(i == j) for j in range(dim)] for i in range(dim)]
    segments = []  # (s, r(0), r_g, whether 0 < t* < 1) per letter
    for letter in b.letters:
        s = 1 if letter > 0 else -1
        c = abs(letter) - 1
        x = [-s * row[c] for row in prefix]
        y = [row[c] for row in form]  # omega(v, C) = sum_i v_i omega(C_i, C)
        segments.append((s, *_pencil(_minus_identity(prefix), x, y)))
        prefix = [[p + xi * yj for p, yj in zip(row, y)] for row, xi in zip(prefix, x)]
    # r(1) of a segment is r(0) of the next; the last one's is rank(g - I).
    ends = [seg[1] for seg in segments[1:]] + [linalg.rank(_minus_identity(prefix))]
    two_mu = sum(_segment_term(*seg, r1) for seg, r1 in zip(segments, ends))
    return Fraction(two_mu, 2)


def _minus_identity(m: list[list[int]]) -> list[list[int]]:
    return [[p - (i == j) for j, p in enumerate(row)] for i, row in enumerate(m)]


def _pencil(a, x, y) -> tuple[int, int, bool]:
    """(rank A, generic rank of A + t x y^T, whether it drops at a 0 < t* < 1).

    With x = A a and y^T = z^T A, A + t x y^T = (I + t x z^T) A loses rank
    exactly where 1 + t y^T a = 0, and by 1 (x != 0 lies in col A); if
    only one of x in col A, y in row A holds the rank is rank A for all t;
    if neither, rank A + 1 for t != 0.  Since row A = (ker A)^perp, y in
    row A means y^T k = 0 for every k in ker A.

    All of it comes from one fraction-free elimination of the integer
    matrix [A | x] (`linalg._echelon`): its pivots in the first dim columns
    give rank A, a pivot in column dim means x is not in col A, and each
    free column f of A gives the kernel vector k with k_f = den and k_p =
    -den row[f] / row[p] for the pivot row of column p, den being the lcm
    of the pivots (k is integral).  The particular solution with free
    variables zero is a_p = row[dim] / row[p], so y^T a = q / den with q =
    sum_p y_p row[dim] (den / row[p]).  The drop point is t* = -1 / (y^T a)
    = -den / q, and as den > 0, 0 < t* < 1 exactly when q < -den.
    """
    dim = len(a)
    rows, pivots = linalg._echelon([row + [xi] for row, xi in zip(a, x)])
    basis = [(row, p) for row, p in zip(rows, pivots) if p < dim]
    x_in = len(basis) == len(pivots)
    r0 = len(basis)
    den = lcm(*(row[p] for row, p in basis))
    free = set(range(dim)).difference(pivots)
    y_in = all(
        y[f] * den == sum(y[p] * row[f] * (den // row[p]) for row, p in basis) for f in free
    )
    if not x_in:
        return r0, r0 if y_in else r0 + 1, False
    if not y_in:
        return r0, r0, False
    q = sum(y[p] * row[dim] * (den // row[p]) for row, p in basis)  # y^T a = q / den
    return r0, r0, q < -den


def _segment_term(s: int, r0: int, r_g: int, inner: bool, r1: int) -> int:
    """Twice a segment's term: s [(r_g - r(0)) + (r_g - r(1)) + (2 if 0 < t* < 1)]."""
    drops = (r_g - r0, r_g - r1)
    if any(d not in (0, 1) for d in drops):
        raise AssertionError(f"rank drop {drops} on a lift segment; a rank-one pencil allows 0 or 1")
    return s * (r_g - r0 + r_g - r1 + (2 if inner else 0))


def maslov_by_charts(b: BraidWord) -> Fraction:
    """The cross-check of `maslov_of_word`: the chart engine on the graph
    path of the lift in the doubled homology space."""
    b = burau._odd_word(b)
    space = burau.symplectic_space(b.strands)
    gid = symplectic.graph_lagrangian(space, linalg.identity(b.strands - 1))
    return symplectic.maslov_index(burau.graph_path_of(b), gid)


def verify_sign_maslov(b: BraidWord) -> dict:
    """Check sign(closure) = -lk + 2 mu(Graph(lift), Graph(id)) exactly."""
    sign = seifert_signature(b)
    lk = linking_number(b)
    mu = maslov_of_word(b)
    rhs = -lk + 2 * mu
    return {
        "word": str(b),
        "strands": b.strands,
        "sign": sign,
        "lk": lk,
        "mu": mu,
        "rhs": rhs,
        "equal": Fraction(sign) == rhs,
    }


def verify_eq_signature(a: BraidWord, b: BraidWord) -> dict:
    """Check sign(ab-closure) = sign(a-closure) + sign(b-closure) - Meyer."""
    if a.strands != b.strands:
        raise ValueError("strand mismatch")
    ao = burau._odd_word(a)
    bo = burau._odd_word(b)
    space = burau.symplectic_space(ao.strands)
    ga = linalg.frac_matrix(burau.burau_matrix(ao))
    gb = linalg.frac_matrix(burau.burau_matrix(bo))
    my = symplectic.meyer_closed_form(space, ga, gb)
    s_ab = seifert_signature(BraidWord(a.strands, a.letters + b.letters))
    s_a = seifert_signature(a)
    s_b = seifert_signature(b)
    return {
        "sign_ab": s_ab,
        "sign_a": s_a,
        "sign_b": s_b,
        "meyer": my,
        "equal": s_ab == s_a + s_b - my,
    }


def gg_remark_check(b: BraidWord) -> dict:
    """Check sign + (2/3) lk = -(1/3) Phi for a 3-braid with Anosov image.

    Evaluated exactly as 3 sign + 2 lk = -Phi.  Non-Anosov inputs are
    rejected since the identity is only claimed off the exceptional set.
    Phi here must be the conjugation-invariant Rademacher function (the
    signature and linking number are class functions, so the base-edged
    normal-form variant, which conjugation can shift by multiples of 3,
    cannot satisfy the identity on every representative; empirically the
    class function satisfies it on every Anosov word tested).
    """
    if b.strands != 3:
        raise ValueError("the remark concerns B_3")
    img = project_b3(b)
    if classify(img) is not Classification.ANOSOV:
        raise ValueError("image is not Anosov")
    sign = seifert_signature(b)
    lk = linking_number(b)
    ph = rademacher_class(PSL2Element(img))
    return {
        "word": str(b),
        "sign": sign,
        "lk": lk,
        "phi": ph,
        "equal": 3 * sign + 2 * lk == -ph,
    }
