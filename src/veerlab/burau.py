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
groups embed by adding a trivial strand.

This module is the one place that knows how a letter acts.  The letter
sigma_i^s is the transvection T = I - s C y^T about C = C_i, with
y_j = omega(C_j, C), read off the stored integer form.  It has one action
per side, both in place and O(dim) per letter: `_twist_rows` acts on the
left (T m changes row c of m) and `_twist_cols` on the right (m T changes
the at most two columns j with y_j != 0).  Burau images and the Meyer
engine's suffixes grow on the left, the crossing count's prefixes and the
lift's on the right.  Dense images are built only on demand
(`HomologyRep.image`).  The lift to the universal cover runs each letter's
twist from I to T: its segment is P + t (P T - P).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from veerlab import poly, symplectic, verdict
from veerlab.braid import BraidWord, stabilize
from veerlab.symplectic import LagrangianPath, PolyMatrix, SymplecticSpace

__all__ = [
    "MAX_STRANDS",
    "MAX_DENSE_STRANDS",
    "HomologyRep",
    "SymplecticLift",
    "homology_rep",
    "intersection_form",
    "burau_matrix",
    "lift",
    "embed_even",
    "symplectic_space",
    "graph_path_of",
]

# Largest strand count with a representation (even words embed one strand
# up, so B_n is served for every n <= MAX_STRANDS).  The engines keep
# dim x dim integer matrices, dim = strands - 1, so time and memory grow
# quadratically: a one-letter `invariants` report takes about 2 s and
# 81 MB in B_1601, and 6.5 s and 265 MB in B_3201 (Python 3.11, 2 vCPU).
MAX_STRANDS = 3201
# Largest strand count with a dense `Fraction` space (`symplectic_space`),
# which the `meyer` command, `verify_eq_signature` and the chart engine
# use.  Their cost is cubic in the strand count: `meyer -n 301 1 1` takes
# about 10 s (Python 3.11, 2 vCPU).
MAX_DENSE_STRANDS = 301


def intersection_form(genus: int) -> tuple[tuple[int, ...], ...]:
    """omega(C_i, C_j) = delta_{i+1,j} - delta_{i-1,j} on rank 2*genus, as ints."""
    dim = 2 * genus
    return tuple(tuple(int(j == i + 1) - int(j == i - 1) for j in range(dim)) for i in range(dim))


@dataclass(frozen=True)
class HomologyRep:
    """The integer intersection form for an odd strand count; letters act
    by the twists read off it."""

    strands: int
    form: tuple

    def image(self, letter: int) -> list[list[int]]:
        """Dense image of one letter, built on demand."""
        dim = self.strands - 1
        m = [[int(i == j) for j in range(dim)] for i in range(dim)]
        _twist_rows(self.form, letter, m)
        return m


@lru_cache(maxsize=None)
def homology_rep(strands: int) -> HomologyRep:
    """The representation of B_strands, built once per strand count.

    Its form is `intersection_form`, skew with zero diagonal by
    construction, so omega(C_i, C_i) = 0.  Then every twist
    T v = v - s omega(v, C) C is symplectic,
    omega(T u, T v) = omega(u, v) - s omega(u, C) omega(C, v)
    - s omega(v, C) omega(u, C) = omega(u, v), and T_C^s T_C^-s = I.
    Strand counts above MAX_STRANDS raise `verdict.BoundExceeded`
    before anything is allocated.
    """
    if strands % 2 == 0 or strands < 3:
        raise ValueError("homology representation needs odd strands >= 3")
    if strands > MAX_STRANDS:
        raise verdict.BoundExceeded(
            f"strand bound MAX_STRANDS = {MAX_STRANDS} exceeded ({strands} strands)"
        )
    return HomologyRep(strands, intersection_form((strands - 1) // 2))


@lru_cache(maxsize=None)
def symplectic_space(strands: int) -> SymplecticSpace:
    """The homology space of B_strands, built and validated once per count.
    Strand counts above MAX_DENSE_STRANDS raise `verdict.BoundExceeded`
    before anything is allocated."""
    if strands > MAX_DENSE_STRANDS:
        raise verdict.BoundExceeded(
            f"dense strand bound MAX_DENSE_STRANDS = {MAX_DENSE_STRANDS} exceeded "
            f"({strands} strands)"
        )
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


def _letter(letter: int) -> tuple[int, int]:
    """(s, c) for sigma_{c+1}^s: the twist's sign and the 0-based index of C."""
    return (1 if letter > 0 else -1), abs(letter) - 1


def _twist_rows(form, letter: int, m: list[list[int]]) -> None:
    """Replace m by T_C^s m in place: only row c changes, by -s omega(C_j, C) row j."""
    s, c = _letter(letter)
    row = m[c]
    for j, f in enumerate(form):
        if f[c]:
            row = [x - s * f[c] * y for x, y in zip(row, m[j])]
    m[c] = row


def _twist_cols(form, letter: int, m: list[list[int]]) -> None:
    """Replace m by m T_C^s in place: only the columns j with omega(C_j, C) != 0
    change, by -s omega(C_j, C) column c (column c itself stays, as
    omega(C, C) = 0)."""
    s, c = _letter(letter)
    for j, f in enumerate(form):
        if f[c]:
            g = s * f[c]
            for row in m:
                row[j] -= g * row[c]


@dataclass(frozen=True)
class SymplecticLift:
    """Per-letter polynomial path from the identity to the word's image."""

    word: BraidWord
    segments: tuple

    def segment_matrices(self) -> list[PolyMatrix]:
        return [[[e for e in row] for row in seg] for seg in self.segments]


def lift(b: BraidWord) -> SymplecticLift:
    """Lift of the word: segment j is P + t (P T - P), from the prefix image
    P to P T (`_twist_cols`).  P T - P = -s (P C) y^T with y_j =
    omega(C_j, C); as y^T C = 0, the one-letter lifts of sigma_i and its
    inverse are pointwise inverse."""
    b = _odd_word(b)
    form = homology_rep(b.strands).form
    dim = b.strands - 1
    prefix = [[int(i == j) for j in range(dim)] for i in range(dim)]
    segments = []
    for letter in b.letters:
        advanced = [list(row) for row in prefix]
        _twist_cols(form, letter, advanced)
        segments.append(tuple(
            tuple(poly.poly([p, q - p]) for p, q in zip(row, arow))
            for row, arow in zip(prefix, advanced)
        ))
        prefix = advanced
    if not segments:
        segments.append(tuple(tuple(poly.poly([p]) for p in row) for row in prefix))
    return SymplecticLift(b, tuple(segments))


def graph_path_of(b: BraidWord) -> LagrangianPath:
    """Graph path of the lift, in the doubled space."""
    b = _odd_word(b)
    space = symplectic_space(b.strands)
    return symplectic.graph_path(space, lift(b).segment_matrices())
