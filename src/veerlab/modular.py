"""SL(2,Z) and PSL(2,Z): projection from B_3, normal forms, the Rademacher
function, trace classification, and conjugacy.

PSL(2,Z) is the free product Z/2 * Z/3 on the classes of

    A = [[0, 1], [-1, 0]],   B = [[1, -1], [1, 0]],

so every element has a unique word B^r1 A B^r2 A ... A B^rk with interior
exponents in {-1, 1} (the two ends may be 0).  The Rademacher function is
the exponent sum of that word; the sign convention is the one where it
counts right turns minus left turns on the Farey tessellation (see
``veerlab.farey`` for the second, independent road).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from math import gcd

from veerlab import _core
from veerlab.braid import BraidWord, _int_token

__all__ = [
    "SL2Matrix",
    "PSL2Element",
    "NormalForm",
    "Classification",
    "SL2_A",
    "SL2_B",
    "SL2_B_INV",
    "SIGMA1_BAR",
    "SIGMA2_BAR",
    "project_b3",
    "classify",
    "normal_form",
    "rademacher",
    "rademacher_class",
    "psl_conjugate",
    "parse_matrix",
]


@dataclass(frozen=True)
class SL2Matrix:
    """An integer matrix [[a, b], [c, d]] with determinant one."""

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        if self.a * self.d - self.b * self.c != 1:
            raise ValueError(f"determinant of {self} is not 1")

    # Products, inverses and negatives of determinant-one matrices have
    # determinant one, so these three build their results unchecked.
    def __mul__(self, other: "SL2Matrix") -> "SL2Matrix":
        return _sl2(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self) -> "SL2Matrix":
        return _sl2(self.d, -self.b, -self.c, self.a)

    def neg(self) -> "SL2Matrix":
        return _sl2(-self.a, -self.b, -self.c, -self.d)

    @property
    def trace(self) -> int:
        return self.a + self.d

    def entries(self) -> tuple[int, int, int, int]:
        return (self.a, self.b, self.c, self.d)

    def __str__(self) -> str:
        return f"{self.a} {self.b}; {self.c} {self.d}"


def _sl2(a: int, b: int, c: int, d: int) -> SL2Matrix:
    """An SL2Matrix from entries already known to have determinant 1."""
    m = object.__new__(SL2Matrix)
    m.__dict__.update(a=a, b=b, c=c, d=d)
    return m


SL2_ID = SL2Matrix(1, 0, 0, 1)
SL2_A = SL2Matrix(0, 1, -1, 0)
SL2_B = SL2Matrix(1, -1, 1, 0)
SL2_B_INV = SL2_B.inverse()
SIGMA1_BAR = SL2Matrix(1, 0, -1, 1)
SIGMA2_BAR = SL2Matrix(1, 1, 0, 1)


def parse_matrix(text: str) -> SL2Matrix:
    """Parse the 'a b; c d' text format; entries are signed ASCII decimals."""
    rows = [row.split() for row in text.split(";")]
    if len(rows) != 2 or any(len(row) != 2 for row in rows):
        raise ValueError(f"expected 'a b; c d', got {text!r}")
    (a, b), (c, d) = ([_int_token(t) for t in row] for row in rows)
    return SL2Matrix(a, b, c, d)


@dataclass(frozen=True)
class PSL2Element:
    """An SL(2,Z) matrix up to sign, canonicalized so the first nonzero
    entry of (a, b, c, d) is positive."""

    rep: SL2Matrix

    def __post_init__(self):
        a, b, c, d = self.rep.entries()
        if (a or b or c or d) < 0:  # the first nonzero entry
            object.__setattr__(self, "rep", self.rep.neg())

    def __mul__(self, other: "PSL2Element") -> "PSL2Element":
        return PSL2Element(self.rep * other.rep)

    def inverse(self) -> "PSL2Element":
        return PSL2Element(self.rep.inverse())


@dataclass(frozen=True)
class NormalForm:
    """Exponent list r1..rk encoding B^r1 A B^r2 A ... A B^rk."""

    exponents: tuple[int, ...]

    def __post_init__(self):
        r = self.exponents
        for i, e in enumerate(r):
            ok = (1, 0, -1) if i in (0, len(r) - 1) else (1, -1)
            if e not in ok:
                raise ValueError(f"invalid exponent list {r}")

    def syllables(self) -> list[tuple[int, int]]:
        """Alternating (kind, exp) syllables: kind 0 is A, kind 1 is B^exp."""
        sylls: list[tuple[int, int]] = []
        for i, e in enumerate(self.exponents):
            if i > 0:
                sylls.append((0, 0))
            if e != 0:
                sylls.append((1, e))
        return sylls

    def to_psl(self) -> PSL2Element:
        """Multiply the encoded word back out."""
        m = SL2_ID
        for kind, e in self.syllables():
            m = m * (SL2_A if kind == 0 else SL2_B if e == 1 else SL2_B_INV)
        return PSL2Element(m)


def _normal_form(exponents: tuple[int, ...]) -> NormalForm:
    """A NormalForm from exponents already known to be valid (the kernel's)."""
    nf = object.__new__(NormalForm)
    nf.__dict__["exponents"] = exponents
    return nf


class Classification(enum.Enum):
    PERIODIC = "periodic"
    REDUCIBLE = "reducible"
    ANOSOV = "anosov"


def project_b3(b: BraidWord) -> SL2Matrix:
    """Image of a B_3 word under sigma_i -> sigma_i-bar, in word order."""
    if b.strands != 3:
        raise ValueError("project_b3 needs a word in B_3")
    return _sl2(*_core.word_matrix(b.letters))


def classify(m: SL2Matrix) -> Classification:
    """Trace trichotomy: periodic, reducible, or Anosov."""
    t = abs(m.trace)
    if t < 2 or m.entries() in ((1, 0, 0, 1), (-1, 0, 0, -1)):
        return Classification.PERIODIC
    if t == 2:
        return Classification.REDUCIBLE
    return Classification.ANOSOV


def normal_form(g: PSL2Element) -> NormalForm:
    """The unique Z/2 * Z/3 word of g (Euclidean-algorithm road)."""
    return _normal_form(tuple(_core.nf_exponents(*g.rep.entries())))


def rademacher(g: PSL2Element) -> int:
    """Rademacher function: exponent sum of the normal form.

    Base-edge dependent (a path quantity from the edge 0-inf), hence not a
    class function; see ``rademacher_class`` for the conjugation-invariant
    variant.
    """
    return sum(_core.nf_exponents(*g.rep.entries()))


def rademacher_class(g: PSL2Element) -> int:
    """Conjugation-invariant Rademacher function.

    Exponent sum of the cyclically reduced word; conjugation rotates the
    cyclic word, so the B-exponent multiset and hence the sum is a class
    invariant.  Agrees with ``rademacher`` whenever the normal form is
    already cyclically alternating, but can differ by a multiple of 3
    otherwise.
    """
    sylls = _cyclic_reduce(normal_form(g).syllables())
    return sum(e for kind, e in sylls if kind == 1)


def psl_conjugate(g: PSL2Element, h: PSL2Element) -> bool:
    """Conjugacy in PSL(2,Z): equal canonical class words."""
    return _class_word(g) == _class_word(h)


def _class_word(g: PSL2Element) -> tuple[tuple[int, int], ...]:
    """The least rotation of the cyclically reduced syllable word of g.

    Cyclically reduced words of syllable length >= 2 are conjugate exactly
    when they are cyclic rotations of each other, and the torsion classes
    (syllable length <= 1: the identity, A, B, B^-1) are their own least
    rotation, so this word is a complete conjugacy invariant.
    """
    w = _cyclic_reduce(normal_form(g).syllables())
    return tuple(min((w[i:] + w[:i] for i in range(len(w))), default=w))


def _cyclic_reduce(sylls: list[tuple[int, int]]) -> list[tuple[int, int]]:
    sylls = list(sylls)
    while len(sylls) >= 2 and sylls[0][0] == sylls[-1][0]:
        kind, e_last = sylls.pop()
        e = (e_last + sylls[0][1] + 1) % 3 - 1 if kind == 1 else 0
        if e == 0:
            sylls.pop(0)
        else:
            sylls[0] = (1, e)
    return sylls


def parabolic_fixed_slope(m: SL2Matrix) -> tuple[int, int]:
    """Primitive eigenvector column (q, p) of a reducible matrix."""
    if classify(m) is not Classification.REDUCIBLE:
        raise ValueError("matrix is not reducible")
    sign = 1 if m.trace > 0 else -1
    a, b, c, d = (sign * x for x in m.entries())
    # Solve (M - I)v = 0 for v = (q, p).
    if b != 0 or a != 1:
        q, p = b, 1 - a
    else:
        q, p = 1 - d, c
    if q == 0 and p == 0:  # pragma: no cover - excluded by REDUCIBLE
        raise ValueError("matrix is central")
    g = gcd(abs(q), abs(p))
    q, p = q // g, p // g
    if q < 0 or (q == 0 and p < 0):
        q, p = -q, -p
    return q, p
