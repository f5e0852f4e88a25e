"""Braid words in the Artin generators and the exact word problem for B_3.

A word is a sequence of nonzero integers: ``i > 0`` is the positive
half-twist sigma_i, ``i < 0`` its inverse.  Words are immutable values and
every operation returns a fresh word, so everything here is safe to share
across threads.
"""

from __future__ import annotations

from dataclasses import dataclass

from veerlab import _core

__all__ = [
    "BraidWord",
    "parse_braid",
    "linking_number",
    "free_reduce",
    "conjugate",
    "invert",
    "concat",
    "stabilize",
    "power",
    "braid3_equal",
    "is_identity_braid3",
]


@dataclass(frozen=True)
class BraidWord:
    """A word in the generators of the braid group on ``strands`` strands."""

    strands: int
    letters: tuple[int, ...]

    def __post_init__(self):
        if self.strands < 2:
            raise ValueError(f"strands must be >= 2, got {self.strands}")
        if not isinstance(self.letters, tuple):
            object.__setattr__(self, "letters", tuple(self.letters))
        for letter in self.letters:
            if letter == 0 or abs(letter) > self.strands - 1:
                raise ValueError(
                    f"letter {letter} is not a generator index for "
                    f"B_{self.strands}"
                )

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        return " ".join(str(letter) for letter in self.letters)

    @classmethod
    def identity(cls, strands: int) -> "BraidWord":
        return cls(strands, ())


def parse_braid(text: str, strands: int) -> BraidWord:
    """Parse whitespace-separated signed generator indices.

    Whitespace-only text is the identity braid.  Raises ValueError on a
    strand count below 2, checked before any token, and otherwise names the
    offending token on 0, non-integer tokens, or out-of-range indices.
    """
    if strands < 2:
        raise ValueError(f"strands must be >= 2, got {strands}")
    letters = []
    for token in text.split():
        try:
            letter = int(token)
        except ValueError:
            raise ValueError(f"token {token!r} is not an integer") from None
        if letter == 0:
            raise ValueError("token '0' is not a valid generator index")
        if abs(letter) > strands - 1:
            raise ValueError(
                f"token {token!r} is out of range for B_{strands} "
                f"(need |i| <= {strands - 1})"
            )
        letters.append(letter)
    return BraidWord(strands, tuple(letters))


def linking_number(b: BraidWord) -> int:
    """Exponent sum of the word, the unique homomorphism B_n -> Z."""
    return sum(1 if letter > 0 else -1 for letter in b.letters)


def free_reduce(b: BraidWord) -> BraidWord:
    """Cancel adjacent inverse pairs until none remain."""
    stack: list[int] = []
    for letter in b.letters:
        if stack and stack[-1] == -letter:
            stack.pop()
        else:
            stack.append(letter)
    return BraidWord(b.strands, tuple(stack))


def invert(b: BraidWord) -> BraidWord:
    return BraidWord(b.strands, tuple(-letter for letter in reversed(b.letters)))


def concat(a: BraidWord, b: BraidWord) -> BraidWord:
    if a.strands != b.strands:
        raise ValueError(f"strand mismatch: {a.strands} vs {b.strands}")
    return BraidWord(a.strands, a.letters + b.letters)


def conjugate(b: BraidWord, g: BraidWord) -> BraidWord:
    """The word g b g^-1."""
    if b.strands != g.strands:
        raise ValueError(f"strand mismatch: {b.strands} vs {g.strands}")
    return BraidWord(b.strands, g.letters + b.letters + invert(g).letters)


def stabilize(b: BraidWord) -> BraidWord:
    """The same letters read in B_{strands+1} (add a trivial strand)."""
    return BraidWord(b.strands + 1, b.letters)


def power(b: BraidWord, n: int) -> BraidWord:
    if n >= 0:
        return BraidWord(b.strands, b.letters * n)
    return BraidWord(b.strands, invert(b).letters * (-n))


def braid3_equal(a: BraidWord, b: BraidWord) -> bool:
    """Exact equality in B_3.

    The kernel of B_3 -> PSL(2,Z) is generated by the central element
    (sigma_1 sigma_2 sigma_1)^2, whose linking number is 6, so equal
    PSL(2,Z) images together with equal linking numbers decide equality.
    """
    if a.strands != 3 or b.strands != 3:
        raise ValueError("braid3_equal needs words in B_3")
    if linking_number(a) != linking_number(b):
        return False
    ma = _core.word_matrix(a.letters)
    mb = _core.word_matrix(b.letters)
    return ma == mb or ma == tuple(-x for x in mb)


def is_identity_braid3(b: BraidWord) -> bool:
    return braid3_equal(b, BraidWord.identity(3))
