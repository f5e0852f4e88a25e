"""Braid words in the Artin generators and the exact word problem for B_3.

A word is a sequence of nonzero integers: ``i > 0`` is the positive
half-twist sigma_i, ``i < 0`` its inverse.  Words are immutable values and
every operation returns a fresh word, so everything here is safe to share
across threads.
"""

from __future__ import annotations

import re
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


def _word(strands: int, letters: tuple[int, ...]) -> BraidWord:
    """A BraidWord from a tuple of letters already valid for ``strands``,
    built without the per-letter check; for callers that derive the letters
    from valid words."""
    w = object.__new__(BraidWord)
    w.__dict__.update(strands=strands, letters=letters)
    return w


# A token is an optional sign and ASCII digits.  int() alone would also take
# "1_0" and non-ASCII digits such as "\u0663"; on ASCII text without "_" it
# takes exactly the tokens this pattern does.
_INT_RE = re.compile(r"[+-]?[0-9]+")


def _int_token(token: str) -> int:
    """``int(token)`` for a signed ASCII decimal token; ValueError names it,
    cut to 20 characters."""
    if not _INT_RE.fullmatch(token):
        raise ValueError(f"token {_cut(token)!r} is not a signed ASCII decimal integer")
    try:
        return int(token)
    except ValueError:  # more digits than int() converts (4300 by default)
        raise ValueError(
            f"token {_cut(token)!r} ({len(token)} characters) is out of range: "
            "too long to read as an integer"
        ) from None


def _cut(token: str) -> str:
    return token if len(token) <= 20 else token[:20] + "..."


def parse_braid(text: str, strands: int) -> BraidWord:
    """Parse whitespace-separated signed generator indices.

    Whitespace-only text is the identity braid.  Raises ValueError on a
    strand count below 2, checked before any token, and otherwise names the
    offending token on 0, tokens other than a sign and ASCII digits, or
    out-of-range indices.  ASCII text without "_" goes to int() as it is;
    other text has its tokens checked one by one.
    """
    if strands < 2:
        raise ValueError(f"strands must be >= 2, got {strands}")
    to_int = int if text.isascii() and "_" not in text else _int_token
    letters = []
    for token in text.split():
        try:
            letter = to_int(token)
        except ValueError:
            letter = _int_token(token)  # raises, naming the token
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
    letters = b.letters
    return 2 * sum(1 for letter in letters if letter > 0) - len(letters)


def free_reduce(b: BraidWord) -> BraidWord:
    """Cancel adjacent inverse pairs until none remain."""
    stack: list[int] = []
    for letter in b.letters:
        if stack and stack[-1] == -letter:
            stack.pop()
        else:
            stack.append(letter)
    return _word(b.strands, tuple(stack))


def invert(b: BraidWord) -> BraidWord:
    return _word(b.strands, tuple(-letter for letter in reversed(b.letters)))


def concat(a: BraidWord, b: BraidWord) -> BraidWord:
    if a.strands != b.strands:
        raise ValueError(f"strand mismatch: {a.strands} vs {b.strands}")
    return _word(a.strands, a.letters + b.letters)


def conjugate(b: BraidWord, g: BraidWord) -> BraidWord:
    """The word g b g^-1."""
    if b.strands != g.strands:
        raise ValueError(f"strand mismatch: {b.strands} vs {g.strands}")
    return _word(b.strands, g.letters + b.letters + invert(g).letters)


def stabilize(b: BraidWord) -> BraidWord:
    """The same letters read in B_{strands+1} (add a trivial strand)."""
    return _word(b.strands + 1, b.letters)


def power(b: BraidWord, n: int) -> BraidWord:
    if n >= 0:
        return _word(b.strands, b.letters * n)
    return _word(b.strands, invert(b).letters * (-n))


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
