"""The Farey tessellation: directed edges, dual-tree geodesics, turn words,
and the word-equation certificates for the linking-number-two frontier.

Slopes are primitive integer columns (q, p) for p/q, up to overall sign;
infinity is (0, 1).  A directed edge a -> b corresponds to the group element
sending slope 0 to a and slope infinity to b, which makes the edge of g the
pair of columns of its matrix.  Turn words are plain strings over "L"/"R";
``invert_turn_word`` is reversal plus swapping the two letters.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from veerlab import _core
from veerlab.modular import SL2_A, SL2_B, SL2_B_INV, SL2_ID, PSL2Element, normal_form
from veerlab.verdict import Verdict

__all__ = [
    "ExtSlope",
    "FareyEdge",
    "edge_of",
    "turn_word",
    "rademacher_turns",
    "invert_turn_word",
    "solve_xp_eq_pw",
    "lk2_nonqp_certificate",
    "geodesic_edges",
]


@dataclass(frozen=True)
class ExtSlope:
    """A point of the Farey circle: coprime (q, p), sign-canonicalized."""

    q: int
    p: int

    def __post_init__(self):
        q, p = self.q, self.p
        if q == 0 and p == 0:
            raise ValueError("slope (0, 0) is not a point of P^1")
        g = gcd(abs(q), abs(p))
        q, p = q // g, p // g
        if q < 0 or (q == 0 and p < 0):
            q, p = -q, -p
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "p", p)

    def __str__(self) -> str:
        if self.q == 0:
            return "inf"
        if self.q == 1:
            return str(self.p)
        return f"{self.p}/{self.q}"


SLOPE_ZERO = ExtSlope(1, 0)
SLOPE_INF = ExtSlope(0, 1)


@dataclass(frozen=True)
class FareyEdge:
    """A directed geodesic edge of the tessellation."""

    a: ExtSlope
    b: ExtSlope

    def __post_init__(self):
        if abs(self.a.q * self.b.p - self.a.p * self.b.q) != 1:
            raise ValueError(f"{self.a} and {self.b} are not Farey neighbors")


def edge_of(g: PSL2Element) -> FareyEdge:
    """The directed edge of g: columns of its matrix, as slopes."""
    m = g.rep
    return FareyEdge(ExtSlope(m.a, m.c), ExtSlope(m.b, m.d))


def turn_word(g: PSL2Element) -> str:
    """L/R record of the dual-tree geodesic from the edge 0-inf to the
    edge of g; empty when the undirected edges coincide.

    This is the turn-counting road to the Rademacher function, computed by
    walking the tessellation with exact separation tests and no reference
    to the normal form.
    """
    return _core.turn_letters(*g.rep.entries())


def rademacher_turns(g: PSL2Element) -> int:
    """Right turns minus left turns along the geodesic."""
    w = turn_word(g)
    return w.count("R") - w.count("L")


def geodesic_edges(g: PSL2Element) -> list[FareyEdge]:
    """The crossed-edge sequence of the geodesic from the edge 0-inf to the
    edge of g: each crossing multiplies in one B-letter of the word, with
    the interleaved A's flipping direction only, so the crossed edges are
    the edges of the prefixes ending at each B-syllable."""
    edges = [FareyEdge(SLOPE_ZERO, SLOPE_INF)]
    m = SL2_ID
    for kind, e in normal_form(g).syllables():
        m = m * (SL2_A if kind == 0 else SL2_B if e == 1 else SL2_B_INV)
        if kind == 1:
            edges.append(edge_of(PSL2Element(m)))
    return edges


def invert_turn_word(w: str) -> str:
    """Reverse the word and swap L with R."""
    swap = {"L": "R", "R": "L"}
    return "".join(swap[ch] for ch in reversed(w))


def solve_xp_eq_pw(x: str, w: str) -> list[str]:
    """Solutions P of XP = PW in the free monoid on {L, R}, one period.

    XP = PW with |X| = |W| forces X = uv, W = vu and P = (uv)^i u; the
    returned list holds the distinct u's (solutions of length < |X|, plus
    X itself when X = W), each extendable by prepending copies of X.
    Unequal lengths admit no solution.
    """
    if len(x) != len(w):
        return []
    solutions = []
    for j in range(len(x) + 1):
        u, v = x[:j], x[j:]
        if v + u == w:
            solutions.append(u)
    return solutions


def _family1(w: str) -> str | None:
    """L P L L P^-1 L = W; |P| is forced, so the check is direct."""
    if len(w) < 4 or len(w) % 2 != 0:
        return None
    p_len = (len(w) - 4) // 2
    p = w[1 : 1 + p_len]
    candidate = "L" + p + "LL" + invert_turn_word(p) + "L"
    return p if candidate == w else None


def _family2(w: str) -> tuple[str, str] | None:
    """P1 L L P1^-1 P2 L L P2^-1 = W; |P1| + |P2| is forced."""
    if len(w) < 4 or len(w) % 2 != 0:
        return None
    total = (len(w) - 4) // 2
    for p1_len in range(total + 1):
        p1 = w[:p1_len]
        head = p1 + "LL" + invert_turn_word(p1)
        if not w.startswith(head):
            continue
        rest = w[len(head):]
        p2 = rest[: (len(rest) - 2) // 2]
        if p2 + "LL" + invert_turn_word(p2) == rest:
            return p1, p2
    return None


def _family3(w: str) -> tuple[str, str] | None:
    """P2 L L P2^-1 L L P1 = P1 W, i.e. XP = PW with X = P2 L L P2^-1 L L.

    XP = PW with |X| = |W| is solvable exactly when X is a rotation of W
    (Lyndon-Schutzenberger), so one scan over the rotations X of W, each
    read as P2 = X[:k], finds every P2.  Of several, the one with the
    smallest sum of 2^i over the positions i where P2 has an R is taken.
    """
    if len(w) < 4 or len(w) % 2 != 0:
        return None
    k = (len(w) - 4) // 2
    candidates = set()
    for j in range(len(w)):
        x = w[j:] + w[:j]
        p2 = x[:k]
        if x == p2 + "LL" + invert_turn_word(p2) + "LL":
            candidates.add(p2)
    if not candidates:
        return None
    p2 = min(candidates, key=lambda p: p[::-1])
    x = p2 + "LL" + invert_turn_word(p2) + "LL"
    return solve_xp_eq_pw(x, w)[0], p2


def lk2_nonqp_certificate(w: str) -> Verdict:
    """Decide the four turn-word equations for a linking-number-two word.

    The caller guarantees ``w`` is the turn word of a braid with lk = 2 and
    rot = 1/2.  Yes (with the search bounds as certificate) means no
    equation family has a solution, so the braid is not a product of two
    positive Dehn twists and hence not quasipositive.  No returns the
    solved family as a counter-certificate; substitution re-verifies it.

    Family 4 (W P1 = P1 Y, Y = L L P2 L L P2^-1) needs no search of its
    own: Y is a rotation of family 3's X = P2 L L P2^-1 L L, and both
    equations ask for W to be a rotation of that word, so for each P2
    family 4 is solvable exactly when family 3 is.  Family 1's
    L P L L P^-1 L is also a rotation of X with P2 = P; it stays as a
    direct first test.  The whole decision costs O(|W|^2).
    """
    if set(w) - {"L", "R"}:
        raise ValueError(f"turn word {w!r} has letters outside L/R")
    p = _family1(w)
    if p is not None:
        return Verdict.no({"family": 1, "P": p, "W": w})
    p12 = _family2(w)
    if p12 is not None:
        return Verdict.no({"family": 2, "P1": p12[0], "P2": p12[1], "W": w})
    p12 = _family3(w)
    if p12 is not None:
        return Verdict.no({"family": 3, "P1": p12[0], "P2": p12[1], "W": w})
    return Verdict.yes(
        {
            "W": w,
            "families_checked": [1, 2, 3, 4],
            "forced_lengths": {
                "family1_P": (len(w) - 4) // 2 if len(w) >= 4 else None,
                "family2_P1_plus_P2": (len(w) - 4) // 2 if len(w) >= 4 else None,
                "family34_P2": (len(w) - 4) // 2 if len(w) >= 4 else None,
            },
        }
    )


def check_lk2_certificate(verdict: Verdict) -> bool:
    """Re-verify a No certificate by direct substitution.

    A certificate made elsewhere that names no family 1-4, or lacks one of
    its family's words or holds one that is not a string over L and R, is
    False, not an error.
    """
    cert = verdict.certificate
    if verdict.value != "no" or not isinstance(cert, dict):
        return False
    family = cert.get("family")
    if family not in (1, 2, 3, 4):
        return False
    words = [cert.get(key) for key in (("W", "P") if family == 1 else ("W", "P1", "P2"))]
    if not all(isinstance(x, str) and not x.strip("LR") for x in words):
        return False
    if family == 1:
        w, p = words
        return "L" + p + "LL" + invert_turn_word(p) + "L" == w
    w, p1, p2 = words
    if family == 2:
        return p1 + "LL" + invert_turn_word(p1) + p2 + "LL" + invert_turn_word(p2) == w
    if family == 3:
        return p2 + "LL" + invert_turn_word(p2) + "LL" + p1 == p1 + w
    return p1 + "LL" + p2 + "LL" + invert_turn_word(p2) == w + p1
