"""The SL(2,Z) kernels: word products, normal forms and Farey turn walks.

These three functions sit inside every randomized sweep; ``braid``,
``modular`` and ``farey`` call them here.  They work on Python integers, so
every result is exact at any size; the only refusal is the length bound
``MAX_SYLLABLES``, shared by both roads to the Rademacher function.

Conventions used throughout:

* an SL(2,Z) matrix is the 4-tuple ``(a, b, c, d)`` for ``[[a, b], [c, d]]``
  with ``a*d - b*c == 1``;
* ``A = (0, 1, -1, 0)`` and ``B = (1, -1, 1, 0)`` generate PSL(2,Z) as
  Z/2 * Z/3;
* a normal form is the exponent list ``[r1, ..., rk]`` encoding
  ``B^r1 A B^r2 A ... A B^rk`` with interior ``ri`` in {-1, 1} and the two
  end exponents allowed to be 0 (empty list = identity);
* slopes are primitive integer columns ``(q, p)`` for ``p/q``, defined up to
  overall sign, with ``(0, 1)`` the slope of infinity.
"""

from __future__ import annotations

__all__ = ["word_matrix", "nf_exponents", "turn_letters", "MAX_SYLLABLES"]

# Deprecated and always False: each kernel has one pure-Python
# implementation.  Kept for callers that still read it.
USING_SPEEDUPS = False

# Both Rademacher roads refuse an element whose Euclidean word (below) has
# more B-letters than this, rather than run for minutes.
MAX_SYLLABLES = 2_000_000
_TOO_LONG = "normal form longer than 2e6 syllables"

def word_matrix(letters) -> tuple[int, int, int, int]:
    """Product of the SL(2,Z) images of a B_3 word, in word order.

    Each generator image is elementary, so right multiplication by it is one
    column operation: sigma_1 subtracts the second column from the first,
    sigma_1^-1 adds it, sigma_2 adds the first column to the second and
    sigma_2^-1 subtracts it.
    """
    a, b, c, d = 1, 0, 0, 1
    for letter in letters:
        if letter == 1:
            a -= b
            c -= d
        elif letter == 2:
            b += a
            d += c
        elif letter == -1:
            a += b
            c += d
        elif letter == -2:
            b -= a
            d -= c
        else:
            raise ValueError(f"letter {letter!r} is not in {{1, -1, 2, -2}}")
    return a, b, c, d


def _euclid(a: int, b: int, c: int, d: int) -> tuple[list[int], int]:
    """Exponents ``q1, ..., qm`` and ``t`` with the matrix equal to
    ``T^q1 S T^q2 S ... S T^qm S T^t`` up to sign (``T = [[1,1],[0,1]]``,
    ``S = [[0,-1],[1,0]]``), by the Euclidean algorithm on the first column.

    Raises ValueError when ``|q1| + ... + |qm| + |t|``, the number of
    B-letters in that word once ``T = BA``, exceeds ``MAX_SYLLABLES``.
    """
    if a * d - b * c != 1:
        raise ValueError("matrix is not in SL(2,Z)")
    qs: list[int] = []
    total = 0
    while c != 0:
        q = a // c
        a, b = a - q * c, b - q * d
        a, b, c, d = -c, -d, a, b
        qs.append(q)
        total += abs(q)
        if total > MAX_SYLLABLES:
            raise ValueError(_TOO_LONG)
    t_last = a * b
    if total + abs(t_last) > MAX_SYLLABLES:
        raise ValueError(_TOO_LONG)
    return qs, t_last


def nf_exponents(a: int, b: int, c: int, d: int) -> list[int]:
    """Normal-form exponents of the PSL(2,Z) class of ``[[a, b], [c, d]]``.

    Road one to the Rademacher function: write the matrix as
    ``T^q1 S T^q2 S ... S T^qm`` by the Euclidean algorithm on the first
    column (``T = [[1,1],[0,1]]``, ``S = [[0,-1],[1,0]]``), substitute
    ``S = A``, ``T = BA``, ``T^-1 = A B^-1`` and reduce in Z/2 * Z/3.
    """
    qs, t_last = _euclid(a, b, c, d)
    letters: list[int] = []
    for q in qs:
        if q > 0:
            letters.extend((1, 0) * q)
        elif q < 0:
            letters.extend((0, -1) * (-q))
        letters.append(0)
    if t_last > 0:
        letters.extend((1, 0) * t_last)
    elif t_last < 0:
        letters.extend((0, -1) * (-t_last))
    # Reduce in Z/2 * Z/3 on a stack of syllables, 0 for A and +-1 for
    # B^+-1: A A and B^e B^-e cancel, and B^e B^e is B^-e.
    stack: list[int] = []
    for letter in letters:
        if stack and (stack[-1] == 0) == (letter == 0):
            if letter and stack[-1] == letter:
                stack[-1] = -letter
            else:
                stack.pop()
        else:
            stack.append(letter)
    # The syllables alternate; an A at either end gets an empty B-power
    # beside it, and then the B-powers are every other entry.
    if stack and stack[0] == 0:
        stack.insert(0, 0)
    if stack and stack[-1] == 0:
        stack.append(0)
    return stack[::2]


def _det(xq: int, xp: int, yq: int, yp: int) -> int:
    return xq * yp - xp * yq


def _sign(x: int) -> int:
    return (x > 0) - (x < 0)


def turn_letters(a: int, b: int, c: int, d: int) -> str:
    """L/R turns of the dual-tree geodesic from the edge 0-inf to the
    edge of ``[[a, b], [c, d]]``.

    Road two to the Rademacher function.  The walk keeps a directed edge as
    a pair of integer columns ``s -> t`` with det(s|t) = +1, so the third
    vertex of the clockwise triangle is always the column sum s + t.  The
    moves are right multiplications: B crosses to the edge (s+t -> s) with
    a right turn, B^-1 crosses to (t -> s+t) with a left turn, and A flips
    direction without a turn.  Which move to take is decided by exact
    projective separation tests against the target edge; the dual graph is
    a tree, so the crossed-edge sequence is unique.

    Termination bound.  Two bounds hold for the number k of turns:

    * k <= max(|a| + |c|, |b| + |d|) - 1.  Past the edge 0-inf the walk
      stays on one side of it, where every vertex has a column (q, p) with
      q >= 0 and p of one fixed sign, so the size |q| + |p| adds under
      the mediant.  Turn i crosses into a triangle whose new vertex m_i is
      the mediant of an edge through m_(i-1), so 2 = |m_1| < |m_2| < ...
      < |m_k|, and m_k is an endpoint of the target edge: a column of the
      matrix.
    * k <= the B-letter count of ``_euclid``.  After each turn the walk
      flips (A) before it turns again, so its moves spell a reduced word
      B^e1 A B^e2 A ... (each ei = +-1) whose edge is the edge of g.  That
      word is the normal form of g or of gA, which have the same number k
      of nonzero exponents, and reduction only removes B-letters.

    The first bound costs nothing, so the Euclidean pre-pass runs only for
    entries too large for it; it refuses exactly as ``nf_exponents`` does,
    before the walk starts.  Either way the walk takes at most
    ``MAX_SYLLABLES`` turns.
    """
    if a * d - b * c != 1:
        raise ValueError("matrix is not in SL(2,Z)")
    if max(abs(a) + abs(c), abs(b) + abs(d)) > MAX_SYLLABLES:
        _euclid(a, b, c, d)
    # Current directed edge: columns s = (sq, sp), t = (tq, tp).
    sq, sp, tq, tp = 1, 0, 0, 1
    # Target edge endpoints (columns of the matrix).
    uq, up, vq, vp = a, c, b, d
    letters: list[str] = []
    while True:
        su = _det(sq, sp, uq, up)
        sv = _det(sq, sp, vq, vp)
        tu = _det(tq, tp, uq, up)
        tv = _det(tq, tp, vq, vp)
        if (su == 0 and tv == 0) or (sv == 0 and tu == 0):
            break
        # A target endpoint not on the current edge, for side tests.
        if su != 0 and tu != 0:
            wq, wp = uq, up
            sw, tw = su, tu
        else:
            wq, wp = vq, vp
            sw, tw = sv, tv
        # Side of w relative to the edge {s, t}: with det(s|t) = +1 the
        # mediant side is sign(D(s,w))*sign(D(t,w)) == -1.
        if _sign(sw) * _sign(tw) == 1:
            # Target lies in the other triangle: flip direction (no turn).
            sq, sp, tq, tp = -tq, -tp, sq, sp
            continue
        mq, mp = sq + tq, sp + tp
        # Exit edge {s, m}: equality or strict separation from t decides.
        sm_u = _det(uq, up, sq, sp), _det(uq, up, mq, mp)
        sm_v = _det(vq, vp, sq, sp), _det(vq, vp, mq, mp)
        if (sm_u[0] == 0 and sm_v[1] == 0) or (sm_v[0] == 0 and sm_u[1] == 0):
            take_right = True
        else:
            tm_u = _det(uq, up, tq, tp), _det(uq, up, mq, mp)
            tm_v = _det(vq, vp, tq, tp), _det(vq, vp, mq, mp)
            if (tm_u[0] == 0 and tm_v[1] == 0) or (tm_v[0] == 0 and tm_u[1] == 0):
                take_right = False
            else:
                # w1: target endpoint not on the line of s or m.
                if sm_u[0] != 0 and sm_u[1] != 0:
                    w1q, w1p = uq, up
                else:
                    w1q, w1p = vq, vp
                # Side of w1 vs side of t relative to edge {s, m}.
                o_w1 = _sign(_det(sq, sp, w1q, w1p)) * _sign(_det(w1q, w1p, mq, mp))
                o_t = _sign(_det(sq, sp, tq, tp)) * _sign(_det(tq, tp, mq, mp))
                take_right = o_w1 != o_t
        if take_right:
            letters.append("R")
            sq, sp, tq, tp = mq, mp, -sq, -sp
        else:
            letters.append("L")
            sq, sp, tq, tp = -tq, -tp, mq, mp
    return "".join(letters)
