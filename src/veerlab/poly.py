"""Dense univariate polynomials over the rationals, with Sturm sequences.

A polynomial is a tuple of Fraction coefficients, low degree first, with no
trailing zeros; the zero polynomial is the empty tuple.  Root counting is
used to certify, exactly, that a chart's transversality determinant has no
zero on a parameter interval.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

__all__ = [
    "poly",
    "pzero",
    "pconst",
    "is_zero",
    "degree",
    "padd",
    "psub",
    "pneg",
    "pmul",
    "pscale",
    "peval",
    "peval_homogeneous",
    "pderiv",
    "pdivmod",
    "pcompose_affine",
    "sturm_chain",
    "count_roots",
    "has_root_in_closed",
]

Poly = tuple[Fraction, ...]


def poly(coeffs) -> Poly:
    c = tuple(x if type(x) is Fraction else Fraction(x) for x in coeffs)
    while c and c[-1] == 0:
        c = c[:-1]
    return c


def pzero() -> Poly:
    return ()


def pconst(x) -> Poly:
    return poly([x])


def is_zero(p: Poly) -> bool:
    return not p


def degree(p: Poly) -> int:
    """Degree, with the zero polynomial at -1."""
    return len(p) - 1


def padd(p: Poly, q: Poly) -> Poly:
    n = max(len(p), len(q))
    return poly(
        [(p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0) for i in range(n)]
    )


def pneg(p: Poly) -> Poly:
    return tuple(-x for x in p)


def psub(p: Poly, q: Poly) -> Poly:
    return padd(p, pneg(q))


def pmul(p: Poly, q: Poly) -> Poly:
    if not p or not q:
        return ()
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return poly(out)


def pscale(p: Poly, s) -> Poly:
    return poly([x * Fraction(s) for x in p])


def peval(p: Poly, x) -> Fraction:
    """p(x), exactly, making at most one Fraction.

    p(0) is the constant coefficient and p(1) the sum of the coefficients.
    Elsewhere the coefficients are cleared to integers c_k / s and, with
    x = u / v, p(x) = peval_homogeneous(c, u, v) / (s v^d).
    """
    if not p:
        return Fraction(0)
    if x == 0:
        return p[0]
    scale = lcm(*[c.denominator for c in p])
    ints = [c.numerator * (scale // c.denominator) for c in p]
    if x == 1:
        return Fraction(sum(ints), scale)
    if not isinstance(x, (int, Fraction)):
        x = Fraction(x)
    u, v = x.numerator, x.denominator
    return Fraction(peval_homogeneous(ints, u, v), scale * v ** (len(ints) - 1))


def peval_homogeneous(c: list[int], u: int, v: int) -> int:
    """v^d c(u / v) = sum_k c_k u^k v^(d-k) for integer coefficients c
    (low degree first, d = len(c) - 1): Horner on integers."""
    acc = 0
    vpow = 1  # v^(d-k) at coefficient k
    for ck in reversed(c):
        acc = acc * u + ck * vpow
        vpow *= v
    return acc


def pderiv(p: Poly) -> Poly:
    return poly([i * c for i, c in enumerate(p)][1:])


def pdivmod(p: Poly, q: Poly) -> tuple[Poly, Poly]:
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(p)
    quo = [Fraction(0)] * max(len(p) - len(q) + 1, 0)
    inv = Fraction(1) / q[-1]
    for k in range(len(rem) - len(q), -1, -1):
        coef = rem[k + len(q) - 1] * inv
        quo[k] = coef
        if coef:
            for j, b in enumerate(q):
                rem[k + j] -= coef * b
    return poly(quo), poly(rem)


def pcompose_affine(p: Poly, a, b) -> Poly:
    """p(a + b t), exactly."""
    a, b = Fraction(a), Fraction(b)
    acc: Poly = ()
    lin = poly([a, b])
    for c in reversed(p):
        acc = padd(pmul(acc, lin), pconst(c))
    return acc


def sturm_chain(p: Poly) -> list[Poly]:
    chain = [p, pderiv(p)]
    while not is_zero(chain[-1]) and degree(chain[-1]) > 0:
        _, rem = pdivmod(chain[-2], chain[-1])
        if is_zero(rem):
            break
        chain.append(pneg(rem))
    if is_zero(chain[-1]):
        chain.pop()
    return chain


def _sign_changes(chain: list[Poly], x) -> int:
    signs = []
    for q in chain:
        v = peval(q, x)
        if v != 0:
            signs.append(1 if v > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_roots(p: Poly, a, b) -> int:
    """Number of distinct real roots of p in the half-open interval (a, b].

    Requires p nonzero.  Multiplicities are not counted, which is enough to
    decide whether any root exists.
    """
    if is_zero(p):
        raise ValueError("zero polynomial has roots everywhere")
    chain = sturm_chain(p)
    return _sign_changes(chain, a) - _sign_changes(chain, b)


def has_root_in_closed(p: Poly, a, b) -> bool:
    """Does the nonzero polynomial p vanish anywhere on [a, b]?"""
    if peval(p, a) == 0 or peval(p, b) == 0:
        return True
    return count_roots(p, a, b) > 0
