import random
from fractions import Fraction

from veerlab import poly


def ref_peval(p, x):
    """Horner on Fractions."""
    x = Fraction(x)
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def test_peval_matches_fraction_horner():
    rng = random.Random(64)
    points = [0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 7), Fraction(5, 3), Fraction(0), Fraction(1)]
    for _ in range(300):
        p = poly.poly(
            [Fraction(rng.randint(-20, 20), rng.randint(1, 9)) for _ in range(rng.randint(0, 6))]
        )
        xs = points + [Fraction(rng.randint(-30, 30), rng.randint(1, 12)) for _ in range(4)]
        for x in xs:
            value = poly.peval(p, x)
            assert type(value) is Fraction
            assert value == ref_peval(p, x), (p, x)
    assert poly.peval(poly.pzero(), Fraction(1, 3)) == 0
    assert type(poly.peval(poly.pzero(), 1)) is Fraction


def test_poly_keeps_fractions_and_trims():
    third = Fraction(1, 3)
    p = poly.poly([third, 2, 0, Fraction(0)])
    assert p == (third, Fraction(2))
    assert p[0] is third
    assert all(type(c) is Fraction for c in p)
    assert poly.poly([0, Fraction(0)]) == ()
