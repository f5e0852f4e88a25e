import random
from fractions import Fraction
from math import floor

import pytest

from veerlab.braid import BraidWord, parse_braid, power
from veerlab.modular import (
    Classification,
    NormalForm,
    PSL2Element,
    SL2_A,
    SL2_B,
    SIGMA1_BAR,
    SIGMA2_BAR,
    SL2Matrix,
    classify,
    normal_form,
    parse_matrix,
    project_b3,
    psl_conjugate,
    rademacher,
    rademacher_class,
    _cyclic_reduce,
)
from veerlab.sweeps import random_psl


def test_generator_images():
    assert project_b3(parse_braid("1", 3)) == SL2Matrix(1, 0, -1, 1)
    assert project_b3(parse_braid("2", 3)) == SL2Matrix(1, 1, 0, 1)
    assert project_b3(parse_braid("1 2 1", 3)) == SL2_A
    assert project_b3(power(parse_braid("1 2 1", 3), 4)) == SL2Matrix(1, 0, 0, 1)
    # A = s1 s2 s1 and B = s1^-1 s2^-1 as matrices.
    assert SIGMA1_BAR * SIGMA2_BAR * SIGMA1_BAR == SL2_A
    assert SIGMA1_BAR.inverse() * SIGMA2_BAR.inverse() == SL2_B


def test_projection_is_homomorphism():
    rng = random.Random(2)
    for _ in range(200):
        a = BraidWord(3, tuple(rng.choice([1, -1, 2, -2]) for _ in range(rng.randrange(0, 15))))
        b = BraidWord(3, tuple(rng.choice([1, -1, 2, -2]) for _ in range(rng.randrange(0, 15))))
        ab = BraidWord(3, a.letters + b.letters)
        assert project_b3(ab) == project_b3(a) * project_b3(b)


def test_classify():
    assert classify(SL2Matrix(0, 1, -1, 0)) is Classification.PERIODIC
    assert classify(SL2Matrix(1, 1, 0, 1)) is Classification.REDUCIBLE
    assert classify(SL2Matrix(2, 1, 1, 1)) is Classification.ANOSOV
    assert classify(SL2Matrix(1, 0, 0, 1)) is Classification.PERIODIC
    assert classify(SL2Matrix(-1, 0, 0, -1)) is Classification.PERIODIC


def test_normal_form_examples():
    assert normal_form(PSL2Element(SL2Matrix(1, 0, 0, 1))).exponents == ()
    assert normal_form(PSL2Element(SL2_B)).exponents == (1,)
    # sigma_2-bar = B A.
    assert normal_form(PSL2Element(SIGMA2_BAR)).exponents == (1, 0)
    assert PSL2Element(SL2_B * SL2_A) == PSL2Element(SIGMA2_BAR)


def test_normal_form_round_trip_and_validity():
    rng = random.Random(3)
    for _ in range(2000):
        g = random_psl(rng, 60)
        nf = normal_form(g)
        assert nf.to_psl() == g
        r = nf.exponents
        for i, e in enumerate(r):
            if 0 < i < len(r) - 1:
                assert e in (1, -1)


def test_rademacher_examples():
    assert rademacher(PSL2Element(SL2Matrix(1, 0, 0, 1))) == 0
    # sigma_1-bar inverse is B^-1 A, a single -1 exponent.
    assert PSL2Element(SL2_B.inverse() * SL2_A) == PSL2Element(SIGMA1_BAR.inverse())
    assert rademacher(PSL2Element(SIGMA1_BAR.inverse())) == -1
    w = parse_braid("1 2 1 1 2 1 -1 -1 -1 -1 2 -1 2 -1", 3)
    assert rademacher(PSL2Element(project_b3(w))) == -4


def test_rademacher_class_is_conjugation_invariant():
    rng = random.Random(4)
    for _ in range(400):
        g = random_psl(rng, 30)
        h = random_psl(rng, 20)
        conj = h * g * h.inverse()
        assert rademacher_class(conj) == rademacher_class(g)


def test_rademacher_is_not_a_class_function():
    # Witness pair: conjugating by B shifts the exponent sum by 3.
    c = PSL2Element(SL2Matrix(2, 1, 1, 1))
    b = PSL2Element(SL2_B)
    assert rademacher(c) == 0
    assert rademacher(b * c * b.inverse()) == -3
    assert rademacher_class(c) == rademacher_class(b * c * b.inverse()) == 0


def test_quasimorphism_bound():
    rng = random.Random(5)
    for _ in range(2000):
        g, h = random_psl(rng, 40), random_psl(rng, 40)
        assert abs(rademacher(g * h) - rademacher(g) - rademacher(h)) <= 3


def test_psl_conjugate():
    s1 = PSL2Element(SIGMA1_BAR)
    s2 = PSL2Element(SIGMA2_BAR)
    # Explicit conjugator A, verified by matrix multiplication.
    a = PSL2Element(SL2_A)
    assert a * s1 * a.inverse() == s2
    assert psl_conjugate(s1, s2)
    assert not psl_conjugate(s2, s2 * s2)
    rng = random.Random(6)
    for _ in range(60):
        g = random_psl(rng, 20)
        h = random_psl(rng, 12)
        assert psl_conjugate(g, g)
        assert psl_conjugate(g, h * g * h.inverse())


def test_psl_conjugate_against_ball_search():
    # Oracle: search a radius-9 ball for an explicit conjugator.
    gens = [SL2_A, SL2_B, SL2_B.inverse()]
    ident = PSL2Element(SL2Matrix(1, 0, 0, 1))
    ball = {ident.rep.entries(): ident}
    frontier = [ident]
    for _ in range(9):
        nxt = []
        for g in frontier:
            for m in gens:
                h = PSL2Element(g.rep * m)
                if h.rep.entries() not in ball:
                    ball[h.rep.entries()] = h
                    nxt.append(h)
        frontier = nxt
    elements = list(ball.values())
    small = [g for g in elements if sum(abs(x) for x in g.rep.entries()) <= 6]

    def brute(g, h):
        return any(
            PSL2Element(c.rep * g.rep * c.rep.inverse()) == h for c in elements
        )

    rng = random.Random(7)
    for _ in range(400):
        g, h = rng.choice(small), rng.choice(small)
        if brute(g, h):
            assert psl_conjugate(g, h)
        if psl_conjugate(g, h):
            # For these small elements a ball conjugator always exists.
            assert brute(g, h)


def test_psl_canonicalization():
    m = SL2Matrix(-1, 0, -5, -1)
    g = PSL2Element(m)
    assert g.rep.entries() == (1, 0, 5, 1)
    assert PSL2Element(m.neg()) == g


def test_parse_matrix():
    assert parse_matrix("0 1; -1 0") == SL2_A
    with pytest.raises(ValueError):
        parse_matrix("1 0; 0 2")
    with pytest.raises(ValueError):
        parse_matrix("1 0 0 1")
    with pytest.raises(ValueError, match="token '1_0' is not a signed ASCII"):
        parse_matrix("1_0 1; 9 1")
    with pytest.raises(ValueError, match="token '\u0661' is not a signed ASCII"):
        parse_matrix("\u0661 0; 0 1")
    assert parse_matrix(" +1 0 ;\t-3 1 ") == SL2Matrix(1, 0, -3, 1)


def _sign(x: int) -> int:
    return (x > 0) - (x < 0)


def _sawtooth(x: Fraction) -> Fraction:
    return Fraction(0) if x.denominator == 1 else x - floor(x) - Fraction(1, 2)


def _dedekind_sum(h: int, k: int) -> Fraction:
    """s(h, k) = sum over r mod k of ((r/k)) ((hr/k)), for k >= 1."""
    return sum((_sawtooth(Fraction(r, k)) * _sawtooth(Fraction(h * r, k))
                for r in range(1, k)), Fraction(0))


def _rademacher_psi(a: int, b: int, c: int, d: int) -> Fraction:
    """Rademacher's Psi(A) = Phi(A) - 3 sign(c (a + d)), with Phi from the
    Dedekind sum (Rademacher-Grosswald, *Dedekind Sums*, Carus Monographs
    16, 1972)."""
    if c == 0:
        phi = Fraction(b, d)
    else:
        phi = Fraction(a + d, c) - 12 * _sign(c) * _dedekind_sum(d, abs(c))
    return phi - 3 * _sign(c * (a + d))


def test_rademacher_class_is_the_closed_form_psi():
    # A closed form shares no code with either Rademacher road, so it pins
    # the conventions (PSL normalization, the sign of a turn) both share.
    # Parabolic classes are checked too; they reach the c = 0 branch.
    rng = random.Random(2)
    checked = 0
    for _ in range(2500):
        g = random_psl(rng, 60)
        if abs(g.rep.trace) < 2:
            continue
        assert rademacher_class(g) == _rademacher_psi(*g.rep.entries()), g.rep
        checked += 1
    assert checked > 1500


def ref_random_psl(rng, max_len):
    """``sweeps.random_psl`` as a product of checked SL2Matrix objects."""
    a = SL2Matrix(0, 1, -1, 0)
    b = SL2Matrix(1, -1, 1, 0)
    choices = [a, b, b.inverse()]
    m = SL2Matrix(1, 0, 0, 1)
    for _ in range(rng.randrange(0, max_len + 1)):
        m = m * rng.choice(choices)
    return PSL2Element(m)


def test_random_psl_matches_the_matrix_product():
    for seed in range(500):
        rng, ref_rng = random.Random(seed), random.Random(seed)
        assert random_psl(rng, 60) == ref_random_psl(ref_rng, 60)
        assert rng.random() == ref_rng.random()  # the same draws were made


def test_derived_matrices_equal_their_checked_construction():
    with pytest.raises(ValueError, match="determinant"):
        SL2Matrix(2, 0, 0, 1)
    with pytest.raises(ValueError, match="determinant"):
        parse_matrix("2 0; 0 1")
    rng = random.Random(9)
    for _ in range(200):
        m, n = random_psl(rng, 30).rep, random_psl(rng, 30).rep
        for derived in (m * n, m.inverse(), m.neg()):
            checked = SL2Matrix(*derived.entries())
            assert derived == checked and hash(derived) == hash(checked)
            assert isinstance(derived, SL2Matrix) and str(derived) == str(checked)
    b = parse_braid("1 -2 1 1 2", 3)
    assert project_b3(b) == SL2Matrix(*project_b3(b).entries())


def test_normal_form_is_built_unchecked_and_equals_the_checked_one():
    with pytest.raises(ValueError, match="invalid exponent list"):
        NormalForm((2,))
    with pytest.raises(ValueError):
        NormalForm((1, 0, 1))
    for seed in range(500):
        nf = normal_form(random_psl(random.Random(seed), 40))
        checked = NormalForm(nf.exponents)
        assert nf == checked and hash(nf) == hash(checked)
        assert type(nf.exponents) is tuple and nf.to_psl() == checked.to_psl()


def ref_psl_conjugate(g, h):
    """The rotation scan that psl_conjugate ran before it compared canonical
    class words: kept as a reference."""
    wg = _cyclic_reduce(normal_form(g).syllables())
    wh = _cyclic_reduce(normal_form(h).syllables())
    if len(wg) != len(wh):
        return False
    if len(wg) <= 1:
        return wg == wh
    for shift in range(len(wg)):
        if wg[shift:] + wg[:shift] == wh:
            return True
    return False


def test_psl_conjugate_matches_the_rotation_scan():
    rng = random.Random(19)
    answers = {True: 0, False: 0}
    for i in range(20000):
        g = random_psl(rng, rng.choice((2, 6, 20)))
        if i % 2:
            c = random_psl(rng, 12)
            h = c * g * c.inverse()
        else:
            h = random_psl(rng, rng.choice((2, 6, 20)))
        answer = psl_conjugate(g, h)
        assert answer == ref_psl_conjugate(g, h), (g, h)
        answers[answer] += 1
    assert answers[True] >= 10000 and answers[False] >= 5000
