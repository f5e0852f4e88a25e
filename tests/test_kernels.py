import random

import pytest

from veerlab import _core, farey
from veerlab.modular import PSL2Element, SL2Matrix, normal_form, rademacher


def _check_both_roads(g: PSL2Element) -> list[int]:
    assert normal_form(g).to_psl() == g
    assert rademacher(g) == farey.rademacher_turns(g)
    return _core.nf_exponents(*g.rep.entries())


def test_fallback_on_large_parabolic():
    # A long normal form on small entries: 200,001 syllables and turns.
    big = (1, 0, 200_001, 1)
    r = _check_both_roads(PSL2Element(SL2Matrix(*big)))
    assert len(r) == 200_002 and sum(r) == -200_001
    assert _core.turn_letters(*big) == "L" * 200_001


def test_fallback_on_huge_entries():
    # Entries far beyond int64 with a moderate normal form: a high power
    # of the hyperbolic element B A B^-1 A.
    a, b, c, d = 1, 0, 0, 1
    for _ in range(80):
        # multiply by [[2, 1], [1, 1]] (the matrix of B A B^-1 A)
        a, b, c, d = 2 * a + b, a + b, 2 * c + d, c + d
    assert max(abs(x) for x in (a, b, c, d)) > 2**63
    r = _check_both_roads(PSL2Element(SL2Matrix(a, b, c, d)))
    assert r == [1, -1] * 80 + [0]
    assert _core.turn_letters(a, b, c, d) == "RL" * 80


def test_kernel_guards():
    with pytest.raises(ValueError):
        _core.nf_exponents(1, 0, 0, 2)
    with pytest.raises(ValueError):
        _core.turn_letters(1, 1, 1, 1)
    with pytest.raises(ValueError):
        _core.word_matrix([3])
    # Oversized output: both Rademacher roads refuse before building it.
    n = _core.MAX_SYLLABLES
    for m in [(1, 0, n + 1, 1), (1, n + 1, 0, 1), (1, 0, 10**12, 1)]:
        for kernel in (_core.nf_exponents, _core.turn_letters):
            with pytest.raises(ValueError, match="longer than 2e6 syllables"):
                kernel(*m)


# The kernels as they were before the column-operation and int-stack
# rewrites: each letter a full 2x2 product, and the reduction on
# [kind, exp] syllables.
_REF_IMAGES = {1: (1, 0, -1, 1), 2: (1, 1, 0, 1), -1: (1, 0, 1, 1), -2: (1, -1, 0, 1)}


def ref_word_matrix(letters):
    a, b, c, d = 1, 0, 0, 1
    for letter in letters:
        try:
            e, f, g, h = _REF_IMAGES[letter]
        except KeyError:
            raise ValueError(f"letter {letter!r} is not in {{1, -1, 2, -2}}")
        a, b, c, d = a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h
    return a, b, c, d


def _reduce_letters(letters):
    sylls = []
    for letter in letters:
        kind = 0 if letter == 0 else 1
        if sylls and sylls[-1][0] == kind:
            if kind == 0:
                sylls.pop()
            else:
                e = (sylls[-1][1] + letter + 1) % 3 - 1
                if e == 0:
                    sylls.pop()
                else:
                    sylls[-1][1] = e
        else:
            sylls.append([kind, letter])
    return sylls


def _sylls_to_exponents(sylls):
    if not sylls:
        return []
    exponents = []
    i = 0
    if sylls[0][0] == 1:
        exponents.append(sylls[0][1])
        i = 1
    else:
        exponents.append(0)
    while i < len(sylls):
        if i + 1 < len(sylls):
            exponents.append(sylls[i + 1][1])
            i += 2
        else:
            exponents.append(0)
            i += 1
    return exponents


def ref_nf_exponents(a, b, c, d):
    qs, t_last = _core._euclid(a, b, c, d)
    letters = []
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
    return _sylls_to_exponents(_reduce_letters(letters))


def _random_word(rng, length):
    return [rng.choice((1, -1, 2, -2)) for _ in range(length)]


@pytest.mark.parametrize("length", [0, 1, 40, 1000])
def test_kernels_match_their_references_on_random_words(length):
    rng = random.Random(length)
    for _ in range(200 if length < 1000 else 20):
        letters = _random_word(rng, length)
        m = _core.word_matrix(letters)
        assert m == ref_word_matrix(letters)
        assert _core.nf_exponents(*m) == ref_nf_exponents(*m)
        neg = tuple(-x for x in m)
        assert _core.nf_exponents(*neg) == ref_nf_exponents(*neg)


def test_kernels_match_their_references_on_large_entries():
    rng = random.Random(6)
    seen = 0
    while seen < 100:
        m = _core.word_matrix(_random_word(rng, 120))
        if min(abs(x) for x in m) <= 10**6:
            continue
        seen += 1
        assert _core.nf_exponents(*m) == ref_nf_exponents(*m)
    # Long normal forms on one large entry, and a hyperbolic power.
    for letters in ([2] * 50_003, [-1] * 50_000 + [2] * 3, [1, 2] * 40):
        m = _core.word_matrix(letters)
        assert m == ref_word_matrix(letters)
        assert _core.nf_exponents(*m) == ref_nf_exponents(*m)


@pytest.mark.parametrize("bad", [3, 0, -3, "x", None])
def test_word_matrix_names_a_bad_letter_as_before(bad):
    message = f"letter {bad!r} is not in {{1, -1, 2, -2}}"
    with pytest.raises(ValueError) as err:
        ref_word_matrix([1, bad])
    assert str(err.value) == message
    with pytest.raises(ValueError) as err:
        _core.word_matrix([1, bad])
    assert str(err.value) == message
