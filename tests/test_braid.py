import random

import pytest

from veerlab.braid import (
    BraidWord,
    braid3_equal,
    concat,
    conjugate,
    free_reduce,
    invert,
    linking_number,
    parse_braid,
    power,
    stabilize,
)
from veerlab.modular import project_b3


def test_parse_basic():
    w = parse_braid("1 2 1", 3)
    assert w.letters == (1, 2, 1)
    assert parse_braid("", 3) == BraidWord.identity(3)
    assert parse_braid("   ", 3) == BraidWord.identity(3)


@pytest.mark.parametrize("text", ["3", "0", "x", "1 0 2", "1 -4"])
def test_parse_errors_name_token(text):
    with pytest.raises(ValueError) as err:
        parse_braid(text, 3)
    bad = next(t for t in text.split() if t in ("0", "x", "3", "-4"))
    assert bad in str(err.value)


@pytest.mark.parametrize("text, bad", [
    ("\u0663", "\u0663"), ("1_0", "1_0"), ("1 2 \uff11", "\uff11"), ("+-1", "+-1"),
    ("1e3", "1e3"), ("1.0", "1.0"), ("2 -", "-"),
])
def test_parse_takes_only_ascii_decimal_tokens(text, bad):
    with pytest.raises(ValueError) as err:
        parse_braid(text, 12)
    assert f"token {bad!r} is not a signed ASCII decimal integer" in str(err.value)


def test_parse_keeps_whitespace_signs_and_token_order():
    assert parse_braid("\t+1\n-2  1\u2003", 3).letters == (1, -2, 1)
    # The first bad token is named, whichever way it is bad.
    with pytest.raises(ValueError, match="token '3' is out of range"):
        parse_braid("1 3 x", 3)
    with pytest.raises(ValueError, match="token 'x' is not"):
        parse_braid("1 x 3", 3)


def test_linking_number():
    assert linking_number(parse_braid("1 2 1", 3)) == 3
    assert linking_number(parse_braid("1 2 1 1 2 1 -1 -1 -1 -1 2 -1 2 -1", 3)) == 2
    assert linking_number(BraidWord.identity(3)) == 0


def test_free_reduce():
    assert free_reduce(parse_braid("1 -1", 3)) == BraidWord.identity(3)
    assert free_reduce(parse_braid("1 2 -2 1", 3)) == parse_braid("1 1", 3)
    assert free_reduce(parse_braid("1 2", 3)) == parse_braid("1 2", 3)


def test_word_operations():
    assert conjugate(parse_braid("1", 3), BraidWord.identity(3)) == parse_braid("1", 3)
    assert invert(parse_braid("1 2", 3)) == parse_braid("-2 -1", 3)
    stabilized = stabilize(parse_braid("1 1 1", 2))
    assert stabilized.strands == 3 and stabilized.letters == (1, 1, 1)
    with pytest.raises(ValueError):
        concat(parse_braid("1", 3), parse_braid("1", 4))
    assert power(parse_braid("1 2", 3), -2) == parse_braid("-2 -1 -2 -1", 3)


def test_braid3_equal_examples():
    assert braid3_equal(parse_braid("1 2 1", 3), parse_braid("2 1 2", 3))
    assert braid3_equal(
        parse_braid("1 2 1 1 2 1 -1 -1 -1 -1", 3),
        parse_braid("2 1 -2 1 2 -1", 3),
    )
    # sigma_1 and sigma_2 have distinct images, computed independently.
    assert project_b3(parse_braid("1", 3)) != project_b3(parse_braid("2", 3))
    assert not braid3_equal(parse_braid("1", 3), parse_braid("2", 3))
    with pytest.raises(ValueError):
        braid3_equal(parse_braid("1", 4), parse_braid("1", 4))


def test_linking_number_properties():
    rng = random.Random(0)
    for _ in range(300):
        a = BraidWord(4, tuple(rng.choice([1, -1, 2, -2, 3, -3]) for _ in range(rng.randrange(0, 20))))
        b = BraidWord(4, tuple(rng.choice([1, -1, 2, -2, 3, -3]) for _ in range(rng.randrange(0, 20))))
        assert linking_number(concat(a, b)) == linking_number(a) + linking_number(b)
        assert linking_number(conjugate(a, b)) == linking_number(a)
        assert linking_number(free_reduce(a)) == linking_number(a)


def test_braid3_equal_is_equivalence_and_invariant():
    rng = random.Random(1)
    words = [
        BraidWord(3, tuple(rng.choice([1, -1, 2, -2]) for _ in range(rng.randrange(0, 12))))
        for _ in range(40)
    ]
    for w in words:
        assert braid3_equal(w, w)
        assert braid3_equal(w, free_reduce(w))
        # Inserting the braid relation preserves equality.
        spot = rng.randrange(0, len(w.letters) + 1)
        inserted = BraidWord(
            3, w.letters[:spot] + (1, 2, 1, -2, -1, -2) + w.letters[spot:]
        )
        assert braid3_equal(w, inserted)


def test_constructor_and_parser_still_check_every_letter():
    with pytest.raises(ValueError, match="not a generator index for B_3"):
        BraidWord(3, (3,))
    with pytest.raises(ValueError, match="not a generator index"):
        BraidWord(4, (1, 0))
    with pytest.raises(ValueError, match="out of range for B_3"):
        parse_braid("3", 3)


def test_derived_words_equal_their_checked_construction():
    rng = random.Random(5)
    gens = [1, -1, 2, -2, 3, -3]
    for _ in range(200):
        a = BraidWord(4, tuple(rng.choice(gens) for _ in range(rng.randrange(0, 12))))
        g = BraidWord(4, tuple(rng.choice(gens) for _ in range(rng.randrange(0, 6))))
        n = rng.randrange(-3, 4)
        derived = [concat(a, g), invert(a), power(a, n), conjugate(a, g),
                   free_reduce(a), stabilize(a)]
        for word in derived:
            checked = BraidWord(word.strands, word.letters)
            assert type(word.letters) is tuple
            assert word == checked and hash(word) == hash(checked)
            assert str(word) == str(checked) and len(word) == len(checked)
        assert linking_number(a) == sum(1 if x > 0 else -1 for x in a.letters)
