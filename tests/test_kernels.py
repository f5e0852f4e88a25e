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
