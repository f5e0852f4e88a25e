import random
from fractions import Fraction

import pytest

from veerlab import linkinv
from veerlab.braid import (
    BraidWord,
    concat,
    conjugate,
    parse_braid,
    stabilize,
)
from veerlab.sweeps import random_word
from veerlab.torus import quasipositive_verdict


def test_seifert_fixtures():
    # A single generator closes to an unknot split union: disk surface.
    assert linkinv.seifert_signature(parse_braid("1", 3)) == 0
    # Positive Hopf link and right trefoil calibrate the sign convention.
    assert linkinv.seifert_signature(parse_braid("1 1", 2)) == -1
    assert linkinv.seifert_signature(parse_braid("1 1 1", 2)) == -2
    assert linkinv.seifert_signature(parse_braid("-1 -1", 2)) == 1
    assert linkinv.seifert_signature(parse_braid("-1 -1 -1", 2)) == 2
    assert linkinv.seifert_signature(BraidWord.identity(3)) == 0


def test_seifert_known_links():
    # Figure eight, torus links/knots with classical signature values.
    assert linkinv.seifert_signature(parse_braid("1 -2 1 -2", 3)) == 0
    assert linkinv.seifert_signature(parse_braid("1 2 1 2", 3)) == -2
    assert linkinv.seifert_signature(parse_braid("1 2 1 2 1 2", 3)) == -4
    assert linkinv.seifert_signature(parse_braid("1 2 1 2 1 2 1 2", 3)) == -6
    assert linkinv.seifert_signature(parse_braid("1 1 1 1", 2)) == -3
    assert linkinv.seifert_signature(parse_braid("1 1 1 1 1", 2)) == -4


def test_seifert_matrix_trefoil():
    v = linkinv.seifert_matrix(parse_braid("1 1 1", 2))
    sym = [[v[i][j] + v[j][i] for j in range(2)] for i in range(2)]
    assert sym == [[-2, 1], [1, -2]]


def test_meyer_engine_fixtures():
    assert linkinv.meyer_signature(BraidWord.identity(3)) == 0
    assert linkinv.meyer_signature(parse_braid("1 1", 3)) == -1
    assert linkinv.meyer_signature(parse_braid("1 1 1", 3)) == -2


def test_dual_engines_agree():
    rng = random.Random(51)
    for _ in range(60):
        strands = rng.choice([3, 5])
        w = random_word(rng, strands, 12)
        assert linkinv.seifert_signature(w) == linkinv.meyer_signature(w), w


def test_dual_engines_agree_b7():
    rng = random.Random(58)
    for _ in range(8):
        w = random_word(rng, 7, 9)
        assert linkinv.seifert_signature(w) == linkinv.meyer_signature(w), w


def test_conjugation_invariance():
    rng = random.Random(52)
    for _ in range(40):
        w = random_word(rng, 3, 10)
        g = random_word(rng, 3, 6)
        assert linkinv.seifert_signature(conjugate(w, g)) == linkinv.seifert_signature(w)


def test_stabilization_invariance():
    rng = random.Random(53)
    for _ in range(40):
        w = random_word(rng, 3, 10)
        markov = concat(stabilize(w), BraidWord(4, (3,)))
        assert linkinv.seifert_signature(markov) == linkinv.seifert_signature(w)


def test_split_closures():
    # Unused columns give split unions; the pairing is the direct sum.
    w = parse_braid("1 1 1", 4)  # trefoil plus two split unknots
    assert linkinv.seifert_signature(w) == -2


def test_sign_maslov_generator():
    report = linkinv.verify_sign_maslov(parse_braid("1", 3))
    assert report["equal"]
    assert report["mu"] == Fraction(1, 2) and report["sign"] == 0 and report["lk"] == 1


def test_sign_maslov_sweep():
    rng = random.Random(54)
    for _ in range(20):
        strands = rng.choice([3, 5])
        w = random_word(rng, strands, 9)
        assert linkinv.verify_sign_maslov(w)["equal"], w


def test_eq_signature():
    report = linkinv.verify_eq_signature(parse_braid("1", 3), parse_braid("1", 3))
    assert report["equal"]
    assert report["sign_ab"] == -1 and report["sign_a"] == report["sign_b"] == 0
    assert report["meyer"] == 1
    rng = random.Random(55)
    for _ in range(25):
        strands = rng.choice([3, 5])
        a = random_word(rng, strands, 9)
        b = random_word(rng, strands, 9)
        assert linkinv.verify_eq_signature(a, b)["equal"]
    ident = BraidWord.identity(3)
    report = linkinv.verify_eq_signature(ident, parse_braid("1 2", 3))
    assert report["equal"] and report["meyer"] == 0


def test_gg_remark():
    rng = random.Random(56)
    done = 0
    while done < 40:
        w = random_word(rng, 3, 14)
        try:
            report = linkinv.gg_remark_check(w)
        except ValueError:
            continue
        assert report["equal"], report
        done += 1
    with pytest.raises(ValueError):
        linkinv.gg_remark_check(parse_braid("1", 3))  # reducible image
    with pytest.raises(ValueError):
        linkinv.gg_remark_check(parse_braid("1", 5))


def test_quasipositive_signature_shadow():
    # For verified-quasipositive words, sign <= 2 mu.
    rng = random.Random(57)
    for _ in range(15):
        witness = [
            (tuple(rng.choice([1, -1, 2, -2]) for _ in range(rng.randrange(0, 3))),
             rng.choice([1, 2]))
            for _ in range(rng.randrange(1, 4))
        ]
        from veerlab.torus import _witness_product

        w = _witness_product(3, witness)
        assert quasipositive_verdict(w, witness=witness).value == "yes"
        sign = linkinv.seifert_signature(w)
        mu = linkinv.maslov_of_word(w)
        assert Fraction(sign) <= 2 * mu


def _crossing_words():
    """About 100 seeded words for the crossing-count engine: the empty word,
    single letters, even strand counts (embedded), positive-only and
    periodic words, and B_9."""
    rng = random.Random(59)
    words = [BraidWord.identity(n) for n in (2, 3, 4, 5)]
    words += [BraidWord(n, (k,)) for n in (3, 4, 5) for k in range(-(n - 1), n) if k]
    for n in (3, 4, 5, 6, 7):
        words += [random_word(rng, n, 12 if n < 7 else 8) for _ in range(10)]
    for n in (3, 5):
        words += [BraidWord(n, tuple(rng.randint(1, n - 1) for _ in range(10))) for _ in range(4)]
    for n in (3, 4, 5):
        for _ in range(3):
            base = random_word(rng, n, 3).letters or (1,)
            words.append(BraidWord(n, base * (9 // len(base))))
    words += [random_word(rng, 9, 6) for _ in range(6)]
    words.append(BraidWord(9, (1, 3, 5, 7, 2, 4, 6, 8)))
    return words


def test_crossing_count_matches_chart_engine():
    words = _crossing_words()
    assert len(words) >= 95
    for w in words:
        assert linkinv.maslov_of_word(w) == linkinv.maslov_by_charts(w), w
    assert linkinv.maslov_of_word(BraidWord.identity(3)) == 0
    assert linkinv.maslov_of_word(parse_braid("1", 3)) == Fraction(1, 2)
    assert linkinv.maslov_of_word(parse_braid("-2", 3)) == Fraction(-1, 2)


def test_crossing_count_rejects_a_rank_two_drop(monkeypatch):
    from veerlab import burau, linalg

    w = parse_braid("1 2", 3)
    g = burau.burau_matrix(w)
    assert linalg.rank([[x - (i == j) for j, x in enumerate(row)] for i, row in enumerate(g)]) == 2
    real_rank = linalg.rank
    # Forge the final rank two below the generic rank of the last segment.
    monkeypatch.setattr(linalg, "rank", lambda m: real_rank(m) - 2)
    with pytest.raises(AssertionError, match="rank drop"):
        linkinv.maslov_of_word(w)
    with pytest.raises(AssertionError, match="rank drop"):
        linkinv._segment_term(1, 3, 3, None, 1)


def test_crossing_check_detects_a_flipped_segment(monkeypatch):
    words = _crossing_words()[:40]
    charts = [linkinv.maslov_by_charts(w) for w in words]
    real_term = linkinv._segment_term
    seen = []

    def flip_first(*args):
        term = real_term(*args)
        seen.append(term)
        return -term if len(seen) == 1 else term

    misses = 0
    for w, mu in zip(words, charts):
        seen.clear()
        monkeypatch.setattr(linkinv, "_segment_term", flip_first)
        misses += linkinv.maslov_of_word(w) != mu
        monkeypatch.setattr(linkinv, "_segment_term", real_term)
        assert linkinv.maslov_of_word(w) == mu
    assert misses > 0


def _letter_pairs():
    """Seeded (strands, letter, suffix word) pairs in B_3-B_9, suffix length
    0-14, plus every letter of B_3 and B_5 against the identity suffix."""
    rng = random.Random(60)
    pairs = []
    for _ in range(320):
        n = rng.choice([3, 5, 7, 9])
        letter = rng.choice([k for k in range(-(n - 1), n) if k])
        pairs.append((n, letter, random_word(rng, n, 14)))
    pairs += [(n, k, BraidWord.identity(n)) for n in (3, 5) for k in range(-(n - 1), n) if k]
    return pairs


def test_rank_one_term_matches_the_closed_form():
    from veerlab import burau, linalg, symplectic

    values = []
    inconsistent = 0
    for n, letter, w in _letter_pairs():
        rep = burau.homology_rep(n)
        suffix = burau.burau_matrix(w)
        term = linkinv.meyer_letter(rep.form, letter, suffix)
        closed = symplectic.meyer_closed_form(
            burau.symplectic_space(n),
            linalg.frac_matrix(rep.image(letter)),
            linalg.frac_matrix(suffix),
        )
        assert term == closed, (n, letter, w)
        values.append(term)
        b_minus = [[x - (i == j) for j, x in enumerate(row)] for i, row in enumerate(suffix)]
        target = [int(i == abs(letter) - 1) for i in range(n - 1)]
        inconsistent += linalg.particular_solution(b_minus, target) is None
    assert len(values) >= 300
    assert {-1, 0, 1} <= set(values)
    assert inconsistent > 0


def test_meyer_signature_needs_no_fraction_matrices(monkeypatch):
    from veerlab import burau, linalg, symplectic

    words = _crossing_words()
    seifert = [linkinv.seifert_signature(w) for w in words]
    for n in (3, 5, 7, 9):
        burau.homology_rep(n)  # validated once, before the raisers go in

    def forbidden(*args, **kwargs):
        raise AssertionError("Fraction matrix path entered")

    monkeypatch.setattr(symplectic, "meyer_closed_form", forbidden)
    monkeypatch.setattr(linalg, "inverse", forbidden)
    monkeypatch.setattr(linalg, "mat_mul", forbidden)
    monkeypatch.setattr(symplectic.SymplecticSpace, "is_symplectic_matrix", forbidden)
    assert linkinv.meyer_signature(parse_braid("1 1", 3)) == -1
    assert linkinv.meyer_signature(parse_braid("1 1 1", 2)) == -2
    assert linkinv.meyer_signature(parse_braid("1 2 1 2 1 2", 3)) == -4
    for w, s in zip(words, seifert):
        assert linkinv.meyer_signature(w) == s, w


def test_seifert_signature_matches_the_reference_elimination():
    from test_linalg import ref_signature

    rng = random.Random(62)
    sizes = set()
    for k in range(240):
        w = random_word(rng, 2 + k % 8, 60)
        v = linkinv.seifert_matrix(w)
        sym = [[Fraction(x + y) for x, y in zip(row, col)] for row, col in zip(v, zip(*v))]
        assert linkinv.seifert_signature(w) == ref_signature(sym), w
        sizes.add(len(v))
    assert max(sizes) >= 40


def ref_pencil(a, x, y):
    """The rational reading of `_pencil`: (rank A, generic rank, t* or None),
    from a Fraction nullspace of [A | x]."""
    from veerlab import linalg

    dim = len(a)
    null = linalg.nullspace([list(row) + [xi] for row, xi in zip(a, x)])
    part = next((v for v in null if v[dim]), None)
    if part is None:
        kernel = [v[:dim] for v in null]
    else:
        kernel = [
            [vi - v[dim] / part[dim] * pi for vi, pi in zip(v[:dim], part[:dim])]
            for v in null
            if v is not part
        ]
    r0 = dim - len(kernel)
    y_in = all(sum(yi * ki for yi, ki in zip(y, k)) == 0 for k in kernel)
    if part is None:
        return r0, r0 if y_in else r0 + 1, None
    if not y_in:
        return r0, r0, None
    q = -sum(yi * pi for yi, pi in zip(y, part[:dim])) / part[dim]  # y^T a
    return r0, r0, (-1 / q if q else None)


def test_integer_pencil_matches_the_rational_reading():
    # One dimension: a + t x y drops at t* = -a / (x y).  t* = 1 lies on
    # the boundary, which the segment ends count, not the interior.
    for a, x, y, inner in [(1, 1, -1, False), (1, 1, -2, True), (2, 1, -1, False),
                           (1, 1, 1, False), (-2, 1, 4, True), (-2, -1, -4, True),
                           (3, 1, -3, False), (3, 2, -3, True), (0, 1, 1, False)]:
        assert linkinv._pencil([[a]], [x], [y])[2] is inner, (a, x, y)
    rng = random.Random(63)
    boundary = interior = 0
    for k in range(600):
        dim = rng.randint(1, 5)
        a = [[rng.randint(-2, 2) * (rng.random() < 0.6) for _ in range(dim)] for _ in range(dim)]
        if k % 3 == 0:  # rank deficient
            a[rng.randrange(dim)] = [0] * dim
        x = [rng.randint(-2, 2) for _ in range(dim)]
        y = [rng.randint(-2, 2) for _ in range(dim)]
        r0, r_g, t_star = ref_pencil(a, x, y)
        assert linkinv._pencil(a, x, y) == (r0, r_g, t_star is not None and 0 < t_star < 1)
        boundary += t_star == 1
        interior += t_star is not None and 0 < t_star < 1
    assert boundary > 0 and interior > 0


def test_crossing_count_needs_no_nullspace(monkeypatch):
    from veerlab import linalg

    words = _crossing_words()
    charts = [linkinv.maslov_by_charts(w) for w in words]

    def forbidden(*args, **kwargs):
        raise AssertionError("Fraction nullspace entered")

    monkeypatch.setattr(linalg, "nullspace", forbidden)
    for w, mu in zip(words, charts):
        assert linkinv.maslov_of_word(w) == mu, w
