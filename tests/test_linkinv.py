import functools
import random
from fractions import Fraction
from math import gcd

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


def _brieskorn_count(p: int, q: int) -> int:
    """Signature of the torus knot T(p, q), p and q coprime, as a lattice
    count: a pair 0 < i < p, 0 < j < q counts -1 when 1/2 < i/p + j/q < 3/2
    and +1 otherwise (Brieskorn, Invent. Math. 2 (1966); Hirzebruch-Zagier,
    *The Atiyah-Singer theorem and elementary number theory*, 1974)."""
    return sum(-1 if p * q < 2 * (i * q + j * p) < 3 * p * q else 1
               for i in range(1, p) for j in range(1, q))


def test_torus_knot_signatures_match_the_lattice_count():
    # The closure of (s_1 ... s_(p-1))^q is T(p, q).  A closed form shares
    # no code with either engine, so it pins the conventions they share.
    checked = 0
    for p in range(2, 8):
        for q in range(2, 14):
            if gcd(p, q) != 1:
                continue
            w = BraidWord(p, tuple(range(1, p)) * q)
            expected = _brieskorn_count(p, q)
            assert linkinv.seifert_signature(w) == expected, (p, q)
            assert linkinv.meyer_signature(w) == expected, (p, q)
            checked += 1
    assert checked == 45


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
    real_solve = linkinv._image_solve
    ranks = []

    def forged(form, m, c):
        # Forge the final rank, rank(g - I) after the last letter, two below
        # the generic rank of the last segment.
        r, solution = real_solve(form, m, c)
        ranks.append(r)
        return (r - 2 if len(ranks) == len(w) + 1 else r), solution

    monkeypatch.setattr(linkinv, "_image_solve", forged)
    with pytest.raises(AssertionError, match="rank drop"):
        linkinv.maslov_of_word(w)
    assert ranks == [0, 1, 2]  # one solve per letter, then the final rank
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
    from test_linalg import ref_particular_solution
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
        inconsistent += ref_particular_solution(b_minus, target) is None
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
    """The rational reading of a rank-one pencil A + t x y^T: (rank A,
    generic rank, t* or None), from a Fraction nullspace of [A | x]."""
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


@functools.lru_cache(maxsize=None)
def _engine_words():
    """2100 words in B_3-B_11 for the per-letter solve: 1400 random ones and
    700 structured ones (powers of Delta and of one letter, w w^-1,
    conjugates and powers of short words), embedded in odd strand counts."""
    from veerlab import burau
    from veerlab.braid import invert, power

    rng = random.Random(65)
    words = [random_word(rng, 3 + k % 9, 12 if k % 9 < 5 else 8) for k in range(1400)]
    for k in range(700):
        n = 3 + k % 9
        i = rng.randint(1, n - 1)
        g, h = random_word(rng, n, 5), random_word(rng, n, 4)
        delta = BraidWord(n, tuple(j for top in range(n - 1, 0, -1) for j in range(1, top + 1)))
        words.append([
            power(delta, rng.choice((-1, 1)) * (1 + (n <= 5))),
            BraidWord(n, (rng.choice((-i, i)),) * rng.randint(2, 8)),
            concat(g, invert(g)),
            conjugate(h, g),
            power(h, rng.randint(2, 3)),
        ][k % 5])
    return [burau._odd_word(w) for w in words]


def _prefixes():
    """(form, letter, P) for every letter of every engine word, P the image
    of the letters before it, each built by `burau_matrix` on its own."""
    from veerlab import burau

    for w in _engine_words():
        form = burau.homology_rep(w.strands).form
        for k, letter in enumerate(w.letters):
            yield form, letter, burau.burau_matrix(BraidWord(w.strands, w.letters[:k]))


def _minus_id(m):
    return [[x - (i == j) for j, x in enumerate(row)] for i, row in enumerate(m)]


def test_integer_pencil_matches_the_rational_reading(monkeypatch):
    # Every segment the crossing count reads from the shared solve matches
    # the rational reading of its pencil P - I + t x y^T, x = -s P C and
    # y_j = omega(C_j, C), on every prefix P of the engine words.  t* = 1
    # lies on the boundary, which the segment ends count, not the interior.
    from veerlab import burau

    real_term = linkinv._segment_term
    seen = []
    monkeypatch.setattr(linkinv, "_segment_term", lambda *a: seen.append(a) or real_term(*a))
    for w in _engine_words():
        linkinv.maslov_of_word(w)
    counts = dict.fromkeys(("rank_up", "interior", "boundary"), 0)
    refs = []
    for form, letter, p in _prefixes():
        s, c = burau._letter(letter)
        x = [-s * row[c] for row in p]
        y = [row[c] for row in form]
        r0, r_g, t_star = ref_pencil(_minus_id(p), x, y)
        refs.append((s, r0, r_g, t_star is not None and 0 < t_star < 1))
        counts["rank_up"] += r_g > r0
        counts["interior"] += refs[-1][3]
        counts["boundary"] += t_star == 1
    assert len(refs) >= 10000
    assert [term[:4] for term in seen] == refs
    assert all(counts.values()), counts


def test_image_solve_matches_the_reference_solution_on_every_suffix():
    # The Meyer engine's question on every suffix B of the engine words:
    # the shared solve's rank and omega(a, C) = w / den against a plain
    # particular solution of (B - I) a = C, and the term's sign with it.
    from test_linalg import ref_particular_solution
    from veerlab import burau, linalg

    values = {-1: 0, 0: 0, 1: 0}
    checked = 0
    for w in _engine_words():
        form = burau.homology_rep(w.strands).form
        for k, letter in enumerate(w.letters):
            s, c = burau._letter(letter)
            suffix = burau.burau_matrix(BraidWord(w.strands, w.letters[k + 1:]))
            a = _minus_id(suffix)
            ref = ref_particular_solution(a, [int(i == c) for i in range(len(a))])
            rank, solution = linkinv._image_solve(form, suffix, c)
            assert rank == linalg.rank(linalg.frac_matrix(a))
            assert (solution is None) == (ref is None)
            term = linkinv.meyer_letter(form, letter, suffix)
            if ref is not None:
                x, den = ref
                omega = Fraction(sum(xj * row[c] for xj, row in zip(x, form)), den)
                assert solution[1] > 0 and Fraction(*solution) == omega
                assert term == (s > omega) - (s < omega)
            else:
                assert term == 0
            values[term] += 1
            checked += 1
    assert checked >= 10000 and all(values.values()), values


def test_c_in_the_image_exactly_when_the_fixed_vectors_are_omega_orthogonal():
    # The lemma behind reading both engines from one solve: for symplectic
    # P, im(P - I) = ker(P - I)^omega, so C is in im(P - I) exactly when
    # omega(k, C) = 0 for every fixed vector k of P.
    from test_linalg import ref_int_nullspace, ref_particular_solution
    from veerlab import burau

    inside = outside = 0
    for form, letter, p in _prefixes():
        c = burau._letter(letter)[1]
        a = _minus_id(p)
        in_image = ref_particular_solution(a, [int(i == c) for i in range(len(a))]) is not None
        orthogonal = all(sum(kj * row[c] for kj, row in zip(k, form)) == 0
                         for k in ref_int_nullspace(a))
        assert in_image == orthogonal == (linkinv._image_solve(form, p, c)[1] is not None)
        inside += in_image
        outside += not in_image
    assert inside > 0 and outside > 0


def test_crossing_count_needs_no_nullspace(monkeypatch):
    from veerlab import linalg

    words = _crossing_words()
    charts = [linkinv.maslov_by_charts(w) for w in words]

    def forbidden(*args, **kwargs):
        raise AssertionError("Fraction nullspace entered")

    monkeypatch.setattr(linalg, "nullspace", forbidden)
    for w, mu in zip(words, charts):
        assert linkinv.maslov_of_word(w) == mu, w


def test_maslov_needs_no_chart_coordinates_solve_or_inverse(monkeypatch):
    from veerlab import burau, linalg
    from veerlab import symplectic as sp
    from veerlab.sweeps import _line_segment, _random_transverse_triple

    # The chart engine reads its charts from omega-pairings: with the
    # solve-based chart and every Fraction solve or inverse gone, the
    # graph paths of the crossing words and one ternary-lemma triple
    # still give their Maslov indices.
    cases = []
    for w in _crossing_words():
        b = burau._odd_word(w)
        space = burau.symplectic_space(b.strands)
        gid = sp.graph_lagrangian(space, linalg.identity(b.strands - 1))
        cases.append((burau.graph_path_of(b), gid, linkinv.maslov_of_word(w)))
    space, l1, l2, l3, u1, u2, a = _random_transverse_triple(2, random.Random(62))
    g13 = sp.LagrangianPath(space, (_line_segment(u1, linalg.mat_mul(u2, a)),))
    g23 = sp.LagrangianPath(space, (_line_segment(u2, linalg.mat_mul(u1, linalg.inverse(a))),))
    g12, g31 = g13.concat(g23.reversed()), g13.reversed()
    lemma = sp.ternary_index(l1, l2, l3)

    def forbidden(*args, **kwargs):
        raise AssertionError("solve-based chart entered")

    monkeypatch.setattr(sp, "chart_coordinates", forbidden)
    monkeypatch.setattr(linalg, "solve", forbidden)
    monkeypatch.setattr(linalg, "inverse", forbidden)
    for path, gid, mu in cases:
        assert sp.maslov_index(path, gid) == mu
    total = sp.maslov_index(g12, l1) + sp.maslov_index(g23, l2) + sp.maslov_index(g31, l3)
    assert 2 * total == lemma
