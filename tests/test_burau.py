import dataclasses
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import pytest

from veerlab import burau, linalg, poly
from veerlab import symplectic as sp
from veerlab.braid import BraidWord, linking_number, parse_braid
from veerlab.sweeps import random_word


def test_generator_blocks():
    rep3 = burau.homology_rep(3)
    assert rep3.image(1) == [[1, 1], [0, 1]]
    rep5 = burau.homology_rep(5)
    # sigma_2 in B_5: the 3x3 block A2 in rows 1-3.
    assert rep5.image(2) == [
        [1, 0, 0, 0], [-1, 1, 1, 0], [0, 0, 1, 0], [0, 0, 0, 1],
    ]
    assert burau.burau_matrix(parse_braid("1", 3)) == ((1, 1), (0, 1))


def test_braid_relations_hold():
    for n in (3, 5, 7):
        for i in range(1, n - 1):
            assert burau.burau_matrix(BraidWord(n, (i, i + 1, i))) == burau.burau_matrix(
                BraidWord(n, (i + 1, i, i + 1))
            )
        for i in range(1, n):
            for j in range(i + 2, n):
                assert burau.burau_matrix(BraidWord(n, (i, j))) == burau.burau_matrix(
                    BraidWord(n, (j, i))
                )
    assert burau.burau_matrix(parse_braid("1 2 1", 5)) == burau.burau_matrix(
        parse_braid("2 1 2", 5)
    )


def test_homomorphism_and_symplectic():
    rng = random.Random(41)
    for n in (3, 5, 7):
        space = burau.symplectic_space(n)
        for _ in range(50):
            a = random_word(rng, n, 10)
            b = random_word(rng, n, 10)
            ma = linalg.frac_matrix(burau.burau_matrix(a))
            mb = linalg.frac_matrix(burau.burau_matrix(b))
            mab = linalg.frac_matrix(
                burau.burau_matrix(BraidWord(n, a.letters + b.letters))
            )
            assert linalg.mat_mul(ma, mb) == mab
            assert space.is_symplectic_matrix(ma)


def test_symplectic_condition_at_scale():
    rng = random.Random(45)
    for n in (3, 5, 7):
        space = burau.symplectic_space(n)
        for _ in range(340):
            w = random_word(rng, n, 14)
            assert space.is_symplectic_matrix(
                linalg.frac_matrix(burau.burau_matrix(w))
            )


def test_intersection_form():
    form = burau.intersection_form(2)
    for i in range(4):
        for j in range(4):
            expected = (1 if j == i + 1 else 0) - (1 if j == i - 1 else 0)
            assert form[i][j] == expected
    # The one builder of the dense form: skew with zero diagonal, so every
    # twist is symplectic.  The dense space is built from it, and each
    # letter image is the twist I - s C_i y^T with y_j = form[j][i - 1].
    for genus in (1, 2, 5, 20):
        form = burau.intersection_form(genus)
        assert linalg.is_skew(form)
        assert all(type(x) is int for row in form for x in row)
        assert [list(row) for row in burau.symplectic_space(2 * genus + 1).form] == (
            linalg.frac_matrix(form))
        rep = burau.homology_rep(2 * genus + 1)
        for i in range(1, 2 * genus + 1):
            for s in (1, -1):
                assert rep.image(s * i) == ref_form_twist(form, i, s), (genus, s * i)


def ref_form_twist(form, i: int, s: int) -> list[list[int]]:
    """T = I - s C y^T for C = C_i, with y_j = omega(C_j, C) read from the
    dense form."""
    dim = len(form)
    return [[int(r == c) - s * int(r == i - 1) * form[c][i - 1] for c in range(dim)]
            for r in range(dim)]


def test_embed_even():
    w = parse_braid("1 1 1", 2)
    e = burau.embed_even(w)
    assert e.strands == 3 and e.letters == (1, 1, 1)
    assert burau.embed_even(BraidWord.identity(4)) == BraidWord.identity(5)
    assert linking_number(e) == linking_number(w)
    with pytest.raises(ValueError):
        burau.embed_even(parse_braid("1", 3))


def test_lift_segments():
    lf = burau.lift(parse_braid("1", 3))
    seg = lf.segment_matrices()[0]
    assert sp.pm_eval(seg, Fraction(1, 2)) == linalg.frac_matrix(
        [[1, Fraction(1, 2)], [0, 1]]
    )
    rng = random.Random(42)
    for n in (3, 5):
        for _ in range(15):
            w = random_word(rng, n, 8)
            lf = burau.lift(w)
            end = sp.pm_eval(lf.segment_matrices()[-1], Fraction(1))
            assert end == linalg.frac_matrix(burau.burau_matrix(w))
            # Segments chain continuously from the identity.
            prev = linalg.identity(n - 1)
            for seg in lf.segment_matrices():
                assert sp.pm_eval(seg, Fraction(0)) == prev
                prev = sp.pm_eval(seg, Fraction(1))


def test_negative_letter_path_is_pointwise_inverse():
    for n in (3, 5):
        for i in range(1, n):
            pos = burau.lift(BraidWord(n, (i,))).segment_matrices()[0]
            neg = burau.lift(BraidWord(n, (-i,))).segment_matrices()[0]
            for t in (Fraction(0), Fraction(1, 3), Fraction(1)):
                prod = linalg.mat_mul(sp.pm_eval(pos, t), sp.pm_eval(neg, t))
                assert prod == linalg.identity(n - 1)


def test_braid_relation_rewrite_preserves_maslov():
    # The lift is well-defined: rewriting with the braid relation does not
    # change the Maslov index of the graph path.
    rng = random.Random(43)
    for n in (3, 5):
        space = burau.symplectic_space(n)
        gid = sp.graph_lagrangian(space, linalg.identity(n - 1))
        for _ in range(4):
            tail = random_word(rng, n, 4)
            i = rng.randrange(1, n - 1)
            w1 = BraidWord(n, (i, i + 1, i) + tail.letters)
            w2 = BraidWord(n, (i + 1, i, i + 1) + tail.letters)
            mu1 = sp.maslov_index(burau.graph_path_of(w1), gid)
            mu2 = sp.maslov_index(burau.graph_path_of(w2), gid)
            assert mu1 == mu2


def test_odd_strands_required():
    with pytest.raises(ValueError):
        burau.homology_rep(4)
    # burau_matrix embeds even words automatically.
    m = burau.burau_matrix(parse_braid("1 1 1", 2))
    assert m == burau.burau_matrix(parse_braid("1 1 1", 3))


def test_invariant_checks_survive_optimized_mode():
    # Internal invariants raise AssertionError explicitly, so `python -O`
    # (which strips assert statements) keeps them.
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = (
        "from veerlab import linkinv\n"
        "try:\n"
        "    linkinv._segment_term(1, 0, 3, False, 3)  # a rank drop of 3\n"
        "except AssertionError:\n"
        "    raise SystemExit(0)\n"
        "raise SystemExit('invariant check was skipped')\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stdout + done.stderr


def test_symplectic_space_built_once():
    assert burau.symplectic_space(5) is burau.symplectic_space(5)
    assert burau.symplectic_space(5).doubled() is burau.symplectic_space(5).doubled()


def test_inverse_images_are_stored_and_integral():
    for n in (3, 5, 7, 9):
        rep = burau.homology_rep(n)
        for i in range(1, n):
            assert rep.image(-i) == linalg.inverse(linalg.frac_matrix(rep.image(i)))
            assert all(type(x) is int for row in rep.image(-i) for x in row)
        # The representation stores its strand count and nothing dense.
        assert [f.name for f in dataclasses.fields(rep)] == ["strands"]


def ref_burau_matrix(b):
    """The dense reference: one O(dim^3) product per letter image."""
    b = burau._odd_word(b)
    dim = b.strands - 1
    out = [[int(i == j) for j in range(dim)] for i in range(dim)]
    for letter in b.letters:
        img = ref_twist_matrix(dim, abs(letter), 1 if letter > 0 else -1)
        out = [
            [sum(out[i][k] * img[k][j] for k in range(dim)) for j in range(dim)]
            for i in range(dim)
        ]
    return tuple(tuple(row) for row in out)


def test_burau_matrix_matches_the_dense_reference():
    rng = random.Random(2711)
    for n in range(2, 12):
        words = [BraidWord.identity(n)] + [random_word(rng, n, 12) for _ in range(25)]
        for w in words:
            m = burau.burau_matrix(w)
            assert m == ref_burau_matrix(w), w
            assert type(m) is tuple and all(type(row) is tuple for row in m)


def ref_dense_check(form, gens, invs) -> bool:
    """The dense validation: g^T Omega g == Omega and inverse(g) == the
    given inverse, in Fraction arithmetic."""
    omega = linalg.frac_matrix(form)
    for g, g_inv in zip(gens, invs):
        gm = linalg.frac_matrix(g)
        if linalg.mat_mul(linalg.mat_mul(linalg.transpose(gm), omega), gm) != omega:
            return False
        if linalg.inverse(gm) != linalg.frac_matrix(g_inv):
            return False
    return True


def ref_twist_matrix(dim: int, i: int, scale: int = 1) -> list[list[int]]:
    """The dense image of sigma_i^scale, written out entry by entry."""
    m = [[int(r == c) for c in range(dim)] for r in range(dim)]
    if i - 2 >= 0:
        m[i - 1][i - 2] = -scale
    if i <= dim - 1:
        m[i - 1][i] = scale
    return m


def test_letter_images_match_the_dense_reference():
    for n in range(3, 42, 2):
        rep = burau.homology_rep(n)
        dim = n - 1
        gens = [ref_twist_matrix(dim, i) for i in range(1, n)]
        invs = [ref_twist_matrix(dim, i, -1) for i in range(1, n)]
        assert ref_dense_check(burau.intersection_form(dim // 2), gens, invs), n
        for i in range(1, n):
            assert rep.image(i) == gens[i - 1] and rep.image(-i) == invs[i - 1], (n, i)


def _ref_mul(a, b):
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def test_twists_match_the_dense_transvection():
    # The closed-form neighbours against T = I - s C y^T, y_j = omega(C_j, C)
    # read from the dense form: T m on the left, m T on the right, on random
    # integer m, for the first, the last and an interior generator.
    rng = random.Random(4601)
    genera = [1, 2, 40] + [rng.randint(1, 40) for _ in range(6)]
    for genus in genera:
        form, dim = burau.intersection_form(genus), 2 * genus
        m = [[rng.randint(-9, 9) for _ in range(dim)] for _ in range(dim)]
        for i in {1, dim, rng.randint(1, dim)}:
            for s in (1, -1):
                t = ref_form_twist(form, i, s)
                left = [list(row) for row in m]
                burau._twist_rows(s * i, left)
                assert left == _ref_mul(t, m), (genus, s * i)
                right = [list(row) for row in m]
                burau._twist_cols(s * i, right)
                assert right == _ref_mul(m, t), (genus, s * i)


def test_homology_rep_allocates_nothing_dense():
    # The widest representation costs a bound check, not a dim x dim form.
    tracemalloc.start()
    try:
        rep = burau.homology_rep(burau.MAX_STRANDS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.strands == burau.MAX_STRANDS
    assert peak < 64 * 1024, peak


def _ref_pm_mul(a, b):
    out = []
    for row in a:
        out_row = []
        for j in range(len(b[0])):
            total = poly.pzero()
            for aik, bk in zip(row, b):
                total = poly.padd(total, poly.pmul(aik, bk[j]))
            out_row.append(total)
        out.append(out_row)
    return out


def ref_lift(b):
    """The dense reference: segment j is (prefix product) * (I + t N), one
    O(dim^3) polynomial product per letter."""
    b = burau._odd_word(b)
    dim = b.strands - 1
    prefix = [[int(i == j) for j in range(dim)] for i in range(dim)]
    segments = []
    for letter in b.letters:
        img = ref_twist_matrix(dim, abs(letter), 1 if letter > 0 else -1)
        path = [
            [poly.poly([int(r == c), img[r][c] - (r == c)]) for c in range(dim)]
            for r in range(dim)
        ]
        segments.append(_ref_pm_mul(sp.constant_poly_matrix(linalg.frac_matrix(prefix)), path))
        prefix = [
            [sum(prefix[i][k] * img[k][j] for k in range(dim)) for j in range(dim)]
            for i in range(dim)
        ]
    if not segments:
        segments.append(sp.constant_poly_matrix(linalg.identity(dim)))
    return segments


def test_lift_matches_the_dense_reference():
    rng = random.Random(2712)
    for n in range(2, 12):
        words = [BraidWord.identity(n)] + [random_word(rng, n, 10) for _ in range(12)]
        for w in words:
            assert burau.lift(w).segment_matrices() == ref_lift(w), w
