import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from veerlab import burau, linalg
from veerlab import symplectic as sp
from veerlab.braid import BraidWord, linking_number, parse_braid
from veerlab.sweeps import random_word


def test_generator_blocks():
    rep3 = burau.homology_rep(3)
    assert rep3.generator_images[0] == ((1, 1), (0, 1))
    rep5 = burau.homology_rep(5)
    # sigma_2 in B_5: the 3x3 block A2 in rows 1-3.
    assert rep5.generator_images[1] == (
        (1, 0, 0, 0), (-1, 1, 1, 0), (0, 0, 1, 0), (0, 0, 0, 1),
    )
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


def test_distant_commutation_identically_in_t():
    g2 = burau._generator_path(6, 2)
    g5 = burau._generator_path(6, 5)
    assert burau._pm_mul(g2, g5) == burau._pm_mul(g5, g2)
    g1 = burau._generator_path(6, 1)
    g3 = burau._generator_path(6, 3)
    assert burau._pm_mul(g1, g3) == burau._pm_mul(g3, g1)


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
            assert lf.end_matrix() == linalg.frac_matrix(burau.burau_matrix(w))
            # Segments chain continuously from the identity.
            prev = linalg.identity(n - 1)
            for seg in lf.segment_matrices():
                assert sp.pm_eval(seg, Fraction(0)) == prev
                prev = sp.pm_eval(seg, Fraction(1))


def test_negative_letter_path_is_pointwise_inverse():
    pos = burau._generator_path(2, 1)
    neg = burau._generator_path(2, -1)
    for t in (Fraction(0), Fraction(1, 3), Fraction(1)):
        prod = linalg.mat_mul(sp.pm_eval(pos, t), sp.pm_eval(neg, t))
        assert prod == linalg.identity(2)


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


def test_standardize_form():
    rep3 = burau.homology_rep(3)
    t, std3 = burau.standardize_form(rep3)
    assert t == linalg.identity(2)  # rank-2 intersection form is standard
    for n in (5, 7):
        rep = burau.homology_rep(n)
        t, std = burau.standardize_form(rep)
        omega = linalg.frac_matrix(rep.form)
        target = sp.SymplecticSpace.standard((n - 1) // 2).form_matrix()
        assert linalg.mat_mul(linalg.mat_mul(linalg.transpose(t), omega), t) == target
        std_space = sp.SymplecticSpace.standard((n - 1) // 2)
        for g in std.generator_images:
            assert std_space.is_symplectic_matrix(linalg.frac_matrix(g))


def test_meyer_independent_of_lifts():
    # The Meyer value depends only on the endpoints: the explicit formula
    # through Maslov indices of graph paths gives the same number, and
    # homotopic lifts (braid-relation words) are interchangeable.
    rng = random.Random(44)
    for trial in range(6):
        n = 3 if trial % 2 == 0 else 5
        a, b = random_word(rng, n, 5), random_word(rng, n, 5)
        la, lb = burau.lift(a), burau.lift(b)
        space = burau.symplectic_space(n)
        ga = linalg.frac_matrix(burau.burau_matrix(a))
        gb = linalg.frac_matrix(burau.burau_matrix(b))
        assert sp.meyer(space, ga, gb, lift1=la, lift2=lb) == burau.meyer_via_lifts(la, lb)
    l1 = burau.lift(parse_braid("1 2 1", 3))
    l2 = burau.lift(parse_braid("2 1 2", 3))
    other = burau.lift(parse_braid("1 -2", 3))
    assert burau.meyer_via_lifts(l1, other) == burau.meyer_via_lifts(l2, other)
    with pytest.raises(ValueError):
        sp.meyer(burau.symplectic_space(3), linalg.identity(2), linalg.identity(2), lift1=l1)


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
        "from veerlab import burau\n"
        "forged = (((1, 2), (0, 1)),)\n"
        "for call in (lambda: burau._check_twists(((0, 1), (-1, 0)), forged, forged),\n"
        "             lambda: burau._refine([[[0]]] * 2, 3)):\n"
        "    try:\n"
        "        call()\n"
        "    except AssertionError:\n"
        "        continue\n"
        "    raise SystemExit('invariant check was skipped')\n"
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
        assert all(type(x) is int for row in rep.form for x in row)


def ref_burau_matrix(b):
    """The dense reference: one O(dim^3) product per letter image."""
    b = burau._odd_word(b)
    rep = burau.homology_rep(b.strands)
    dim = b.strands - 1
    out = [[int(i == j) for j in range(dim)] for i in range(dim)]
    for letter in b.letters:
        img = rep.image(letter)
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
    stored inverse, in Fraction arithmetic."""
    omega = linalg.frac_matrix(form)
    for g, g_inv in zip(gens, invs):
        gm = linalg.frac_matrix(g)
        if linalg.mat_mul(linalg.mat_mul(linalg.transpose(gm), omega), gm) != omega:
            return False
        if linalg.inverse(gm) != linalg.frac_matrix(g_inv):
            return False
    return True


def twist_check(form, gens, invs) -> bool:
    try:
        burau._check_twists(form, gens, invs)
    except AssertionError:
        return False
    return True


def _rep_data(n):
    dim = n - 1
    gens = tuple(tuple(map(tuple, burau._twist_matrix(dim, i))) for i in range(1, n))
    invs = tuple(tuple(map(tuple, burau._twist_matrix(dim, i, -1))) for i in range(1, n))
    form = tuple(tuple(int(x) for x in row) for row in burau.intersection_form(dim // 2))
    return form, gens, invs


def _replaced(images, k, r, c, value):
    m = [list(row) for row in images[k]]
    m[r][c] = value
    return images[:k] + (tuple(map(tuple, m)),) + images[k + 1 :]


def test_twist_check_accepts_what_the_dense_check_accepts():
    for n in range(3, 42, 2):
        form, gens, invs = _rep_data(n)
        assert ref_dense_check(form, gens, invs) and twist_check(form, gens, invs), n
    for n in (5, 7, 9):
        form, gens, invs = _rep_data(n)
        k = 1  # sigma_2: row 1 of its image has entries at columns 0 and 2
        forgeries = [
            (form, _replaced(gens, k, k, k + 1, 2), invs),  # wrong twist entry
            (form, _replaced(gens, k, k - 1, k, 1), invs),  # entry outside row k
            (form, gens, _replaced(invs, k, k, k - 1, -1)),  # inverse is not inverse
        ]
        for forged in forgeries:
            assert not ref_dense_check(*forged), n
            assert not twist_check(*forged), n
        # Twists about the wrong curves are symplectic with the right
        # inverses, so only the twist check sees them.
        shifted = (form, gens[1:] + gens[:1], invs[1:] + invs[:1])
        assert ref_dense_check(*shifted) and not twist_check(*shifted)
    skew_broken = ((1, 1), (-1, 0))
    assert not twist_check(skew_broken, *_rep_data(3)[1:])
