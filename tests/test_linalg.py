"""The integer kernels of linalg, signature among them, against plain
rational Gaussian elimination.

The references below are the straightforward Fraction algorithms.  Every
result must agree with them exactly: the same values, and Fraction
entries, on seeded random matrices.
"""

import itertools
import random
from fractions import Fraction
from math import lcm
from operator import mul

import pytest

from veerlab import linalg
from veerlab import symplectic as sp


# --- references: rational elimination on Fraction entries ------------------


def ref_echelon(m):
    m = [list(row) for row in m]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = Fraction(1) / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def ref_det(m):
    m = [list(row) for row in m]
    n = len(m)
    result = Fraction(1)
    for c in range(n):
        pivot = next((i for i in range(c, n) if m[i][c] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            result = -result
        result *= m[c][c]
        inv = Fraction(1) / m[c][c]
        for i in range(c + 1, n):
            if m[i][c] != 0:
                f = m[i][c] * inv
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return result


def ref_solve(a, b):
    n = len(a)
    aug, pivots = ref_echelon(linalg.hstack(a, b))
    if len(pivots) < n or pivots[-1] >= n:
        raise ValueError("matrix is singular")
    return [row[n:] for row in aug[:n]]


def ref_nullspace(m):
    cols = len(m[0]) if m else 0
    rref, pivots = ref_echelon(m)
    basis = []
    for fc in (c for c in range(cols) if c not in pivots):
        v = [Fraction(0)] * cols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -rref[r][fc]
        basis.append(v)
    return basis


def ref_mat_mul(a, b):
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def ref_signature(m):
    m = [list(row) for row in m]
    active = list(range(len(m)))
    sig = 0
    while active:
        piv = next((i for i in active if m[i][i] != 0), None)
        if piv is not None:
            d = m[piv][piv]
            sig += 1 if d > 0 else -1
            active.remove(piv)
            rows = {i: m[i][piv] / d for i in active if m[i][piv] != 0}
            for i, f in rows.items():
                for j in active:
                    m[i][j] -= f * m[piv][j]
            continue
        pair = next(
            ((i, j) for i, j in itertools.combinations(active, 2) if m[i][j] != 0),
            None,
        )
        if pair is None:
            break
        i0, j0 = pair
        c = m[i0][j0]
        active.remove(i0)
        active.remove(j0)
        for i in active:
            fi, fj = m[i][i0], m[i][j0]
            if fi or fj:
                for j in active:
                    m[i][j] -= (fi * m[j0][j] + fj * m[i0][j]) / c
    return sig


def ref_particular_solution(a, b):
    """(x, den) with a (x / den) = b and the free variables zero, or None
    when a x = b is inconsistent: an lcm back-substitution over an
    `echelon` of [a | b], kept as the reference for the per-letter solve."""
    cols = len(a[0]) if a else 0
    rows, pivots = linalg.echelon([list(row) + [bi] for row, bi in zip(a, b)])
    if pivots and pivots[-1] == cols:
        return None
    den = lcm(*(row[c] for row, c in zip(rows, pivots)))
    x = [0] * cols
    for row, c in zip(rows, pivots):
        x[c] = row[cols] * (den // row[c])
    return x, den


def ref_int_nullspace(m):
    """den times each `nullspace` vector of an integer matrix, den the lcm of
    its `echelon` pivots: the reference for `int_nullspace`."""
    cols = len(m[0]) if m else 0
    rows, pivots = linalg.echelon(m)
    den = lcm(*(row[p] for row, p in zip(rows, pivots)))
    basis = []
    for f in sorted(set(range(cols)).difference(pivots)):
        v = [0] * cols
        v[f] = den
        for row, p in zip(rows, pivots):
            v[p] = -row[f] * (den // row[p])
        basis.append(v)
    return basis


# --- seeded inputs ------------------------------------------------------------


def entry(rng, kind):
    if kind == "int":
        return Fraction(rng.randint(-5, 5))
    if kind == "mixed":
        return Fraction(rng.randint(-9, 9), rng.choice([1, 1, 2, 3, 4, 6, 7]))
    return Fraction(rng.randint(-3, 3) * rng.randint(0, 1))  # sparse


def rand_matrix(rng, rows, cols, kind):
    return [[entry(rng, kind) for _ in range(cols)] for _ in range(rows)]


def rank_deficient(rng, rows, cols, rank, kind):
    """A product of rows x rank and rank x cols factors."""
    return linalg.mat_mul(
        rand_matrix(rng, rows, rank, kind), rand_matrix(rng, rank, cols, kind)
    )


def cases(seed, count=120):
    rng = random.Random(seed)
    for k in range(count):
        kind = ("int", "mixed", "sparse")[k % 3]
        rows, cols = rng.randint(0, 6), rng.randint(1, 7)
        if k % 4 == 0:
            yield rank_deficient(rng, rows, cols, rng.randint(1, 3), kind)
        else:
            m = rand_matrix(rng, rows, cols, kind)
            if rows and k % 5 == 0:
                m[rng.randrange(rows)] = [Fraction(0)] * cols  # a zero row
            yield m


def square_cases(seed, count=150):
    rng = random.Random(seed)
    for k in range(count):
        kind = ("int", "mixed", "sparse")[k % 3]
        n = rng.randint(1, 6)
        if k % 5 == 0:
            yield rank_deficient(rng, n, n, rng.randint(1, max(1, n - 1)), kind)
        else:
            yield rand_matrix(rng, n, n, kind)


def assert_same(got, want):
    assert got == want
    for row in got:
        for x in row:
            assert type(x) is Fraction


# --- agreement ----------------------------------------------------------------


def test_det_matches_reference():
    for m in square_cases(1):
        got = linalg.det(m)
        assert got == ref_det(m) and type(got) is Fraction


def test_det_edge_cases():
    assert linalg.det([]) == 1 and type(linalg.det([])) is Fraction
    # Negative pivots and a row swap at the first step.
    m = linalg.frac_matrix([[0, -2, 1], [-3, 1, 0], [1, 0, -1]])
    assert linalg.det(m) == ref_det(m) == 5
    m = linalg.frac_matrix([[Fraction(-1, 2), Fraction(1, 3)], [Fraction(1, 6), -4]])
    assert linalg.det(m) == ref_det(m)
    assert linalg.det([[Fraction(0)]]) == 0


def test_rank_matches_reference():
    for m in cases(2):
        assert linalg.rank(m) == len(ref_echelon(m)[1])
    assert linalg.rank([]) == 0
    assert linalg.rank([[Fraction(0)] * 3] * 2) == 0


def test_nullspace_matches_reference():
    for m in cases(3):
        assert_same(linalg.nullspace(m), ref_nullspace(m))


def test_solve_and_inverse_match_reference():
    rng = random.Random(4)
    for a in square_cases(5):
        b = rand_matrix(rng, len(a), rng.randint(1, 3), "mixed")
        try:
            want = ref_solve(a, b)
        except ValueError:
            with pytest.raises(ValueError):
                linalg.solve(a, b)
            with pytest.raises(ValueError):
                linalg.inverse(a)
            continue
        assert_same(linalg.solve(a, b), want)
        assert_same(linalg.inverse(a), ref_solve(a, linalg.identity(len(a))))


def test_mat_mul_matches_reference():
    rng = random.Random(6)
    for a in cases(7):
        inner = len(a[0]) if a else 3
        b = rand_matrix(rng, inner, rng.randint(1, 5), ("int", "mixed")[rng.randrange(2)])
        assert_same(linalg.mat_mul(a, b), ref_mat_mul(a, b))


def random_symmetric(rng, n, kind):
    m = linalg.zeros(n, n)
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = entry(rng, kind)
    return m


def test_signature_matches_reference():
    rng = random.Random(8)
    for k in range(300):
        n = rng.randint(0, 7)
        m = random_symmetric(rng, n, ("int", "mixed", "sparse")[k % 3])
        assert sp.signature(m) == ref_signature(m)


def test_signature_rank_deficient_and_congruent():
    rng = random.Random(9)
    for _ in range(100):
        n, r = rng.randint(2, 7), rng.randint(1, 3)
        c = rand_matrix(rng, r, n, "mixed")
        d = linalg.zeros(r, r)
        for i in range(r):
            d[i][i] = Fraction(rng.choice([-3, -1, 2, 5]), rng.choice([1, 2, 3]))
        m = linalg.mat_mul(linalg.mat_mul(linalg.transpose(c), d), c)
        assert sp.signature(m) == ref_signature(m)


def test_signature_hyperbolic_pairs():
    # Zero diagonal throughout: the pair branch must run, possibly twice.
    rng = random.Random(10)
    for _ in range(150):
        n = rng.randint(2, 7)
        m = linalg.zeros(n, n)
        for i in range(n):
            for j in range(i + 1, n):
                m[i][j] = m[j][i] = entry(rng, ("mixed", "sparse")[rng.randrange(2)])
        assert sp.signature(m) == ref_signature(m)
    hyperbolic = linalg.frac_matrix([[0, -3, 0, 0], [-3, 0, 0, 0], [0, 0, 0, 2], [0, 0, 2, 0]])
    assert sp.signature(hyperbolic) == ref_signature(hyperbolic) == 0
    mixed = linalg.frac_matrix([[0, 2, 1], [2, 0, 1], [1, 1, -1]])
    assert sp.signature(mixed) == ref_signature(mixed)


def test_signature_negative_pivots():
    m = linalg.frac_matrix([[-2, 1, 0], [1, -3, 1], [0, 1, -1]])
    assert sp.signature(m) == ref_signature(m) == -3
    m = linalg.frac_matrix([[Fraction(-1, 2), 1], [1, Fraction(1, 3)]])
    assert sp.signature(m) == ref_signature(m) == 0


# --- lazy row scales: sparse, banded, stale rows, plain ints ------------------


def sparse_symmetric(rng, n, band=None):
    """An integer symmetric matrix: entries within `band` of the diagonal
    (some zero), or about three nonzeros per row anywhere."""
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            near = band is not None and j - i <= band
            if near or (band is None and rng.random() < 3 / n):
                m[i][j] = m[j][i] = rng.randint(-3, 3)
    return m


def test_signature_sparse_and_banded_up_to_40():
    rng = random.Random(11)
    for k in range(80):
        n = rng.randint(10, 40)
        m = sparse_symmetric(rng, n, band=(None, 1, 2, 3)[k % 4])
        want = ref_signature(linalg.frac_matrix(m))
        assert sp.signature(m) == want
        assert sp.signature(linalg.frac_matrix(m)) == want


def test_signature_pair_branch_on_stale_rows():
    """A block with nonzero diagonal comes first and moves the scale off 1;
    a zero-diagonal block follows, its rows untouched (block diagonal) or
    only some of them touched (sparse coupling), so the pair branch
    starts on rows last written at an older scale."""
    rng = random.Random(12)
    for k in range(200):
        a, b = rng.randint(1, 5), rng.randint(2, 8)
        n = a + b
        m = [[0] * n for _ in range(n)]
        for i in range(a):
            m[i][i] = rng.choice([-5, -3, -2, 2, 3, 4, 6])
            for j in range(i + 1, a):
                m[i][j] = m[j][i] = rng.randint(-4, 4)
        for i in range(a, n):
            for j in range(i + 1, n):
                m[i][j] = m[j][i] = rng.randint(-3, 3) * (rng.random() < 0.6)
        if k % 2:
            for i in range(a):
                for j in range(a, n):
                    if rng.random() < 0.15:
                        m[i][j] = m[j][i] = rng.randint(-2, 2)
        assert sp.signature(m) == ref_signature(linalg.frac_matrix(m))
    # The first block leaves the scale at its determinant, 5; the
    # zero-diagonal block is still at scale 1 when the pair branch reads it.
    m = [[2, 1, 0, 0, 0], [1, 3, 0, 0, 0], [0, 0, 0, 5, 1], [0, 0, 5, 0, 2], [0, 0, 1, 2, 0]]
    assert sp.signature(m) == ref_signature(linalg.frac_matrix(m)) == 1


def test_signature_plain_int_input():
    rng = random.Random(13)
    for k in range(300):
        n = rng.randint(0, 9)
        m = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                m[i][j] = m[j][i] = rng.randint(-6, 6) * rng.randint(0, k % 2 + 1)
        want = ref_signature(linalg.frac_matrix(m))
        assert sp.signature(m) == want
        assert sp.signature(linalg.frac_matrix(m)) == want
    with pytest.raises(ValueError, match="not symmetric"):
        sp.signature([[0, 1], [2, 0]])


def test_integer_callers_pass_rows_straight_to_the_elimination(monkeypatch):
    # echelon takes integer rows; rank, solve and nullspace clear Fraction
    # rows first, while int_nullspace and the closure engines' per-letter
    # solve hand over their ints without a clearing pass.
    from veerlab import burau, linkinv
    from veerlab.sweeps import random_word

    rng = random.Random(63)
    systems, letters = [], []
    for _ in range(60):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        systems.append([[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)])
        n = rng.choice([3, 5, 7])
        w = random_word(rng, n, 8)
        letters.append((rng.randint(1, n - 1), burau.burau_matrix(w)))
    kernels = [linalg.int_nullspace(a) for a in systems]
    solves = [linkinv._image_solve(m, c - 1) for c, m in letters]
    for a, kernel in zip(systems, kernels):
        assert linalg.rank(linalg.frac_matrix(a)) == len(ref_echelon(linalg.frac_matrix(a))[1])
        assert all(sum(map(mul, row, v)) == 0 for row in a for v in kernel)

    def forbidden(m):
        raise AssertionError("integer rows sent through a clearing pass")

    monkeypatch.setattr(linalg, "_cleared", forbidden)
    monkeypatch.setattr(linalg, "cleared_matrix", forbidden)
    assert [linalg.int_nullspace(a) for a in systems] == kernels
    assert [linkinv._image_solve(m, c - 1) for c, m in letters] == solves


def int_system(rng, k, rows, cols):
    """(a, b): a of full random rank or a rank-deficient product, with
    entries above 10^6 on every fourth k; b = a v (consistent) on every
    third k, otherwise random, so often inconsistent when a is deficient."""
    big = 10**7 if k % 4 == 3 else 3

    def draw(r, c):
        return [[rng.randint(-big, big) for _ in range(c)] for _ in range(r)]

    if k % 2:
        rank = rng.randint(1, max(1, min(rows, cols) - 1))
        a = linalg.int_mul(draw(rows, rank), draw(rank, cols))
    else:
        a = draw(rows, cols)
    if k % 3 == 0:
        v = draw(1, cols)[0]
        return a, [sum(map(mul, row, v)) for row in a]
    return a, draw(1, rows)[0]


def test_int_nullspace_matches_the_reference_kernel():
    # int_nullspace reads its kernel straight off one echelon of m: it agrees
    # with the reference, and each vector is one common den > 0 times the
    # Fraction nullspace vector, on 2000 systems of sizes 1-8.
    rng = random.Random(64)
    seen = dict.fromkeys(("full", "deficient", "big"), 0)
    for k in range(2000):
        a, _ = int_system(rng, k, rng.randint(1, 8), rng.randint(1, 8))
        kernel = linalg.int_nullspace(a)
        assert kernel == ref_int_nullspace(a)
        null = linalg.nullspace(linalg.frac_matrix(a))
        assert len(kernel) == len(null)
        dens = {next(x for x in v if x) / next(x for x in u if x) for v, u in zip(kernel, null)}
        assert len(dens) <= 1 and all(d > 0 for d in dens)
        assert all([d * x for x in u] == v for d in dens for v, u in zip(kernel, null))
        seen["full"] += not kernel
        seen["deficient"] += len(kernel) > len(a[0]) - min(len(a), len(a[0]))
        seen["big"] += max(abs(e) for row in a for e in row) > 10**6
    assert all(seen.values()), seen
