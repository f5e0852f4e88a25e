import random
from fractions import Fraction

import pytest

from veerlab import linalg, poly
from veerlab import symplectic as sp
from veerlab.sweeps import _random_symplectic, _random_transverse_triple, _line_segment


def rand_invertible(rng, n):
    while True:
        c = [[Fraction(rng.randint(-4, 4)) for _ in range(n)] for _ in range(n)]
        if linalg.det(c) != 0:
            return c


def rand_symmetric_invertible(rng, n):
    while True:
        a = linalg.zeros(n, n)
        for i in range(n):
            for j in range(i, n):
                a[i][j] = a[j][i] = Fraction(rng.randint(-3, 3))
        if linalg.det(a) != 0:
            return a


def test_signature_examples():
    assert sp.signature(linalg.frac_matrix([[1, 0], [0, -1]])) == 0
    assert sp.signature(linalg.frac_matrix([[0, 0], [0, 1]])) == 1
    assert sp.signature(linalg.identity(3)) == 3
    assert sp.signature([]) == 0


def test_signature_sylvester():
    # Congruence preserves signature (Sylvester's law of inertia).
    rng = random.Random(31)
    for _ in range(150):
        n = rng.randint(1, 6)
        d = linalg.zeros(n, n)
        expect = 0
        for i in range(n):
            v = rng.choice([-2, -1, 0, 1, 3])
            d[i][i] = Fraction(v)
            expect += (v > 0) - (v < 0)
        c = rand_invertible(rng, n)
        s = linalg.mat_mul(linalg.mat_mul(linalg.transpose(c), d), c)
        assert sp.signature(s) == expect


def test_symmetric_form_validation():
    with pytest.raises(ValueError):
        sp.symmetric_form([[0, 1], [2, 0]])
    with pytest.raises(ValueError):
        sp.signature(linalg.frac_matrix([[0, 1], [2, 0]]))


def test_space_validation():
    with pytest.raises(ValueError):
        sp.SymplecticSpace(((Fraction(0),),))
    with pytest.raises(ValueError):
        sp.SymplecticSpace(((Fraction(0), Fraction(0)), (Fraction(0), Fraction(0))))


def test_chart_examples():
    space = sp.SymplecticSpace.standard(2)
    lam0 = sp.frame(space, linalg.vstack(linalg.identity(2), linalg.zeros(2, 2)))
    lam0p = sp.frame(space, linalg.vstack(linalg.zeros(2, 2), linalg.identity(2)))
    assert sp.chart_coordinates(lam0, lam0, lam0p) == linalg.zeros(2, 2)
    a = linalg.frac_matrix([[2, 1], [1, 1]])
    sheared = sp.frame(space, linalg.vstack(a, linalg.identity(2)))
    assert sp.chart_coordinates(sheared, lam0, lam0p) == linalg.inverse(a)
    with pytest.raises(sp.ChartMissError):
        sp.chart_coordinates(lam0p, lam0, lam0p)


def test_lagrangian_frame_validation():
    # Any line in a 2-dimensional symplectic space is Lagrangian.
    sp.frame(sp.SymplecticSpace.standard(1), [[Fraction(1)], [Fraction(1)]])
    space2 = sp.SymplecticSpace.standard(2)
    with pytest.raises(ValueError):  # dependent columns
        sp.frame(space2, [[Fraction(1), Fraction(2)], [Fraction(0), Fraction(0)],
                          [Fraction(0), Fraction(0)], [Fraction(0), Fraction(0)]])
    with pytest.raises(ValueError):  # omega(x1, y1) = 1: not isotropic
        sp.frame(space2, [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(0)],
                          [Fraction(0), Fraction(1)], [Fraction(0), Fraction(0)]])


def test_lagrangian_complement_properties():
    rng = random.Random(32)
    for _ in range(40):
        n = rng.randint(1, 3)
        space = sp.SymplecticSpace.standard(n)
        psi = _random_symplectic(n, rng)
        basis = linalg.mat_mul(psi, linalg.vstack(linalg.identity(n), linalg.zeros(n, n)))
        lam = sp.frame(space, basis)
        comp = sp.lagrangian_complement(lam)
        stacked = linalg.hstack(lam.basis_matrix(), comp.basis_matrix())
        assert linalg.det(stacked) != 0
        dual = linalg.mat_mul(
            linalg.mat_mul(linalg.transpose(lam.basis_matrix()), space.form_matrix()),
            comp.basis_matrix(),
        )
        assert dual == linalg.identity(n)


def make_onedehn_path():
    space = sp.SymplecticSpace(((Fraction(0), Fraction(1)), (Fraction(-1), Fraction(0))))
    seg = [
        [poly.pconst(1), poly.poly([0, 1])],
        [poly.pzero(), poly.pconst(1)],
    ]
    return space, sp.graph_path(space, [seg])


def test_maslov_onedehn():
    space, path = make_onedehn_path()
    gid = sp.graph_lagrangian(space, linalg.identity(2))
    assert sp.maslov_index(path, gid) == Fraction(1, 2)
    assert sp.maslov_index(path.reversed(), gid) == Fraction(-1, 2)


def test_maslov_constant_path_is_zero():
    space = sp.SymplecticSpace.standard(2)
    lam0 = sp.frame(space, linalg.vstack(linalg.identity(2), linalg.zeros(2, 2)))
    const = sp.LagrangianPath(
        space, (sp.constant_poly_matrix(linalg.vstack(linalg.zeros(2, 2), linalg.identity(2))),)
    )
    assert sp.maslov_index(const, lam0) == 0


def test_maslov_refinement_invariance():
    space, path = make_onedehn_path()
    gid = sp.graph_lagrangian(space, linalg.identity(2))
    halves = []
    for seg in path.segment_matrices():
        halves.append([[poly.pcompose_affine(e, 0, Fraction(1, 2)) for e in row] for row in seg])
        halves.append([[poly.pcompose_affine(e, Fraction(1, 2), Fraction(1, 2)) for e in row] for row in seg])
    refined = sp.LagrangianPath(path.space, tuple(halves))
    assert sp.maslov_index(refined, gid) == sp.maslov_index(path, gid)


def test_maslov_naturality():
    rng = random.Random(33)
    for trial in range(100):
        n = 1 if trial % 4 else 2
        space, l1, l2, l3, u1, u2, a = _random_transverse_triple(n, rng)
        seg = _line_segment(u1, linalg.mat_mul(u2, a))
        path = sp.LagrangianPath(space, (seg,))
        mu = sp.maslov_index(path, l2)
        psi = _random_symplectic(n, rng)
        moved_seg = [
            [_poly_dot(psi, seg, i, j) for j in range(n)] for i in range(2 * n)
        ]
        moved_path = sp.LagrangianPath(space, (moved_seg,))
        moved_ref = sp.frame(space, linalg.mat_mul(psi, l2.basis_matrix()))
        assert sp.maslov_index(moved_path, moved_ref) == mu


def _poly_dot(m, seg, i, j):
    total = poly.pzero()
    for k in range(len(seg)):
        total = poly.padd(total, poly.pscale(seg[k][j], m[i][k]))
    return total


def test_maslov_additivity_direct_sum():
    rng = random.Random(34)
    for _ in range(10):
        space1, path1 = make_onedehn_path()
        doubled1 = path1.space
        space2, l1, l2, l3, u1, u2, a = _random_transverse_triple(1, rng)
        seg2 = _line_segment(u1, linalg.mat_mul(u2, a))
        path2 = sp.LagrangianPath(space2, (seg2,))
        ref1 = sp.graph_lagrangian(space1, linalg.identity(2))
        ref2 = l2
        mu1 = sp.maslov_index(path1, ref1)
        mu2 = sp.maslov_index(path2, ref2)
        big_form = _direct_sum(doubled1.form_matrix(), space2.form_matrix())
        big_space = sp.SymplecticSpace(tuple(tuple(r) for r in big_form))
        seg1 = path1.segment_matrices()[0]
        big_seg = _block_diag_poly(seg1, seg2)
        big_path = sp.LagrangianPath(big_space, (big_seg,))
        big_ref = sp.frame(
            big_space,
            _direct_sum(ref1.basis_matrix(), ref2.basis_matrix()),
        )
        assert sp.maslov_index(big_path, big_ref) == mu1 + mu2


def _direct_sum(a, b):
    rows = len(a) + len(b)
    cols = len(a[0]) + len(b[0])
    out = [[Fraction(0)] * cols for _ in range(rows)]
    for i, row in enumerate(a):
        for j, x in enumerate(row):
            out[i][j] = x
    for i, row in enumerate(b):
        for j, x in enumerate(row):
            out[len(a) + i][len(a[0]) + j] = x
    return out


def _block_diag_poly(a, b):
    rows = len(a) + len(b)
    cols = len(a[0]) + len(b[0])
    out = [[poly.pzero()] * cols for _ in range(rows)]
    for i, row in enumerate(a):
        for j, x in enumerate(row):
            out[i][j] = x
    for i, row in enumerate(b):
        for j, x in enumerate(row):
            out[len(a) + i][len(a[0]) + j] = x
    return out


def test_ternary_model_case():
    rng = random.Random(35)
    for _ in range(25):
        n = rng.randint(1, 3)
        space = sp.SymplecticSpace.standard(n)
        a = rand_symmetric_invertible(rng, n)
        l1 = sp.frame(space, linalg.vstack(linalg.identity(n), linalg.zeros(n, n)))
        l2 = sp.frame(space, linalg.vstack(linalg.zeros(n, n), linalg.identity(n)))
        l3 = sp.frame(space, linalg.vstack(linalg.identity(n), a))
        assert sp.ternary_index(l1, l2, l3) == -sp.signature(a)
        assert sp.ternary_index_kernel(l1, l2, l3) == -sp.signature(a)
        assert sp.ternary_index(l1, l1, l3) == 0


def test_ternary_two_definitions_agree():
    rng = random.Random(36)
    for _ in range(40):
        n = rng.randint(1, 2)
        space, l1, l2, l3, *_ = _random_transverse_triple(n, rng)
        assert sp.ternary_index(l1, l2, l3) == sp.ternary_index_kernel(l1, l2, l3)


def test_loop_independence():
    # mu of a closed loop does not depend on the reference Lagrangian.
    # The straight segment between the omega-dual frames u2 and u1 stays
    # Lagrangian (the mixed terms cancel exactly), closing the triangle.
    rng = random.Random(37)
    for _ in range(6):
        n = rng.randint(1, 2)
        space, l1, l2, l3, u1, u2, a = _random_transverse_triple(n, rng)
        a_inv = linalg.inverse(a)
        g13 = sp.LagrangianPath(space, (_line_segment(u1, linalg.mat_mul(u2, a)),))
        g23 = sp.LagrangianPath(space, (_line_segment(u2, linalg.mat_mul(u1, a_inv)),))
        closing = sp.LagrangianPath(
            space, (_line_segment(u2, linalg.mat_sub(u1, u2)),)
        )
        loop = g13.concat(g23.reversed()).concat(closing)
        values = set()
        for _ in range(10):
            psi = _random_symplectic(n, rng)
            ref = sp.frame(
                space,
                linalg.mat_mul(psi, linalg.vstack(linalg.identity(n), linalg.zeros(n, n))),
            )
            values.add(sp.maslov_index(loop, ref))
        assert len(values) == 1


def test_meyer_identity_cases():
    space = sp.SymplecticSpace(((Fraction(0), Fraction(1)), (Fraction(-1), Fraction(0))))
    g = linalg.frac_matrix([[1, 1], [0, 1]])
    assert sp.meyer(space, linalg.identity(2), g) == 0
    assert sp.meyer(space, g, linalg.identity(2)) == 0
    assert sp.meyer(space, g, g) == 1
    with pytest.raises(ValueError):
        sp.meyer(space, [[Fraction(2), Fraction(0)], [Fraction(0), Fraction(1)]], g)


def test_graph_lagrangian_examples():
    space = sp.SymplecticSpace(((Fraction(0), Fraction(1)), (Fraction(-1), Fraction(0))))
    gid = sp.graph_lagrangian(space, linalg.identity(2))
    assert gid.basis_matrix() == linalg.frac_matrix([[1, 0], [0, 1], [1, 0], [0, 1]])
    h = linalg.frac_matrix([[1, 1], [0, 1]])
    gh = sp.graph_lagrangian(space, h)
    # Spanned by (1,0,1,0) and (0,1,1,1): same column span.
    expected = sp.frame(
        space.doubled(), linalg.frac_matrix([[1, 0], [0, 1], [1, 1], [0, 1]])
    )
    assert gh.same_subspace(expected)


def test_doubled_space_built_once():
    space = sp.SymplecticSpace.standard(2)
    assert space.doubled() is space.doubled()
    d = space.doubled().form_matrix()
    assert len(d) == 8 and d[2][0] == -1 and d[6][4] == 1 and d[4][0] == 0
    assert space.doubled() == sp.SymplecticSpace.standard(2).doubled()


def test_path_validates_each_frame_once(monkeypatch):
    # Three sample frames per segment (t = 0, 1/2, 1), each built and
    # validated once; a segment's start is matched against the previous end.
    space = sp.SymplecticSpace.standard(1)
    x_axis = [[poly.pconst(1)], [poly.pzero()]]
    tilt = [[poly.pconst(1)], [poly.poly([0, 1])]]  # from the x-axis to (1, 1)
    built = []
    real_frame = sp.frame
    monkeypatch.setattr(sp, "frame", lambda s, b: built.append(b) or real_frame(s, b))
    sp.LagrangianPath(space, (x_axis, tilt, sp.constant_poly_matrix([[1], [1]])))
    assert len(built) == 9
    with pytest.raises(ValueError, match="endpoints"):
        sp.LagrangianPath(space, (tilt, x_axis))


def test_meyer_closed_form_matches_ternary():
    from veerlab import burau
    from veerlab.sweeps import random_word

    rng = random.Random(38)
    for trial in range(45):
        n = (3, 5, 7)[trial % 3]
        space = burau.symplectic_space(n)
        g1 = linalg.frac_matrix(burau.burau_matrix(random_word(rng, n, 8)))
        g2 = linalg.frac_matrix(burau.burau_matrix(random_word(rng, n, 8)))
        ident = linalg.identity(n - 1)
        for a, b in ((g1, g2), (ident, g2), (g1, ident), (g1, linalg.inverse(g1))):
            assert sp.meyer_closed_form(space, a, b) == sp.meyer(space, a, b)
    for trial in range(30):
        n = 1 + trial % 3
        space = sp.SymplecticSpace.standard(n)
        g1, g2 = _random_symplectic(n, rng), _random_symplectic(n, rng)
        assert sp.meyer_closed_form(space, g1, g2) == sp.meyer(space, g1, g2)
    space = sp.SymplecticSpace(((Fraction(0), Fraction(1)), (Fraction(-1), Fraction(0))))
    g = linalg.frac_matrix([[1, 1], [0, 1]])
    assert sp.meyer_closed_form(space, g, g) == 1
    with pytest.raises(ValueError):
        sp.meyer_closed_form(space, g, [[Fraction(2), Fraction(0)], [Fraction(0), Fraction(1)]])


def test_bespoke_complement_bound():
    space = sp.SymplecticSpace.standard(1)
    lam0 = sp.frame(space, [[Fraction(1)], [Fraction(0)]])
    # A degenerate target is transverse to no complement.
    with pytest.raises(sp.BoundExceeded, match="transverse complement"):
        sp._bespoke_complement(lam0, linalg.zeros(2, 1), random.Random(0))
