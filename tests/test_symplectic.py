import random
from fractions import Fraction

import pytest

from veerlab import linalg, poly
from veerlab import symplectic as sp
from veerlab.sweeps import _random_symplectic, _random_transverse_triple, _line_segment


def ref_mat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def ref_mat_vec(a, v):
    return [sum((x * y for x, y in zip(row, v)), Fraction(0)) for row in a]


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
    assert not linalg.is_symmetric(linalg.frac_matrix([[0, 1], [2, 0]]))
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


def ref_lagrangian_complement(lam):
    """Complete the frame greedily with unit vectors, dualize with a Fraction
    inverse of the pairing, then correct the skew defect."""
    space, u, n = lam.space, lam.basis_matrix(), lam.space.n
    cols = [[row[j] for row in u] for j in range(n)]
    chosen = []
    for k in range(space.dim):
        e = [Fraction(int(i == k)) for i in range(space.dim)]
        if linalg.rank([list(r) for r in zip(*(cols + chosen + [e]))]) == len(cols + chosen) + 1:
            chosen.append(e)
        if len(chosen) == n:
            break
    w = [list(r) for r in zip(*chosen)]
    omega = space.form_matrix()
    d = linalg.mat_mul(linalg.mat_mul(linalg.transpose(u), omega), w)
    v0 = linalg.mat_mul(w, linalg.inverse(d))
    m = linalg.mat_mul(linalg.mat_mul(linalg.transpose(v0), omega), v0)
    return linalg.mat_add(v0, linalg.mat_mul(u, linalg.mat_scale(m, Fraction(1, 2))))


def test_lagrangian_complement_matches_the_reference():
    # The pivot columns of the pairing are the greedy unit-vector completion,
    # so the complement (and with it the chart pool) is the reference's.
    from veerlab import burau
    from veerlab.sweeps import random_word

    rng = random.Random(67)
    frames = []
    for trial in range(90):
        n = 1 + trial % 3
        psi = _random_symplectic(n, rng)
        basis = linalg.mat_mul(psi, linalg.vstack(linalg.identity(n), linalg.zeros(n, n)))
        change = [[x / k for x in row] for row, k in zip(rand_invertible(rng, n), (3, 1, 2))]
        frames.append(sp.frame(sp.SymplecticSpace.standard(n), linalg.mat_mul(basis, change)))
    for strands in (3, 5, 7):
        space = burau.symplectic_space(strands)
        g = linalg.frac_matrix(burau.burau_matrix(random_word(rng, strands, 6)))
        frames.append(sp.graph_lagrangian(space, g))
    for lam in frames:
        assert sp.lagrangian_complement(lam).basis_matrix() == ref_lagrangian_complement(lam)


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
            space, (_line_segment(u2, ref_mat_sub(u1, u2)),)
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
    stacked = linalg.hstack(gh.basis_matrix(), expected.basis_matrix())
    assert linalg.rank(stacked) == 2


def test_doubled_space_built_once():
    space = sp.SymplecticSpace.standard(2)
    assert space.doubled() is space.doubled()
    d = space.doubled().form_matrix()
    assert len(d) == 8 and d[2][0] == -1 and d[6][4] == 1 and d[4][0] == 0
    assert space.doubled() == sp.SymplecticSpace.standard(2).doubled()


def test_path_validates_each_frame_once(monkeypatch):
    # Three integer samples per segment (t = 0, 1/2, 1), each read once and
    # no frame built; a segment's start is matched against the previous end.
    space = sp.SymplecticSpace.standard(1)
    x_axis = [[poly.pconst(1)], [poly.pzero()]]
    tilt = [[poly.pconst(1)], [poly.poly([0, 1])]]  # from the x-axis to (1, 1)
    samples, junctions = [], []
    real_at, real_junction = sp._at, sp._check_junction
    monkeypatch.setattr(sp, "_at", lambda cols, t: samples.append(t) or real_at(cols, t))
    monkeypatch.setattr(
        sp, "_check_junction", lambda e, s: junctions.append(1) or real_junction(e, s)
    )
    monkeypatch.setattr(sp, "frame", _forbidden)
    sp.LagrangianPath(space, (x_axis, tilt, sp.constant_poly_matrix([[1], [1]])))
    assert samples == [Fraction(0), Fraction(1, 2), Fraction(1)] * 3
    assert len(junctions) == 2
    with pytest.raises(ValueError, match="endpoints"):
        sp.LagrangianPath(space, (tilt, x_axis))
    with pytest.raises(ValueError, match="dependent"):
        sp.LagrangianPath(space, ([[poly.poly([0, 1])], [poly.pzero()]],))
    with pytest.raises(ValueError, match="dim x n"):
        sp.LagrangianPath(space, ([[poly.pconst(1)]],))


def _forbidden(*args, **kwargs):
    raise AssertionError("re-validation")


def test_derived_paths_are_not_revalidated(monkeypatch):
    # reversed() and concat() build no frame and rerun no isotropy check;
    # concat checks the one new junction and still refuses a mismatch.
    rng = random.Random(66)
    cases = []
    for trial in range(12):
        n = 1 + trial % 2
        space, l1, l2, l3, u1, u2, a = _random_transverse_triple(n, rng)
        g13 = sp.LagrangianPath(space, (_line_segment(u1, linalg.mat_mul(u2, a)),))
        g23 = sp.LagrangianPath(
            space, (_line_segment(u2, linalg.mat_mul(u1, linalg.inverse(a))),)
        )
        cases.append((g13, g23))
    junctions = []
    real_junction = sp._check_junction
    monkeypatch.setattr(sp, "_pm_isotropic", _forbidden)
    monkeypatch.setattr(sp, "frame", _forbidden)
    monkeypatch.setattr(
        sp, "_check_junction", lambda e, s: junctions.append(1) or real_junction(e, s)
    )
    derived = []
    for g13, g23 in cases:
        g12 = g13.concat(g23.reversed())
        assert len(g12.segments) == 2
        derived += [g12, g13.reversed(), g12.reversed()]
        with pytest.raises(ValueError, match="endpoints"):
            g13.concat(g23)
    assert len(junctions) == 2 * len(cases)
    monkeypatch.undo()
    for path in derived:  # each derived path passes the full validation
        assert sp.LagrangianPath(path.space, path.segments) == path


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


def ref_chart_coordinates(lam, lam0, lam0p):
    """The solve-based chart: coordinates of lam's basis in [U | W G^-1]."""
    u = lam0.basis_matrix()
    w = lam0p.basis_matrix()
    omega = lam.space.form_matrix()
    g = linalg.mat_mul(linalg.mat_mul(linalg.transpose(u), omega), w)
    try:
        v = linalg.mat_mul(w, linalg.inverse(g))
    except ValueError:
        raise ValueError("lam0 and lam0p are not complementary Lagrangians")
    coords = linalg.solve(linalg.hstack(u, v), lam.basis_matrix())
    n = lam.space.n
    try:
        x_inv = linalg.inverse(coords[:n])
    except ValueError:
        raise sp.ChartMissError("Lagrangian meets the chart complement") from None
    return linalg.mat_mul(coords[n:], x_inv)


def _rational_lagrangian(rng, n, kind):
    """A Lagrangian of the standard space with a rational basis: psi maps a
    coordinate Lagrangian (x_i for i not in S, y_i for i in S), and a random
    rational change of basis follows."""
    psi = _random_symplectic(n, rng)
    flips = {i for i in range(n) if rng.random() < 0.3} if kind == "coordinate" else set()
    std = linalg.zeros(2 * n, n)
    for i in range(n):
        std[n + i if i in flips else i][i] = Fraction(1)
    change = [[x / k for x in row] for row, k in zip(rand_invertible(rng, n), (2, 1, 3))]
    return sp.frame(sp.SymplecticSpace.standard(n), linalg.mat_mul(linalg.mat_mul(psi, std), change))


def test_chart_coordinates_matches_the_solve_reference():
    # Complements with G != I, lams that miss the chart, and pairs that are
    # not complementary: the pairing formula -P Q^-1 G^T agrees with the
    # solve-based body, and ChartMissError comes exactly when det Q = 0.
    rng = random.Random(60)
    kinds = {"value": 0, "miss": 0, "not complementary": 0}
    shapes = set()
    for trial in range(360):
        n = 1 + trial % 3
        space = sp.SymplecticSpace.standard(n)
        lam0 = _rational_lagrangian(rng, n, "random")
        lam0p = _rational_lagrangian(rng, n, "random")
        if trial % 3 == 0:
            # A complement of lam0 with G != I: the dual complement, sheared
            # and rebased.
            dual = sp.lagrangian_complement(lam0).basis_matrix()
            c = rand_symmetric_invertible(rng, n)
            basis = linalg.mat_add(linalg.mat_mul(lam0.basis_matrix(), c), dual)
            lam0p = sp.frame(space, linalg.mat_mul(basis, rand_invertible(rng, n)))
        lam = _rational_lagrangian(rng, n, "coordinate" if trial % 2 else "random")
        if trial % 7 == 0:
            lam = lam0p
        omega = space.form_matrix()
        g = linalg.mat_mul(
            linalg.mat_mul(linalg.transpose(lam0.basis_matrix()), omega), lam0p.basis_matrix()
        )
        q = linalg.mat_mul(
            linalg.mat_mul(linalg.transpose(lam0p.basis_matrix()), omega), lam.basis_matrix()
        )
        try:
            expected = ref_chart_coordinates(lam, lam0, lam0p)
        except (ValueError, sp.ChartMissError) as exc:
            with pytest.raises(type(exc)):
                sp.chart_coordinates(lam, lam0, lam0p)
            if isinstance(exc, sp.ChartMissError):
                assert linalg.det(q) == 0
                kinds["miss"] += 1
            else:
                assert linalg.det(g) == 0
                kinds["not complementary"] += 1
            continue
        assert linalg.det(g) != 0 and linalg.det(q) != 0
        assert sp.chart_coordinates(lam, lam0, lam0p) == expected
        kinds["value"] += 1
        shapes.add(g == linalg.identity(n))
    assert kinds["value"] >= 200 and kinds["miss"] >= 40 and kinds["not complementary"] >= 1
    assert False in shapes  # G != I was exercised


def test_forged_pool_complement_is_rejected(monkeypatch):
    # Every pool complement must be omega-dual to the reference (G = I);
    # one scaled by 2 (G = 2I) is refused as it enters the pool.
    space, path = make_onedehn_path()
    gid = sp.graph_lagrangian(space, linalg.identity(2))
    real = sp.lagrangian_complement

    def doubled_complement(lam):
        return sp.frame(lam.space, linalg.mat_scale(real(lam).basis_matrix(), 2))

    monkeypatch.setattr(sp, "lagrangian_complement", doubled_complement)
    with pytest.raises(AssertionError, match="omega-dual"):
        sp.maslov_index(path, gid)


def ref_complement_pool(lam0):
    """The dual complement and its shears U C + V, each built as a frame."""
    space = lam0.space
    v = sp.lagrangian_complement(lam0)
    n = space.n
    diag = linalg.zeros(n, n)
    for i in range(n):
        diag[i][i] = Fraction(1 if i % 2 == 0 else -1)
    pool = [v]
    for c in (linalg.identity(n), linalg.mat_scale(linalg.identity(n), -1),
              linalg.mat_scale(linalg.identity(n), 2), diag):
        basis = linalg.mat_add(linalg.mat_mul(lam0.basis_matrix(), c), v.basis_matrix())
        pool.append(sp.frame(space, basis))
    return pool


def _positive_multiple(a, b) -> bool:
    """a == c b for an integer matrix a, a rational matrix b and some c > 0."""
    ref = next((x, y) for ra, rb in zip(a, b) for x, y in zip(ra, rb) if y)
    return ref[0] * ref[1] > 0 and all(
        x * ref[1] == y * ref[0] for ra, rb in zip(a, b) for x, y in zip(ra, rb)
    )


def test_pool_rows_are_positive_multiples_of_the_frame_pool():
    # The shear charts read off the dual complement's pairing agree, up to a
    # positive factor, with the pairings of the shears built as frames, in
    # dimensions 2, 4 and 8, on the standard form and on (2/3) of it.
    rng = random.Random(67)
    for trial in range(45):
        n = (1, 2, 4)[trial % 3]
        space = sp.SymplecticSpace.standard(n)
        if trial % 2:
            space = sp.SymplecticSpace(
                tuple(tuple(x * Fraction(2, 3) for x in row) for row in space.form)
            )
        psi = _random_symplectic(n, rng)
        change = [[x / (1 + i % 3) for x in row] for i, row in enumerate(rand_invertible(rng, n))]
        lam0 = sp.frame(space, linalg.mat_mul([row[:n] for row in psi], change))
        pool = sp._complement_pool(lam0, sp._pairing(lam0))
        ref = [sp._pairing(w) for w in ref_complement_pool(lam0)]
        assert len(pool) == len(ref) == 5
        for rows, (ref_rows, den) in zip(pool, ref):
            assert _positive_multiple(rows, [[Fraction(x, den) for x in r] for r in ref_rows])


def test_maslov_index_builds_one_complement_plus_the_bespoke_ones(monkeypatch):
    # perfbench derives the bespoke-complement count as
    # lagrangian_complement calls - maslov_index calls.
    counts = {"complement": 0, "bespoke": 0}
    real_complement, real_bespoke = sp.lagrangian_complement, sp._bespoke_complement

    def complement(lam):
        counts["complement"] += 1
        return real_complement(lam)

    def bespoke(*args):
        counts["bespoke"] += 1
        return real_bespoke(*args)

    monkeypatch.setattr(sp, "lagrangian_complement", complement)
    monkeypatch.setattr(sp, "_bespoke_complement", bespoke)
    rng = random.Random(1)
    calls = 0
    for trial in range(30):
        space, l1, l2, l3, u1, u2, a = _random_transverse_triple(1 + trial % 2, rng)
        g13 = sp.LagrangianPath(space, (_line_segment(u1, linalg.mat_mul(u2, a)),))
        for path, ref in ((g13, l2), (g13.reversed(), l3), (g13, l1)):
            sp.maslov_index(path, ref)
            calls += 1
    assert counts["bespoke"] > 0
    assert counts["complement"] == calls + counts["bespoke"]


def test_is_symplectic_matrix_on_the_integer_form():
    rng = random.Random(61)
    for trial in range(60):
        n = 1 + trial % 3
        space = sp.SymplecticSpace.standard(n)
        # A rational symplectic g: conjugate by diag(D, D^-1), D rational.
        d = [Fraction(rng.choice([1, 2, 3]), rng.choice([1, 2, 5])) for _ in range(n)]
        scale = linalg.zeros(2 * n, 2 * n)
        for i in range(n):
            scale[i][i], scale[n + i][n + i] = d[i], 1 / d[i]
        g = linalg.mat_mul(
            linalg.mat_mul(scale, _random_symplectic(n, rng)), linalg.inverse(scale)
        )
        assert space.is_symplectic_matrix(g)
        assert not space.is_symplectic_matrix(linalg.mat_scale(g, 2))
        assert not space.is_symplectic_matrix(linalg.mat_scale(g, Fraction(1, 2)))
        assert not space.is_symplectic_matrix([row[:-1] for row in g])
        assert not space.is_symplectic_matrix(g[:-1])
    # A form with denominators: omega = (1/3) dx ^ dy preserves exactly det 1.
    third = sp.SymplecticSpace(((Fraction(0), Fraction(1, 3)), (Fraction(-1, 3), Fraction(0))))
    assert third.is_symplectic_matrix(linalg.frac_matrix([[2, Fraction(1, 2)], [2, 1]]))
    assert not third.is_symplectic_matrix(linalg.frac_matrix([[2, 1], [2, 1]]))


def test_concat_across_spaces_is_refused():
    one = sp.LagrangianPath(sp.SymplecticSpace.standard(1), ([[poly.pconst(1)], [poly.pzero()]],))
    two = sp.LagrangianPath(
        sp.SymplecticSpace.standard(2),
        (sp.constant_poly_matrix(linalg.vstack(linalg.identity(2), linalg.zeros(2, 2))),),
    )
    with pytest.raises(ValueError, match="paths live in different spaces"):
        one.concat(two)
    with pytest.raises(ValueError, match="paths live in different spaces"):
        two.concat(one)
    assert len(one.concat(one).segments) == 2


def ref_pm_isotropic(seg, space):
    """F(t)^T Omega F(t) == 0 with Fraction polynomial arithmetic."""
    omega = space.form_matrix()
    for i in range(len(seg[0])):
        for j in range(i, len(seg[0])):
            total = poly.pzero()
            for r in range(len(seg)):
                for s in range(len(seg)):
                    if omega[r][s]:
                        term = poly.pmul(seg[r][i], seg[s][j])
                        total = poly.padd(total, poly.pscale(term, omega[r][s]))
            if not poly.is_zero(total):
                return False
    return True


def test_pm_isotropic_matches_fraction_polynomials():
    from veerlab import burau
    from veerlab.sweeps import random_word

    rng = random.Random(65)
    cases = []
    for trial in range(80):
        n = 1 + trial % 3
        space, l1, l2, l3, u1, u2, a = _random_transverse_triple(n, rng)
        seg = _line_segment(
            linalg.mat_scale(u1, Fraction(1, rng.randint(1, 4))), linalg.mat_mul(u2, a)
        )
        cases.append((space, seg))
        # Perturb one entry by a small rational multiple of t^2.
        bent = [list(row) for row in seg]
        r, c = rng.randrange(2 * n), rng.randrange(n)
        bent[r][c] = poly.padd(bent[r][c], poly.poly([0, 0, Fraction(rng.randint(1, 3), 5)]))
        cases.append((space, bent))
    for w in (random_word(rng, 5, 6), random_word(rng, 7, 4)):
        path = burau.graph_path_of(burau._odd_word(w))
        cases += [(path.space, seg) for seg in path.segment_matrices()]
    verdicts = [sp._pm_isotropic(sp._int_columns(seg), space) for space, seg in cases]
    assert verdicts == [ref_pm_isotropic(seg, space) for space, seg in cases]
    assert True in verdicts and False in verdicts


def test_det_poly_is_a_positive_multiple_of_the_determinant():
    # The certificate polynomial of an integer polynomial matrix: at every
    # rational t it is the determinant times one positive constant.
    rng = random.Random(66)
    for trial in range(120):
        n = 1 + trial % 4
        m = [
            [[rng.randint(-3, 3) for _ in range(rng.randint(0, 3))] for _ in range(n)]
            for _ in range(n)
        ]
        d = sp._det_poly(m)
        ratios = set()
        for t in (Fraction(0), Fraction(1), Fraction(-2), Fraction(1, 3), Fraction(7, 2), Fraction(5)):
            exact = linalg.det(
                [[poly.peval(poly.poly(c), t) for c in row] for row in m]
            )
            value = poly.peval(d, t)
            assert (value == 0) == (exact == 0)
            if exact:
                ratios.add(value / exact)
        assert len(ratios) <= 1 and all(r > 0 for r in ratios)
        assert all(c.denominator == 1 for c in d)


# --- Fraction references for the integer Meyer layer -------------------------


def ref_ternary_index(l1, l2, l3):
    """The Fraction body: nullspace, a rank loop for the z-parts, mat_mul."""
    space = l1.space
    f1, f2, f3 = (f.basis_matrix() for f in (l1, l2, l3))
    n = space.n
    stacked = linalg.hstack(linalg.hstack(f1, f2), linalg.mat_scale(f3, -1))
    chosen, z_rows = [], []
    for vec in linalg.nullspace(stacked):
        z = vec[2 * n :]
        if linalg.rank(z_rows + [z]) > len(z_rows):
            z_rows.append(z)
            chosen.append(vec)
    vs = [ref_mat_vec(f3, vec[2 * n :]) for vec in chosen]
    v2s = [ref_mat_vec(f2, vec[n : 2 * n]) for vec in chosen]
    q = linalg.mat_mul(linalg.mat_mul(v2s, space.form_matrix()), linalg.transpose(vs))
    assert linalg.is_symmetric(q)
    return sp.signature(q)


def ref_ternary_index_kernel(l1, l2, l3):
    space = l1.space
    f1, f2, f3 = (f.basis_matrix() for f in (l1, l2, l3))
    n = space.n
    null = linalg.nullspace(linalg.hstack(linalg.hstack(f1, f2), f3))
    v1s = [ref_mat_vec(f1, vec[:n]) for vec in null]
    v3s = [ref_mat_vec(f3, vec[2 * n :]) for vec in null]
    omega = space.form_matrix()
    q = [[sum(a * b for a, b in zip(v1, ref_mat_vec(omega, w3))) for w3 in v3s] for v1 in v1s]
    assert linalg.is_symmetric(q)
    return sp.signature(q)


def ref_meyer(space, g1, g2):
    """Ternary index of validated graph frames of id, g1 and g1 g2."""
    g1, g2 = linalg.frac_matrix(g1), linalg.frac_matrix(g2)
    return ref_ternary_index(
        sp.graph_lagrangian(space, linalg.identity(space.dim)),
        sp.graph_lagrangian(space, g1),
        sp.graph_lagrangian(space, linalg.mat_mul(g1, g2)),
    )


def ref_meyer_closed_form(space, g1, g2):
    """The Fraction body: an inverse, a nullspace and three mat_muls."""
    g1, g2 = linalg.frac_matrix(g1), linalg.frac_matrix(g2)
    for g in (g1, g2):
        if not space.is_symplectic_matrix(g):
            raise ValueError("matrix does not preserve the form")
    d = space.dim
    ident = linalg.identity(d)
    b_minus = ref_mat_sub(g2, ident)
    w = linalg.nullspace(linalg.hstack(ref_mat_sub(linalg.inverse(g1), ident), b_minus))
    left = [[x + y for x, y in zip(v[:d], v[d:])] for v in w]
    right = [ref_mat_vec(b_minus, v[d:]) for v in w]
    q = linalg.mat_mul(linalg.mat_mul(left, space.form_matrix()), linalg.transpose(right))
    assert linalg.is_symmetric(q)
    return -sp.signature(q)


def _seeded_meyer_pairs():
    """(space, g1, g2): Burau images in B_3-B_9 as int tuples (random words of
    length <= 12, identity, inverse and empty-word pairs) and non-integral
    rational pairs in Sp(2n, Q), n <= 3."""
    from veerlab import burau
    from veerlab.braid import BraidWord
    from veerlab.sweeps import random_word

    rng = random.Random(2712)
    pairs = []
    for trial in range(60):
        n = (3, 5, 7, 9)[trial % 4]
        space = burau.symplectic_space(n)
        a, b = random_word(rng, n, 12), random_word(rng, n, 12)
        ga, gb = burau.burau_matrix(a), burau.burau_matrix(b)
        a_inv = BraidWord(n, tuple(-x for x in reversed(a.letters)))
        ident = burau.burau_matrix(BraidWord.identity(n))
        pairs += [(space, ga, gb), (space, ident, gb), (space, ga, ident),
                  (space, ident, ident), (space, ga, burau.burau_matrix(a_inv))]
    for trial in range(45):
        n = 1 + trial % 3
        space = sp.SymplecticSpace.standard(n)
        g1, g2 = _random_symplectic(n, rng), _random_symplectic(n, rng)
        # Conjugating by a diagonal symplectic matrix makes the entries non-integral.
        k = Fraction(rng.choice([2, 3, 5]))
        diag = [[(k if i < n else 1 / k) * (i == j) for j in range(2 * n)] for i in range(2 * n)]
        diag_inv = [[(1 / k if i < n else k) * (i == j) for j in range(2 * n)] for i in range(2 * n)]
        conj = [linalg.mat_mul(linalg.mat_mul(diag, g), diag_inv) for g in (g1, g2)]
        pairs += [(space, g1, g2), (space, *conj), (space, conj[0], linalg.inverse(conj[0]))]
    return pairs


def test_integer_meyer_matches_the_fraction_references():
    integral = nonintegral = 0
    for space, g1, g2 in _seeded_meyer_pairs():
        expected = ref_meyer_closed_form(space, g1, g2)
        assert ref_meyer(space, g1, g2) == expected
        assert sp.meyer_closed_form(space, g1, g2) == expected
        assert sp.meyer(space, g1, g2) == expected
        integral += type(g1) is tuple
        nonintegral += any(x.denominator != 1 for row in g1 for x in row)
    assert integral >= 300 and nonintegral >= 30


def test_integer_ternary_indices_match_the_fraction_references():
    rng = random.Random(2713)
    triples = []
    for _ in range(25):
        space, l1, l2, l3, *_ = _random_transverse_triple(rng.randint(1, 3), rng)
        triples += [(l1, l2, l3), (l1, l1, l3), (l3, l2, l2), (l2, l3, l1)]
    for space, g1, g2 in _seeded_meyer_pairs()[::7]:
        g1, g2 = linalg.frac_matrix(g1), linalg.frac_matrix(g2)
        triples.append(tuple(sp.graph_lagrangian(space, g)
                             for g in (linalg.identity(space.dim), g1, linalg.mat_mul(g1, g2))))
    for l1, l2, l3 in triples:
        assert sp.ternary_index(l1, l2, l3) == ref_ternary_index(l1, l2, l3)
        assert sp.ternary_index_kernel(l1, l2, l3) == ref_ternary_index_kernel(l1, l2, l3)


def test_closed_form_and_ternary_take_int_and_fraction_matrices():
    from veerlab import burau
    from veerlab.braid import parse_braid

    space = burau.symplectic_space(5)
    a = burau.burau_matrix(parse_braid("1 2 -3 4 4 1", 5))
    b = burau.burau_matrix(parse_braid("2 2 3 -1", 5))
    for g1, g2 in ((a, b), (linalg.frac_matrix(a), linalg.frac_matrix(b))):
        assert sp.meyer_closed_form(space, g1, g2) == sp.meyer(space, g1, g2)
    assert sp.meyer_closed_form(space, a, b) == sp.meyer_closed_form(
        space, linalg.frac_matrix(a), linalg.frac_matrix(b))
    not_symplectic = tuple(tuple(2 * x if i == 0 else x for x in row) for i, row in enumerate(a))
    not_square = a[:3]
    for bad in (not_symplectic, not_square, linalg.frac_matrix(not_symplectic),
                linalg.frac_matrix(not_square)):
        for fn in (sp.meyer_closed_form, sp.meyer):
            with pytest.raises(ValueError):
                fn(space, bad, b)
            with pytest.raises(ValueError):
                fn(space, a, bad)


def test_meyer_layer_needs_no_fraction_matrices(monkeypatch, capsys):
    from veerlab import burau, cli, linkinv
    from veerlab.sweeps import random_word

    rng = random.Random(2714)
    words = [(random_word(rng, n, 10), random_word(rng, n, 10)) for n in (2, 3, 4, 5, 7) * 4]
    expected = []
    for a, b in words:
        space = burau.symplectic_space(burau._odd_word(a).strands)
        ga = burau.burau_matrix(a)
        gb = burau.burau_matrix(b)
        expected.append((ref_meyer_closed_form(space, ga, gb), space, ga, gb))

    def forbidden(*args, **kwargs):
        raise AssertionError("Fraction matrix path entered")

    for name in ("inverse", "nullspace", "mat_mul", "frac_matrix"):
        monkeypatch.setattr(linalg, name, forbidden)
    for (a, b), (value, space, ga, gb) in zip(words, expected):
        report = linkinv.verify_eq_signature(a, b)
        assert report["meyer"] == value and report["equal"]
        assert sp.meyer(space, ga, gb) == value
        assert sp.meyer_closed_form(space, ga, gb) == value
        assert cli.main(["meyer", "-n", str(a.strands), str(a), str(b)]) == 0
        assert capsys.readouterr().out.strip() == '{"meyer": %d}' % value


def test_signature_takes_int_matrices_as_they_are(monkeypatch):
    # Every matrix goes through the one clearing helper; an int matrix comes
    # back as the same object with scale 1, a Fraction matrix as a new one.
    real, seen = linalg.cleared_matrix, []

    def spy(m):
        out = real(m)
        seen.append((m, out))
        return out

    monkeypatch.setattr(linalg, "cleared_matrix", spy)
    ints = ([[2, 1, 0], [1, 2, 0], [0, 0, -3]], ((0, 1), (1, 0)), [])
    assert [sp.signature(m) for m in ints] == [1, 0, 0]
    assert len(seen) == 3 and all(out[0] is m and out[1] == 1 for m, out in seen)
    half = linalg.frac_matrix([[Fraction(1, 2), 1], [1, 0]])
    assert sp.signature(half) == 0
    assert seen[-1][1] == ([[1, 2], [2, 0]], 2)
    with pytest.raises(ValueError):
        sp.signature([[1, 2], [3, 4]])


def test_kernels_are_reexported_not_wrapped():
    # A tracer that wraps symplectic.signature wraps every binding of the
    # one function, so callers of linalg.signature are counted too.
    import veerlab
    from veerlab import cli, verdict

    assert sp.signature is linalg.signature is veerlab.signature
    assert sp.BoundExceeded is verdict.BoundExceeded is cli.BoundExceeded
