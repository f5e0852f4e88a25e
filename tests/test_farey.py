import itertools
import random

import pytest

from veerlab import farey
from veerlab.braid import parse_braid
from veerlab.farey import (
    ExtSlope,
    FareyEdge,
    edge_of,
    geodesic_edges,
    invert_turn_word,
    lk2_nonqp_certificate,
    rademacher_turns,
    solve_xp_eq_pw,
    turn_word,
)
from veerlab.modular import (
    PSL2Element,
    SL2_A,
    SL2_B,
    SL2Matrix,
    SIGMA2_BAR,
    project_b3,
    rademacher,
)
from veerlab.sweeps import random_psl


def slope_action(m: SL2Matrix, s: ExtSlope) -> ExtSlope:
    """Independent matrix action on slopes: left multiplication on (q, p)."""
    return ExtSlope(m.a * s.q + m.b * s.p, m.c * s.q + m.d * s.p)


SLOPE0 = ExtSlope(1, 0)
SLOPEINF = ExtSlope(0, 1)


def test_ext_slope_canonicalization():
    assert ExtSlope(-2, 4) == ExtSlope(1, -2)
    assert ExtSlope(0, -3) == ExtSlope(0, 1)
    assert str(ExtSlope(0, 1)) == "inf"
    assert str(ExtSlope(2, 1)) == "1/2"
    with pytest.raises(ValueError):
        ExtSlope(0, 0)


def test_edge_of_examples():
    ident = PSL2Element(SL2Matrix(1, 0, 0, 1))
    assert edge_of(ident) == FareyEdge(SLOPE0, SLOPEINF)
    # Derived by applying the matrix action to the slopes 0 and infinity.
    for g in (SL2_A, SL2_B, SIGMA2_BAR, SL2_A * SL2_B):
        e = edge_of(PSL2Element(g))
        assert e.a == slope_action(g, SLOPE0)
        assert e.b == slope_action(g, SLOPEINF)
    assert edge_of(PSL2Element(SL2_A)) == FareyEdge(SLOPEINF, SLOPE0)
    assert edge_of(PSL2Element(SL2_B)) == FareyEdge(ExtSlope(1, 1), SLOPE0)


def test_edge_of_is_injective_on_short_ball():
    # All elements of word length <= 12 in {A, B, B^-1}: distinct group
    # elements give distinct directed edges.
    gens = [SL2_A, SL2_B, SL2_B.inverse()]
    seen: dict[tuple, tuple] = {PSL2Element(SL2Matrix(1, 0, 0, 1)).rep.entries(): None}
    frontier = [PSL2Element(SL2Matrix(1, 0, 0, 1))]
    for _ in range(12):
        nxt = []
        for g in frontier:
            for m in gens:
                h = PSL2Element(g.rep * m)
                if h.rep.entries() not in seen:
                    seen[h.rep.entries()] = None
                    nxt.append(h)
        frontier = nxt
    edges = {}
    for entries in seen:
        g = PSL2Element(SL2Matrix(*entries))
        e = edge_of(g)
        key = (e.a, e.b)
        assert key not in edges, f"edge collision for {entries} and {edges[key]}"
        edges[key] = entries


def test_turn_word_examples():
    ident = PSL2Element(SL2Matrix(1, 0, 0, 1))
    assert turn_word(ident) == ""
    assert turn_word(PSL2Element(SL2_A)) == ""
    s2 = PSL2Element(SIGMA2_BAR)
    assert rademacher_turns(s2) == 1
    w = parse_braid("1 2 1 1 2 1 -1 -1 -1 -1 2 -1 2 -1", 3)
    g = PSL2Element(project_b3(w))
    assert turn_word(g) == "LLLLRLRL"
    assert rademacher_turns(g) == -4


def test_two_roads_agree():
    rng = random.Random(9)
    for _ in range(3000):
        g = random_psl(rng, 40)
        assert rademacher_turns(g) == rademacher(g)


def test_turn_word_rewalk_lands_on_target():
    rng = random.Random(10)
    for _ in range(400):
        g = random_psl(rng, 30)
        edges = geodesic_edges(g)
        assert len(edges) == len(turn_word(g)) + 1
        target = edge_of(g)
        assert {edges[-1].a, edges[-1].b} == {target.a, target.b}
        for e1, e2 in zip(edges, edges[1:]):
            assert len({e1.a, e1.b} & {e2.a, e2.b}) == 1


def test_invert_turn_word():
    assert invert_turn_word("LRLL") == "RRLR"
    assert invert_turn_word("") == ""


def brute_force_xp_pw(x: str, w: str, max_len: int) -> list[str]:
    """Enumerate all P with |P| <= max_len and test XP = PW directly."""
    sols = []
    for length in range(max_len + 1):
        for bits in itertools.product("LR", repeat=length):
            p = "".join(bits)
            if x + p == p + w:
                sols.append(p)
    return sols


def test_solve_xp_eq_pw_examples():
    assert "" in solve_xp_eq_pw("LL", "LL")
    assert solve_xp_eq_pw("RL", "LR") == ["R"]
    assert solve_xp_eq_pw("LLLL", "RLRL") == []
    assert solve_xp_eq_pw("LL", "LLL") == []


def test_solve_xp_eq_pw_against_brute_force():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randrange(1, 5)
        x = "".join(rng.choice("LR") for _ in range(n))
        w = "".join(rng.choice("LR") for _ in range(n))
        found = set(solve_xp_eq_pw(x, w))
        brute = brute_force_xp_pw(x, w, 2 * n + 1)
        # Every brute solution is x^i u for a returned u.
        for p in brute:
            suffix = p
            while len(suffix) > n:
                assert suffix.startswith(x)
                suffix = suffix[len(x):]
            assert suffix in found
        # Every returned solution really solves the equation.
        for u in found:
            assert x + u == u + w


def brute_force_families(w: str) -> dict | None:
    """Exhaustively test the four word-equation families by substitution."""
    n = len(w)
    if n < 4 or n % 2:
        return None
    half = (n - 4) // 2
    for p_bits in itertools.product("LR", repeat=half):
        p = "".join(p_bits)
        if "L" + p + "LL" + invert_turn_word(p) + "L" == w:
            return {"family": 1, "P": p}
    for l1 in range(half + 1):
        for bits1 in itertools.product("LR", repeat=l1):
            p1 = "".join(bits1)
            for bits2 in itertools.product("LR", repeat=half - l1):
                p2 = "".join(bits2)
                if p1 + "LL" + invert_turn_word(p1) + p2 + "LL" + invert_turn_word(p2) == w:
                    return {"family": 2, "P1": p1, "P2": p2}
    # For XP = PW any solution of length >= |X| strips a leading X to a
    # shorter one, so searching |P1| < n decides existence.
    for bits2 in itertools.product("LR", repeat=half):
        p2 = "".join(bits2)
        for l1 in range(n):
            for bits1 in itertools.product("LR", repeat=l1):
                p1 = "".join(bits1)
                if p2 + "LL" + invert_turn_word(p2) + "LL" + p1 == p1 + w:
                    return {"family": 3, "P1": p1, "P2": p2}
    for bits2 in itertools.product("LR", repeat=half):
        p2 = "".join(bits2)
        for l1 in range(n):
            for bits1 in itertools.product("LR", repeat=l1):
                p1 = "".join(bits1)
                if p1 + "LL" + p2 + "LL" + invert_turn_word(p2) == w + p1:
                    return {"family": 4, "P1": p1, "P2": p2}
    return None


def ref_family3(w: str) -> tuple[str, str] | None:
    """Family 3 by enumerating every P2 in the order of the binary number
    with bit i set where P2 has an R."""
    if len(w) < 4 or len(w) % 2 != 0:
        return None
    p2_len = (len(w) - 4) // 2
    for bits in range(1 << p2_len):
        p2 = "".join("LR"[(bits >> i) & 1] for i in range(p2_len))
        x = p2 + "LL" + invert_turn_word(p2) + "LL"
        solutions = solve_xp_eq_pw(x, w)
        if solutions:
            return solutions[0], p2
    return None


def ref_family4(w: str) -> tuple[str, str] | None:
    """Family 4, W P1 = P1 Y with Y = L L P2 L L P2^-1, by enumeration."""
    if len(w) < 4 or len(w) % 2 != 0:
        return None
    p2_len = (len(w) - 4) // 2
    for bits in range(1 << p2_len):
        p2 = "".join("LR"[(bits >> i) & 1] for i in range(p2_len))
        y = "LL" + p2 + "LL" + invert_turn_word(p2)
        solutions = solve_xp_eq_pw(w, y)
        if solutions:
            return solutions[0], p2
    return None


def ref_certificate(w: str) -> farey.Verdict:
    """The four families in order, families 3 and 4 by enumeration."""
    p = farey._family1(w)
    if p is not None:
        return farey.Verdict.no({"family": 1, "P": p, "W": w})
    for family, solve in ((2, farey._family2), (3, ref_family3), (4, ref_family4)):
        p12 = solve(w)
        if p12 is not None:
            return farey.Verdict.no({"family": family, "P1": p12[0], "P2": p12[1], "W": w})
    k = (len(w) - 4) // 2 if len(w) >= 4 else None
    return farey.Verdict.yes({
        "W": w,
        "families_checked": [1, 2, 3, 4],
        "forced_lengths": {"family1_P": k, "family2_P1_plus_P2": k, "family34_P2": k},
    })


def test_lk2_certificate_matches_the_enumeration_on_every_short_word():
    for n in range(0, 13, 2):
        for bits in itertools.product("LR", repeat=n):
            w = "".join(bits)
            assert lk2_nonqp_certificate(w) == ref_certificate(w), w
            # Families 1 and 4 are rotations of family 3, so neither decides alone.
            assert (ref_family4(w) is None) == (ref_family3(w) is None), w
            assert farey._family1(w) is None or farey._family3(w) is not None, w


def test_family4_certificates_still_check():
    w = "RLLLRLLL"
    p1, p2 = ref_family4(w)
    cert = farey.Verdict.no({"family": 4, "P1": p1, "P2": p2, "W": w})
    assert farey.check_lk2_certificate(cert)
    bad = farey.Verdict.no({"family": 4, "P1": p1, "P2": p2, "W": "RLLLRLLR"})
    assert not farey.check_lk2_certificate(bad)


def test_lk2_certificate_paper_word():
    verdict = lk2_nonqp_certificate("LLLLRLRL")
    assert verdict.value == "yes"
    assert brute_force_families("LLLLRLRL") is None


def test_lk2_certificate_solvable_word():
    # LLLL is solved by family 2 with both P_i empty (direct substitution),
    # and by family 1 with P empty, which the search finds first.
    assert "" + "LL" + "" + "" + "LL" + "" == "LLLL"
    verdict = lk2_nonqp_certificate("LLLL")
    assert verdict.value == "no"
    assert verdict.certificate["family"] in (1, 2)
    assert farey.check_lk2_certificate(verdict)


def test_lk2_certificate_matches_brute_force():
    rng = random.Random(12)
    words = ["LLLLLL", "LLLLLLLL"] + [
        "".join(rng.choice("LR") for _ in range(rng.choice([4, 6, 8])))
        for _ in range(60)
    ]
    for w in words:
        verdict = lk2_nonqp_certificate(w)
        brute = brute_force_families(w)
        if brute is None:
            assert verdict.value == "yes", (w, verdict)
        else:
            assert verdict.value == "no", (w, brute)
            assert farey.check_lk2_certificate(verdict)


def test_lk2_certificate_rejects_bad_letters():
    with pytest.raises(ValueError):
        lk2_nonqp_certificate("LX")


@pytest.mark.parametrize("payload, valid", [
    ({"family": 1, "P": "R", "W": "LRLLLL"}, True),
    ({"family": 2, "P1": "R", "P2": "", "W": "RLLLLL"}, True),
    ({"family": 3, "P1": "LLLR", "P2": "L", "W": "LLLLLR"}, True),
    ({"family": 4, "P1": ref_family4("RLLLRLLL")[0], "P2": ref_family4("RLLLRLLL")[1],
      "W": "RLLLRLLL"}, True),
    ({"family": 1, "P": "R", "W": "LRLLLR"}, False),
    ({"family": 3}, False),
    ({}, False),
    ({"family": 1, "W": "LRLLLL"}, False),
    ({"family": 2, "P1": "R", "W": "RLLLLL"}, False),
    ({"family": 3, "P1": 1, "P2": "", "W": "LLLL"}, False),
    ({"family": 4, "P1": "", "P2": None, "W": "LLLL"}, False),
    ({"family": 1, "P": "X", "W": "LXLLLL"}, False),
    ({"family": 1, "P": "R", "W": ["L"]}, False),
    ({"family": 5, "P1": "", "P2": "", "W": "LLLL"}, False),
    ({"family": "1", "P": "R", "W": "LRLLLL"}, False),
    ({"family": [1], "P": "R", "W": "LRLLLL"}, False),
])
def test_check_lk2_certificate_table(payload, valid):
    assert farey.check_lk2_certificate(farey.Verdict.no(payload)) is valid
    assert not farey.check_lk2_certificate(farey.Verdict.yes(payload))
