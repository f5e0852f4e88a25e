import json
import random
from fractions import Fraction

import pytest

from veerlab import _core, modular, torus
from veerlab.braid import (
    BraidWord,
    braid3_equal,
    concat,
    conjugate,
    invert,
    linking_number,
    parse_braid,
    power,
)
from veerlab.modular import (
    Classification,
    SL2Matrix,
    classify,
    project_b3,
)
from veerlab.sweeps import random_word
from veerlab.torus import (
    HALF_TWIST_CUBE,
    check_quasipositive_certificate,
    check_right_veering_certificate,
    decompose,
    dehn_twist_delta,
    family_psi_check,
    phi,
    psi_frontier,
    quasipositive_verdict,
    right_veering,
    rot,
    verify_theorem_lk,
)
from veerlab.verdict import Verdict

W25 = parse_braid("1 2 1 1 2 1 -1 -1 -1 -1 2 -1 2 -1", 3)
PAPER_WITNESS_M4 = [((2,), 1), ((1,), 2)]  # (s2 s1 s2^-1)(s1 s2 s1^-1)


def family_word(j: int, m: int) -> BraidWord:
    return concat(power(HALF_TWIST_CUBE, j), power(BraidWord(3, (-1,)), m))


def test_decompose_examples():
    d = decompose(BraidWord.identity(3))
    assert d.k == 0 and d.w == BraidWord.identity(3)
    d = decompose(power(HALF_TWIST_CUBE, 4))
    assert d.k == 4 and len(d.w) == 0
    d = decompose(W25)
    assert d.k == 2 and linking_number(d.w) == -4
    assert braid3_equal(d.reassemble(), W25)


def test_decompose_alphabet_and_parity():
    rng = random.Random(21)
    for _ in range(400):
        b = random_word(rng, 3, 25)
        d = decompose(b)
        if d.case_tag in (1, 2):
            assert all(l in (-1, 2) for l in d.w.letters)
        else:
            assert all(l in (1, -2) for l in d.w.letters)
        assert d.k % 2 == (0 if d.case_tag in (1, 4) else 1)
        assert braid3_equal(d.reassemble(), b)


def test_rot_examples():
    assert rot(power(HALF_TWIST_CUBE, 4)) == 1
    assert rot(W25) == Fraction(1, 2)
    for m in range(0, 12):
        assert rot(family_word(2, m)) == Fraction(1, 2)


def test_theorem_lk():
    assert linking_number(W25) == 2 and 12 * rot(W25) + phi(W25) == 2
    assert verify_theorem_lk(BraidWord.identity(3))
    rng = random.Random(22)
    for _ in range(1500):
        assert verify_theorem_lk(random_word(rng, 3, 40))


def test_rot_is_lk_minus_phi_over_twelve_by_construction():
    # theorem-lk checks an identity that rot already builds in.
    rng = random.Random(5)
    for _ in range(1500):
        w = random_word(rng, 3, 40)
        assert rot(w) == Fraction(linking_number(w) - phi(w), 12)


def test_periodic_lift_enumeration():
    # The least right-veering periodic lifts and their matrices.
    a1 = parse_braid("1 2 1", 3)
    a2 = parse_braid("1 2", 3)
    a3 = parse_braid("1 2 1 2", 3)
    assert project_b3(a1) == SL2Matrix(0, 1, -1, 0)
    assert project_b3(a2) == SL2Matrix(1, 1, -1, 0)
    assert project_b3(a3) == SL2Matrix(0, 1, -1, -1)
    assert [linking_number(a) for a in (a1, a2, a3)] == [3, 2, 4]
    z = power(HALF_TWIST_CUBE, 2)
    for a in (a1, a2, a3):
        assert classify(project_b3(a)) is Classification.PERIODIC
        for k in range(3):
            lifted = concat(a, power(z, k))
            assert linking_number(lifted) > 0
            assert right_veering(lifted).value == "yes"
        dropped = concat(a, power(z, -1))
        assert linking_number(dropped) < 0
        assert right_veering(dropped).value == "no"


def test_right_veering_examples():
    assert right_veering(W25).value == "yes"
    assert right_veering(parse_braid("1 2", 3)).value == "yes"
    v = right_veering(parse_braid("-1", 3))
    assert v.value == "no"
    assert v.certificate["n"] == 0 and v.certificate["m"] == -1
    assert right_veering(BraidWord.identity(3)).value == "yes"


def test_right_veering_reducible_family():
    # (s1 s2 s1)^2 s1^-m is reducible about slope infinity with n = 1:
    # right-veering for every m, yet not quasipositive once m >= 5, so the
    # family exhibits the gap between the two monoids.
    for m in (5, 9, 30):
        b = family_word(2, m)
        assert classify(project_b3(b)) is Classification.REDUCIBLE
        v = right_veering(b)
        assert v.value == "yes"
        assert v.certificate["n"] == 1 and v.certificate["m"] == -m
        assert quasipositive_verdict(b).value == "no"


def test_right_veering_unknown_band_exists_and_is_reported():
    rng = random.Random(23)
    values = {"yes": 0, "no": 0, "unknown": 0}
    for _ in range(600):
        b = random_word(rng, 3, 12)
        v = right_veering(b)
        values[v.value] += 1
        assert check_right_veering_certificate(b, v)
        if v.value == "unknown":
            assert rot(b) < Fraction(1, 2)
            from veerlab.braid import invert

            assert rot(invert(b)) < Fraction(1, 2)
    assert values["yes"] and values["no"] and values["unknown"]


def test_quasipositive_family():
    for m in range(5, 51):
        v = quasipositive_verdict(family_word(2, m))
        assert v.value == "no", m
        assert check_quasipositive_certificate(family_word(2, m), v)
    # The Rademacher obstruction itself is what makes them non-quasipositive.
    for m in range(5, 51):
        b = family_word(2, m)
        assert -phi(b) >= 10 * rot(b)
    for m in range(0, 5):
        witness = PAPER_WITNESS_M4 + [((), 1)] * (4 - m)
        v = quasipositive_verdict(family_word(2, m), witness=witness)
        assert v.value == "yes"
        assert check_quasipositive_certificate(family_word(2, m), v)


def test_quasipositive_w25_certificate():
    v = quasipositive_verdict(W25)
    assert v.value == "no"
    assert v.certificate["obstruction"] == "lk2_word_equations"
    assert v.certificate["W"] == "LLLLRLRL"
    assert check_quasipositive_certificate(W25, v)


def test_quasipositive_lk_obstructions():
    assert quasipositive_verdict(parse_braid("-1", 3)).value == "no"
    v = quasipositive_verdict(parse_braid("1 -2", 3))
    assert v.value == "no" and v.certificate["obstruction"] == "lk_zero_nontrivial"
    assert quasipositive_verdict(parse_braid("1 -1", 3)).value == "yes"
    # lk obstructions also fire for other strand counts.
    assert quasipositive_verdict(parse_braid("-3", 5)).value == "no"
    v = quasipositive_verdict(parse_braid("1 -2", 5))
    assert v.value == "no"
    assert v.certificate["certified_by"] == "burau_at_minus_one"
    assert quasipositive_verdict(parse_braid("1 3 2", 5)).value == "yes"


def test_quasipositive_bad_witness_rejected():
    with pytest.raises(ValueError):
        quasipositive_verdict(parse_braid("1", 3), witness=[((), 2)])


def test_monoid_coherence():
    # Products of witnessed-quasipositive words never come back "no".
    rng = random.Random(24)
    for _ in range(60):
        witness_a = [
            (tuple(rng.choice([1, -1, 2, -2]) for _ in range(rng.randrange(0, 4))),
             rng.choice([1, 2]))
            for _ in range(rng.randrange(1, 4))
        ]
        witness_b = [
            (tuple(rng.choice([1, -1, 2, -2]) for _ in range(rng.randrange(0, 4))),
             rng.choice([1, 2]))
            for _ in range(rng.randrange(1, 4))
        ]
        from veerlab.torus import _witness_product

        a = _witness_product(3, witness_a)
        b = _witness_product(3, witness_b)
        assert quasipositive_verdict(a, witness=witness_a).value == "yes"
        assert quasipositive_verdict(b, witness=witness_b).value == "yes"
        combined = quasipositive_verdict(concat(a, b), witness=witness_a + witness_b)
        assert combined.value == "yes"
        assert quasipositive_verdict(concat(a, b)).value != "no"


def test_dehn_twist_delta_examples():
    assert dehn_twist_delta(BraidWord.identity(3), parse_braid("1", 3)) == (
        1, Fraction(0), 1,
    )
    allowed = {(1, Fraction(0), 1), (1, Fraction(1, 4), -2), (1, Fraction(1, 2), -5)}
    allowed_id = {(1, Fraction(0), 1), (1, Fraction(1, 4), -2)}
    rng = random.Random(25)
    seen = set()
    for _ in range(400):
        twist = conjugate(BraidWord(3, (1,)), random_word(rng, 3, 10))
        bprime = random_word(rng, 3, 14)
        t = dehn_twist_delta(bprime, twist)
        assert t in allowed
        seen.add(t)
        assert dehn_twist_delta(BraidWord.identity(3), twist) in allowed_id
    assert seen == allowed  # all three triples actually occur


def test_psi_frontier_examples():
    assert psi_frontier(5) == 3
    assert psi_frontier(4) == 2
    assert psi_frontier(0) == 1
    report = family_psi_check(5)
    assert report["ok"]
    assert [row["fires"] for row in report["rows"]] == [True, True, True, False]
    assert family_psi_check(0)["rows"][0]["fires"] is False
    for m in range(0, 26):
        assert family_psi_check(m)["ok"], m


def test_lk2_frontier_on_real_braids():
    # Random braids with lk = 2 and rot = 1/2: the turn-word certificate
    # must match the brute-force family decider, and a fired certificate
    # must surface as a "no" verdict.
    from fractions import Fraction as F

    from test_farey import brute_force_families
    from veerlab import farey
    from veerlab.modular import PSL2Element

    rng = random.Random(27)
    found = {"yes": 0, "no": 0}
    tries = 0
    while sum(found.values()) < 40 and tries < 120_000:
        tries += 1
        w = random_word(rng, 3, 14)
        if linking_number(w) != 2 or rot(w) != F(1, 2):
            continue
        tw = farey.turn_word(PSL2Element(project_b3(w)))
        if len(tw) > 10:
            continue
        verdict = farey.lk2_nonqp_certificate(tw)
        brute = brute_force_families(tw)
        assert (verdict.value == "no") == (brute is not None), (tw, brute)
        if verdict.value == "yes":
            assert quasipositive_verdict(w).value == "no"
        found[verdict.value] += 1
    assert found["no"] > 0


def test_central_shift():
    z = power(HALF_TWIST_CUBE, 2)
    rng = random.Random(26)
    for _ in range(300):
        b = random_word(rng, 3, 20)
        assert rot(concat(z, b)) == rot(b) + Fraction(1, 2)
        assert phi(concat(z, b)) == phi(b)


def test_strands_guard():
    with pytest.raises(ValueError):
        rot(parse_braid("1", 4))
    with pytest.raises(ValueError):
        right_veering(parse_braid("1", 4))


def test_decompose_and_phi_make_only_their_kernel_calls(monkeypatch):
    """decompose: one normal form and three products (the projection and the
    two inside the reassembly check); phi: one of each.  Neither builds a
    matrix or normal-form object through modular."""
    calls = {"word_matrix": 0, "nf_exponents": 0}
    for name in calls:
        kernel = getattr(_core, name)

        def counted(*args, _kernel=kernel, _name=name):
            calls[_name] += 1
            return _kernel(*args)

        monkeypatch.setattr(_core, name, counted)

    def forbidden(*args):
        raise AssertionError("modular wrapper called on the B_3 path")

    for name in ("project_b3", "normal_form", "rademacher"):
        monkeypatch.setattr(modular, name, forbidden)
        monkeypatch.setattr(torus, name, forbidden)
    rng = random.Random(12)
    for _ in range(50):
        b = random_word(rng, 3, 40)
        for fn, expected in ((decompose, (3, 1)), (phi, (1, 1))):
            calls.update(word_matrix=0, nf_exponents=0)
            fn(b)
            assert (calls["word_matrix"], calls["nf_exponents"]) == expected, fn


def ref_reducible_n_m(b):
    """The explicit fixed-slope conjugation that right_veering used before it
    read m from the class word: kept as a reference."""
    m_img = project_b3(b)
    q, p = modular.parabolic_fixed_slope(m_img)
    x, y = torus._bezout(q, p)
    h = SL2Matrix(-p, q, -x, -y)
    n_mat = h * m_img * h.inverse()
    assert (n_mat.a, n_mat.b, n_mat.d) in ((1, 0, 1), (-1, 0, -1))
    sign = n_mat.a
    m = -n_mat.c * sign
    lk = linking_number(b)
    assert (lk - m) % 6 == 0
    n = (lk - m) // 6
    assert sign == (1 if n % 2 == 0 else -1)
    return n, m, (q, p)


def ref_right_veering(b):
    """right_veering with the reducible numbers from the conjugation and the
    Anosov No from the inverted word, as before the class-word reading."""
    kind = classify(project_b3(b))
    if kind is not Classification.ANOSOV:
        if kind is Classification.REDUCIBLE:
            n, m, slope = ref_reducible_n_m(b)
            cert = {"type": "reducible", "n": n, "m": m, "fixed_slope": slope}
            return (Verdict.yes if n > 0 or (n == 0 and m >= 0) else Verdict.no)(cert)
        return right_veering(b)  # the periodic branch did not change
    r, r_inv = rot(b), rot(invert(b))
    if r >= Fraction(1, 2):
        return Verdict.yes({"type": "anosov", "rot": str(r)})
    if r_inv >= Fraction(1, 2):
        return Verdict.no({"type": "anosov", "rot_of_inverse": str(r_inv)})
    return Verdict.unknown(
        f"anosov with rot={r} and rot(inverse)={r_inv}, both below 1/2; "
        "no criterion applies in this band"
    )


def test_reducible_numbers_match_the_conjugation_road():
    rng = random.Random(11)
    checked = 0
    for _ in range(30000):
        b = random_word(rng, 3, 40)
        if classify(project_b3(b)) is Classification.REDUCIBLE:
            image = project_b3(b)
            assert torus._reducible_n_m(image, linking_number(b)) == ref_reducible_n_m(b), b
            checked += 1
    assert checked >= 5000


def test_reducible_verdict_projects_the_word_once(monkeypatch):
    # right_veering hands its image and lk to _reducible_n_m, which does
    # not project the word again.
    b = parse_braid("1 -2 2 -2 -1", 3)
    assert classify(project_b3(b)) is Classification.REDUCIBLE
    calls = []
    kernel = _core.word_matrix

    def counted(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(_core, "word_matrix", counted)
    verdict = right_veering(b)
    assert verdict.certificate["type"] == "reducible"
    assert len(calls) == 1


def test_right_veering_matches_the_parent_body():
    rng = random.Random(7)
    kinds = {kind: 0 for kind in Classification}
    values = {"yes": 0, "no": 0, "unknown": 0}
    for max_len in (8, 16, 30, 60):
        for _ in range(1000):
            b = random_word(rng, 3, max_len)
            v = right_veering(b)
            assert v.as_json() == ref_right_veering(b).as_json(), b
            kinds[classify(project_b3(b))] += 1
            values[v.value] += 1
    assert min(kinds.values()) > 300 and min(values.values()) > 300


def test_rot_of_the_inverse_is_minus_rot():
    rng = random.Random(3)
    words = [random_word(rng, 3, 60) for _ in range(5000)]
    words += [power(HALF_TWIST_CUBE, k) for k in range(-6, 7)]
    words += [power(BraidWord(3, (1,)), m) for m in range(-12, 13)]
    for b in words:
        assert rot(invert(b)) == -rot(b), b


class RoadTaken(Exception):
    pass


def test_verdicts_and_checkers_take_different_roads(monkeypatch):
    rng = random.Random(13)
    words = {"anosov_no": [], "reducible": [], "anosov_yes": []}
    for _ in range(2000):
        b = random_word(rng, 3, 24)
        v = right_veering(b)
        kind = (v.certificate or {}).get("type")
        if kind == "reducible":
            words["reducible"].append(b)
        elif kind == "anosov":
            words["anosov_" + v.value].append(b)
    assert min(len(found) for found in words.values()) >= 40
    expected = {b: right_veering(b) for found in words.values() for b in found}

    def road(*args):
        raise RoadTaken

    # The verdict side builds no inverse word, Bezout pair or matrix in torus.
    for name in ("invert", "_bezout", "SL2Matrix"):
        monkeypatch.setattr(torus, name, road)
    for b, v in expected.items():
        assert right_veering(b) == v
    for b in words["reducible"] + words["anosov_no"]:
        with pytest.raises(RoadTaken):
            check_right_veering_certificate(b, expected[b])
    for b in words["anosov_yes"]:
        assert check_right_veering_certificate(b, expected[b])


def _tampered(v, **changes):
    return Verdict(v.value, {**v.certificate, **changes})


def _dropped(v, key):
    return Verdict(v.value, {k: x for k, x in v.certificate.items() if k != key})


def test_checkers_refuse_tampered_and_malformed_certificates():
    w = parse_braid
    periodic_yes, periodic_no = w("1 2", 3), w("-1 -1 -2", 3)
    reducible, identity = w("1 -2 2 -2 -1", 3), BraidWord.identity(3)
    anosov_yes, anosov_no = W25, invert(W25)
    lk_one = w("2 2 -1 -2 2 -2 2", 3)
    family = family_word(4, 10)
    wide_zero, wide_identity = w("1 -2", 5), w("1 -1", 5)
    rv = {b: right_veering(b) for b in (periodic_yes, periodic_no, reducible, identity,
                                        anosov_yes, anosov_no)}
    qp = {b: quasipositive_verdict(b) for b in (periodic_no, w("1 -2", 3), lk_one, family,
                                                W25, periodic_yes, wide_zero, w("1 3 2", 5))}
    witnessed = family_word(2, 4)
    qp[witnessed] = quasipositive_verdict(witnessed, witness=PAPER_WITNESS_M4)
    for b, v in rv.items():
        assert check_right_veering_certificate(b, v), b
    for b, v in qp.items():
        assert v.value != "unknown" and check_quasipositive_certificate(b, v), b
    assert sorted(v.certificate.get("obstruction", v.value) for v in qp.values()) == [
        "lk2_word_equations", "lk_negative", "lk_one_not_halftwist_class",
        "lk_zero_nontrivial", "lk_zero_nontrivial", "rademacher_vs_rotation", "yes", "yes",
        "yes"]

    refused_rv = [
        (periodic_yes, _tampered(rv[periodic_yes], lk=3)),
        (periodic_yes, _tampered(rv[periodic_yes], lk="2")),
        (periodic_no, _tampered(rv[periodic_no], lk=3)),
        (identity, Verdict.no({"type": "periodic", "lk": 0})),
        (identity, Verdict.no({"type": "periodic", "identity": True})),
        (reducible, _tampered(rv[reducible], m=-7)),
        (reducible, _tampered(rv[reducible], n=1)),
        (reducible, _tampered(rv[reducible], n=1, m=-7)),
        (reducible, _tampered(rv[reducible], m=10**9, n=(-1 - 10**9) // 6)),
        (reducible, _tampered(rv[reducible], fixed_slope=[-1, 1])),
        (reducible, _tampered(rv[reducible], fixed_slope=[2, -2])),
        (reducible, _tampered(rv[reducible], fixed_slope="1-1")),
        (reducible, _tampered(rv[reducible], m="-1")),
        (reducible, _dropped(rv[reducible], "m")),
        (reducible, Verdict("yes", rv[reducible].certificate)),
        (anosov_yes, _tampered(rv[anosov_yes], rot="1")),
        (anosov_yes, _tampered(rv[anosov_yes], rot=Fraction(1, 2))),
        (anosov_yes, _tampered(rv[anosov_yes], type="reducible")),
        (anosov_yes, _dropped(rv[anosov_yes], "type")),
        (anosov_yes, Verdict("no", {"type": "anosov", "rot_of_inverse": "1/2"})),
        (anosov_no, _tampered(rv[anosov_no], rot_of_inverse="3/4")),
        (anosov_no, Verdict("yes", {"type": "anosov", "rot": "1/2"})),
        (anosov_no, Verdict("unknown", rv[anosov_no].certificate)),
        (anosov_no, Verdict("no", ["anosov", "1/2"])),
        (w("1 2", 4), Verdict.yes({"type": "periodic", "lk": 2})),
    ]
    refused_qp = [
        (periodic_no, _tampered(qp[periodic_no], lk=-4)),
        (periodic_no, _dropped(qp[periodic_no], "obstruction")),
        (w("1 -2", 3), _tampered(qp[w("1 -2", 3)], lk=1)),
        (identity, Verdict.no({"obstruction": "lk_zero_nontrivial", "lk": 0})),
        (wide_zero, _tampered(qp[wide_zero], certified_by="seifert")),
        (wide_identity, qp[wide_zero]),
        (lk_one, _tampered(qp[lk_one], lk=2)),
        (parse_braid("1 2", 4), Verdict.no({"obstruction": "lk_one_not_halftwist_class",
                                             "lk": 1})),
        (family, _tampered(qp[family], phi=-11)),
        (family, _tampered(qp[family], rot="5/4")),
        (family, _tampered(qp[family], inequality="10 >= 10 * 1/2")),
        (W25, _tampered(qp[W25], W="LLLLRLRR")),
        (W25, _tampered(qp[W25], families_checked=[1, 2, 3])),
        (periodic_yes, _tampered(qp[periodic_yes], positive_word="12")),
        (periodic_yes, _tampered(qp[periodic_yes], positive_word=[1, 3])),
        (periodic_yes, _tampered(qp[periodic_yes], positive_word=[1, 2, 1])),
        (periodic_yes, Verdict.yes({"positive_word": [-1, 2, 1]})),
        (witnessed, _tampered(qp[witnessed], witness=[[[2], 7], [[1], 2]])),
        (witnessed, _tampered(qp[witnessed], witness=[[[2], 1], [[1], 1]])),
        (witnessed, _tampered(qp[witnessed], witness=[["2", 1], [[1], 2]])),
        (witnessed, _tampered(qp[witnessed], witness=[[[2], 1, 0], [[1], 2]])),
        (w("1 3", 4), Verdict.yes({"witness": [[[], 1], [[], 3]]})),
    ]
    for b, v in refused_rv:
        assert check_right_veering_certificate(b, v) is False, (b, v)
    for b, v in refused_qp:
        assert check_quasipositive_certificate(b, v) is False, (b, v)


def test_checkers_let_an_invariant_failure_through(monkeypatch):
    def broken(b):
        raise AssertionError("decomposition failed")

    monkeypatch.setattr(torus, "rot", broken)
    with pytest.raises(AssertionError):
        check_right_veering_certificate(W25, Verdict.yes({"type": "anosov", "rot": "1/2"}))


def test_every_verdict_survives_a_json_round_trip():
    rng = random.Random(17)
    checked = 0
    for strands in (3, 4, 5, 6, 7):
        for _ in range(400):
            b = random_word(rng, strands, 16)
            pairs = [(quasipositive_verdict, check_quasipositive_certificate)]
            if strands == 3:
                pairs.append((right_veering, check_right_veering_certificate))
            for verdict_of, check in pairs:
                data = json.loads(json.dumps(verdict_of(b).as_json()))
                v = Verdict(data["value"], data.get("certificate"), data.get("reason", ""))
                assert check(b, v), (b, data)
                checked += 1
    assert checked >= 2000
