"""Seeded randomized property suites.

Each suite returns a dict with the count, the number of failures, and a
few failed examples (never silently dropped).  The CLI sweep command and
the acceptance tests both run these, so a violation found anywhere is
reproducible from its seed.
"""

from __future__ import annotations

import random
from fractions import Fraction

from veerlab import burau, farey, linalg, linkinv, poly, symplectic, torus
from veerlab.braid import BraidWord, concat, conjugate
from veerlab.modular import (
    PSL2Element,
    SL2Matrix,
    normal_form,
    rademacher,
)

__all__ = ["SUITES", "run_suite", "random_word", "random_psl"]


def random_word(rng: random.Random, strands: int, max_len: int) -> BraidWord:
    gens = [k for k in range(-(strands - 1), strands) if k != 0]
    return BraidWord(
        strands, tuple(rng.choice(gens) for _ in range(rng.randrange(0, max_len + 1)))
    )


def random_psl(rng: random.Random, max_len: int) -> PSL2Element:
    """A random word of up to ``max_len`` letters in A, B and B^-1."""
    choices = [(0, 1, -1, 0), (1, -1, 1, 0), (0, 1, -1, 1)]
    a, b, c, d = 1, 0, 0, 1
    for _ in range(rng.randrange(0, max_len + 1)):
        e, f, g, h = rng.choice(choices)
        a, b, c, d = a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h
    return PSL2Element(SL2Matrix(a, b, c, d))


def _result(name: str, count: int, seed: int, failures: list) -> dict:
    return {
        "suite": name,
        "count": count,
        "seed": seed,
        "failures": len(failures),
        "failed_examples": failures[:5],
    }


def suite_theorem_lk(count: int, seed: int) -> dict:
    """lk = 12 rot + Phi on random 3-braids of length <= 40.

    `torus.rot` is (lk - Phi) / 12 by construction, so failures stay 0; a
    broken decomposition raises from `decompose`'s asserts instead (see
    `torus.verify_theorem_lk`).
    """
    rng = random.Random(seed)
    failures = []
    for _ in range(count):
        w = random_word(rng, 3, 40)
        if not torus.verify_theorem_lk(w):
            failures.append(str(w))
    return _result("theorem-lk", count, seed, failures)


def suite_rademacher(count: int, seed: int) -> dict:
    """Normal-form Phi equals turn-count Phi; normal form round-trips."""
    rng = random.Random(seed)
    failures = []
    for _ in range(count):
        g = random_psl(rng, 60)
        nf = normal_form(g)
        ok = nf.to_psl() == g and rademacher(g) == farey.rademacher_turns(g)
        if not ok:
            failures.append(str(g.rep))
    return _result("rademacher", count, seed, failures)


def suite_quasimorphism(count: int, seed: int) -> dict:
    """|Phi(gh) - Phi(g) - Phi(h)| <= 3 on random pairs."""
    rng = random.Random(seed)
    failures = []
    for _ in range(count):
        g = random_psl(rng, 40)
        h = random_psl(rng, 40)
        defect = abs(rademacher(g * h) - rademacher(g) - rademacher(h))
        if defect > 3:
            failures.append({"g": str(g.rep), "h": str(h.rep), "defect": defect})
    return _result("quasimorphism", count, seed, failures)


def suite_dehn_deltas(count: int, seed: int) -> dict:
    """Twist deltas land in the allowed triples, two for trivial starts."""
    rng = random.Random(seed)
    allowed = {(1, Fraction(0), 1), (1, Fraction(1, 4), -2), (1, Fraction(1, 2), -5)}
    allowed_id = {(1, Fraction(0), 1), (1, Fraction(1, 4), -2)}
    failures = []
    for _ in range(count):
        twist = conjugate(BraidWord(3, (1,)), random_word(rng, 3, 10))
        bprime = random_word(rng, 3, 14)
        if torus.dehn_twist_delta(bprime, twist) not in allowed:
            failures.append({"bprime": str(bprime), "twist": str(twist)})
        if torus.dehn_twist_delta(BraidWord.identity(3), twist) not in allowed_id:
            failures.append({"bprime": "", "twist": str(twist)})
    return _result("dehn-deltas", count, seed, failures)


def suite_cochain(count: int, seed: int) -> dict:
    """delta Phi = -12 delta rot on random pairs of 3-braids."""
    rng = random.Random(seed)
    failures = []
    for _ in range(count):
        a = random_word(rng, 3, 20)
        b = random_word(rng, 3, 20)
        lhs = torus.phi(a) + torus.phi(b) - torus.phi(concat(a, b))
        rhs = -12 * (torus.rot(a) + torus.rot(b) - torus.rot(concat(a, b)))
        if lhs != rhs:
            failures.append({"a": str(a), "b": str(b)})
    return _result("cochain", count, seed, failures)


def suite_signatures(count: int, seed: int) -> dict:
    """Seifert oracle equals the Meyer-cocycle engine (rank-one terms) on
    random closures."""
    rng = random.Random(seed)
    failures = []
    for i in range(count):
        strands = 3 if i % 2 == 0 else 5
        w = random_word(rng, strands, 12)
        if linkinv.seifert_signature(w) != linkinv.meyer_signature(w):
            failures.append({"strands": strands, "word": str(w)})
    return _result("signatures", count, seed, failures)


def suite_sign_maslov(count: int, seed: int) -> dict:
    """sign = -lk + 2 mu on random words in B_3 and B_5, with mu by
    crossing counts, which must equal mu by the chart engine."""
    rng = random.Random(seed)
    failures = []
    for i in range(count):
        strands = 3 if i % 2 == 0 else 5
        w = random_word(rng, strands, 12 if strands == 3 else 10)
        report = linkinv.verify_sign_maslov(w)
        charts = linkinv.maslov_by_charts(w)
        if not report["equal"] or charts != report["mu"]:
            record = {**report, "mu_charts": charts}
            failures.append(
                {k: str(v) if isinstance(v, Fraction) else v for k, v in record.items()}
            )
    return _result("sign-maslov", count, seed, failures)


def suite_eq_signature(count: int, seed: int) -> dict:
    """sign(ab) = sign(a) + sign(b) - Meyer on random pairs."""
    rng = random.Random(seed)
    failures = []
    for i in range(count):
        strands = 3 if i % 2 == 0 else 5
        a = random_word(rng, strands, 10)
        b = random_word(rng, strands, 10)
        report = linkinv.verify_eq_signature(a, b)
        if not report["equal"]:
            failures.append({"a": str(a), "b": str(b), **report})
    return _result("eq-signature", count, seed, failures)


def suite_meyer_cocycle(count: int, seed: int) -> dict:
    """Meyer(g1,g2) + Meyer(g1g2,g3) = Meyer(g2,g3) + Meyer(g1,g2g3) by the
    closed form, which must equal the ternary-index form on each pair.  The
    rank-one term must equal the closed form on (first letter, rest) of the
    first word."""
    rng = random.Random(seed)
    failures = []
    for i in range(count):
        strands = 3 if i % 2 == 0 else 5
        space = burau.symplectic_space(strands)
        words = [random_word(rng, strands, 8) for _ in range(3)]
        gs = [burau.burau_matrix(w) for w in words]
        if words[0].letters:
            letter, rest = words[0].letters[0], words[0].letters[1:]
            rep = burau.homology_rep(strands)
            suffix = burau.burau_matrix(BraidWord(strands, rest))
            rank_one = linkinv.meyer_letter(letter, suffix)
            closed_one = symplectic.meyer_closed_form(space, rep.image(letter), suffix)
            if rank_one != closed_one:
                failures.append({"strands": strands, "letter": letter,
                                 "rank_one": rank_one, "closed_form": closed_one})
        g12 = linalg.int_mul(gs[0], gs[1])
        g23 = linalg.int_mul(gs[1], gs[2])
        pairs = [(gs[0], gs[1]), (g12, gs[2]), (gs[1], gs[2]), (gs[0], g23)]
        closed = [symplectic.meyer_closed_form(space, a, b) for a, b in pairs]
        ternary = [symplectic.meyer(space, a, b) for a, b in pairs]
        if closed[0] + closed[1] != closed[2] + closed[3] or closed != ternary:
            failures.append({"strands": strands})
    return _result("meyer-cocycle", count, seed, failures)


def suite_gg_remark(count: int, seed: int) -> dict:
    """3 sign + 2 lk = -Phi_class on Anosov 3-braids; violations reported."""
    rng = random.Random(seed)
    failures = []
    done = 0
    while done < count:
        w = random_word(rng, 3, 16)
        try:
            report = linkinv.gg_remark_check(w)
        except ValueError:
            continue
        done += 1
        if not report["equal"]:
            failures.append(report)
    return _result("gg-remark", count, seed, failures)


def _random_symplectic(n: int, rng: random.Random) -> list[list[int]]:
    """A random element of Sp(2n, Z): products of integer shears and the J
    swap, multiplied on ints."""
    space = symplectic.SymplecticSpace.standard(n)
    swap = [[int(x) for x in row] for row in space.form]
    g = [[int(i == j) for j in range(2 * n)] for i in range(2 * n)]
    for _ in range(rng.randrange(2, 6)):
        s = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                s[i][j] = s[j][i] = rng.randint(-2, 2)
        shear = [[int(i == j) for j in range(2 * n)] for i in range(2 * n)]
        upper = rng.random() < 0.5
        for i in range(n):
            for j in range(n):
                if upper:
                    shear[i][n + j] = s[i][j]
                else:
                    shear[n + i][j] = s[i][j]
        g = linalg.int_mul(g, shear)
        if rng.random() < 0.4:
            g = linalg.int_mul(g, swap)
    if not space.is_symplectic_matrix(g):
        raise AssertionError("random product is not symplectic")
    return g


def _random_transverse_triple(n: int, rng: random.Random):
    """(space, L1, L2, L3, U1, U2, A): a mutually transverse triple with
    its adapted frames, as psi-images of the model ({y=0}, {x=0}, {y=Ax}),
    on ints: U1 and U2 are the two column blocks of psi."""
    space = symplectic.SymplecticSpace.standard(n)
    while True:
        a = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                a[i][j] = a[j][i] = rng.randint(-3, 3)
        if linalg.det(a) != 0:
            break
    psi = _random_symplectic(n, rng)
    u1 = [row[:n] for row in psi]
    u2 = [row[n:] for row in psi]
    l1 = symplectic.frame(space, u1)
    l2 = symplectic.frame(space, u2)
    u2a = linalg.int_mul(u2, a)
    l3 = symplectic.frame(space, [[x + y for x, y in zip(r1, r2)] for r1, r2 in zip(u1, u2a)])
    return space, l1, l2, l3, u1, u2, a


def suite_ternary_lemma(count: int, seed: int) -> dict:
    """I(L1,L2,L3) = 2(mu_12 + mu_23 + mu_31) with chart-line paths, and
    the two definitions of I agree, in dimensions 2 and 4."""
    rng = random.Random(seed)
    failures = []
    for i in range(count):
        n = 1 if i % 2 == 0 else 2
        space, l1, l2, l3, u1, u2, a = _random_transverse_triple(n, rng)
        a_inv = linalg.inverse(a)
        seg13 = _line_segment(u1, linalg.int_mul(u2, a))
        seg23 = _line_segment(u2, linalg.mat_mul(u1, a_inv))
        g13 = symplectic.LagrangianPath(space, (seg13,))
        g23 = symplectic.LagrangianPath(space, (seg23,))
        g12 = g13.concat(g23.reversed())
        g31 = g13.reversed()
        i_direct = symplectic.ternary_index(l1, l2, l3)
        i_kernel = symplectic.ternary_index_kernel(l1, l2, l3)
        total = 2 * (
            symplectic.maslov_index(g12, l1)
            + symplectic.maslov_index(g23, l2)
            + symplectic.maslov_index(g31, l3)
        )
        if not (i_direct == i_kernel == total):
            failures.append({"n": n, "I": i_direct, "I_kernel": i_kernel, "mu_sum": str(total)})
    return _result("ternary-lemma", count, seed, failures)


def _line_segment(base: linalg.Matrix, direction: linalg.Matrix):
    """Polynomial frame base + t * direction."""
    return [
        [poly.poly([xb, xd]) for xb, xd in zip(rb, rd)]
        for rb, rd in zip(base, direction)
    ]


SUITES = {
    "theorem-lk": suite_theorem_lk,
    "rademacher": suite_rademacher,
    "quasimorphism": suite_quasimorphism,
    "dehn-deltas": suite_dehn_deltas,
    "cochain": suite_cochain,
    "signatures": suite_signatures,
    "sign-maslov": suite_sign_maslov,
    "eq-signature": suite_eq_signature,
    "meyer-cocycle": suite_meyer_cocycle,
    "gg-remark": suite_gg_remark,
    "ternary-lemma": suite_ternary_lemma,
}


def run_suite(name: str, count: int, seed: int) -> dict:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    return SUITES[name](count, seed)
