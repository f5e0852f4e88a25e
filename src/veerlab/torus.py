"""Punctured-torus (B_3) invariants: the canonical decomposition
(sigma_1 sigma_2 sigma_1)^k w, rotation number, the linking-number identity,
right-veering and quasipositivity verdicts, and the Dehn-twist deltas.

The decomposition is read off the normal form of the PSL(2,Z) image: with
A the image of sigma_1 sigma_2 sigma_1 and B the image of (sigma_2 sigma_1)^-1,

    BA   = sigma_2-bar,  B^-1 A = sigma_1-bar^-1,
    AB   = sigma_1-bar,  A B^-1 = sigma_2-bar^-1,

so the four shapes of the normal form (does it start with A? end with A?)
are exactly the four cases of the decomposition, and w is read letter by
letter.  The power k then comes from linking numbers, since the kernel of
B_3 -> PSL(2,Z) is generated by the central square with lk = 6.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Sequence

from veerlab import _core, farey
from veerlab.braid import (
    BraidWord,
    _word,
    braid3_equal,
    concat,
    conjugate,
    free_reduce,
    invert,
    is_identity_braid3,
    linking_number,
    power,
)
from veerlab.modular import (
    Classification,
    PSL2Element,
    SIGMA1_BAR,
    SL2Matrix,
    classify,
    normal_form,
    parabolic_fixed_slope,
    project_b3,
    psl_conjugate,
    rademacher,
)
from veerlab.verdict import Verdict

__all__ = [
    "TorusDecomposition",
    "decompose",
    "rot",
    "phi",
    "verify_theorem_lk",
    "right_veering",
    "quasipositive_verdict",
    "dehn_twist_delta",
    "family_psi_check",
    "psi_frontier",
    "check_right_veering_certificate",
    "check_quasipositive_certificate",
    "HALF_TWIST_CUBE",
]

HALF_TWIST_CUBE = BraidWord(3, (1, 2, 1))  # maps to A; its square is central


@dataclass(frozen=True)
class TorusDecomposition:
    """b = (sigma_1 sigma_2 sigma_1)^k w with w in the case alphabet."""

    k: int
    w: BraidWord
    case_tag: int

    def reassemble(self) -> BraidWord:
        return concat(power(HALF_TWIST_CUBE, self.k), self.w)


def _require_b3(b: BraidWord) -> None:
    if b.strands != 3:
        raise ValueError("this invariant needs a word in B_3")


def decompose(b: BraidWord) -> TorusDecomposition:
    """Canonical decomposition of a 3-braid.

    Cases 1 and 2 give w over {sigma_1^-1, sigma_2} (k even resp. odd);
    cases 3 and 4 give w over {sigma_1, sigma_2^-1} (k odd resp. even).
    """
    _require_b3(b)
    r = _core.nf_exponents(*_core.word_matrix(b.letters))
    if not r:
        case, w_letters = 1, []
    elif r[0] != 0 and r[-1] == 0:
        # (B^r A)^m: case 1.
        case = 1
        w_letters = [2 if e == 1 else -1 for e in r[:-1]]
    elif r[0] == 0 and r[-1] == 0:
        # A (B^r A)^m: case 2 (this includes the bare A).
        case = 2
        w_letters = [2 if e == 1 else -1 for e in r[1:-1]]
    elif r[0] != 0 and r[-1] != 0:
        # B^r1 A ... B^rk = A (A B^r1)(A B^r2)...: case 3.
        case = 3
        w_letters = [1 if e == 1 else -2 for e in r]
    else:
        # (A B^r)^m: case 4.
        case = 4
        w_letters = [1 if e == 1 else -2 for e in r[1:]]
    w = _word(3, tuple(w_letters))
    lk_diff = linking_number(b) - linking_number(w)
    if lk_diff % 3 != 0:
        raise AssertionError(f"decomposition failed for {b}: lk gap {lk_diff}")
    k = lk_diff // 3
    if k % 2 != (0 if case in (1, 4) else 1):
        raise AssertionError(f"decomposition failed for {b}: parity of k={k}")
    dec = TorusDecomposition(k, w, case)
    if not braid3_equal(dec.reassemble(), b):
        raise AssertionError(f"decomposition reassembly failed for {b}")
    return dec


def rot(b: BraidWord) -> Fraction:
    """Rotation number k/4, normalized so the boundary twist has rot 1."""
    return Fraction(decompose(b).k, 4)


def phi(b: BraidWord) -> int:
    """Rademacher function of the PSL(2,Z) image."""
    _require_b3(b)
    return sum(_core.nf_exponents(*_core.word_matrix(b.letters)))


def verify_theorem_lk(b: BraidWord) -> bool:
    """Check lk = 12 rot + Phi exactly.

    The identity holds by construction, so this is not an independent
    check: `rot` is k / 4 with k = (lk - lk(w)) / 3, and lk(w) is the
    exponent sum of the normal form, which is Phi.  It can fail only through
    `decompose`'s parity and reassembly asserts, which raise instead of
    returning False.  An independent second road would read rot from the
    exact translation number of the braid's action on the universal cover
    of the circle of directions, which is not computed yet.
    """
    return linking_number(b) == 12 * rot(b) + phi(b)


def _reducible_n_m(b: BraidWord) -> tuple[int, int, tuple[int, int]]:
    """Write a reducible b as (sigma_1 sigma_2 sigma_1)^(2n) R_gamma^m.

    Conjugates the parabolic fixed slope to infinity with an explicit
    SL(2,Z) matrix; the twist count m sits in the lower-left entry (the
    slope-infinity twist lifts sigma_1, whose image is [[1,0],[-1,1]]),
    and n follows from lk = 6n + m.  The sign of the conjugated matrix
    must be (-1)^n, which is asserted.
    """
    m_img = project_b3(b)
    q, p = parabolic_fixed_slope(m_img)
    # h = [[-p, q], [-x, -y]] with x q + y p = 1 sends the slope to infinity.
    x, y = _bezout(q, p)
    h = SL2Matrix(-p, q, -x, -y)
    n_mat = h * m_img * h.inverse()
    if (n_mat.a, n_mat.b, n_mat.d) not in ((1, 0, 1), (-1, 0, -1)):
        raise AssertionError(f"fixed-slope conjugation failed for {b}")
    sign = n_mat.a
    m = -n_mat.c * sign
    lk = linking_number(b)
    if (lk - m) % 6 != 0:
        raise AssertionError(f"reducible extraction failed for {b}")
    n = (lk - m) // 6
    if sign != (1 if n % 2 == 0 else -1):
        raise AssertionError(f"reducible sign check failed for {b}")
    return n, m, (q, p)


def _bezout(q: int, p: int) -> tuple[int, int]:
    """x, y with x*q + y*p = 1 for coprime q, p."""
    old_r, r = q, p
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r != 0:
        quo = old_r // r
        old_r, r = r, old_r - quo * r
        old_x, x = x, old_x - quo * x
        old_y, y = y, old_y - quo * y
    if old_r == -1:
        old_x, old_y = -old_x, -old_y
    elif old_r != 1:
        raise ValueError(f"{q} and {p} are not coprime")
    return old_x, old_y


def right_veering(b: BraidWord) -> Verdict:
    """Right-veering verdict of the mapping class of a 3-braid.

    Periodic: right-veering iff lk > 0 or the braid is the identity (the
    right-veering periodic lifts are a_i (sigma_1 sigma_2 sigma_1)^(2k)
    with k >= 0, all of positive linking number).  Reducible: n > 0, or
    n = 0 and m >= 0.  Anosov: rot >= 1/2 is sufficient; if instead the
    inverse satisfies it the verdict is No (the fractional twist
    coefficients of a pseudo-Anosov and its inverse negate, and both
    right-veering would need both >= 1/2); otherwise Unknown.
    """
    _require_b3(b)
    kind = classify(project_b3(b))
    lk = linking_number(b)
    if kind is Classification.PERIODIC:
        if lk > 0:
            return Verdict.yes({"type": "periodic", "lk": lk})
        if is_identity_braid3(b):
            return Verdict.yes({"type": "periodic", "identity": True})
        return Verdict.no({"type": "periodic", "lk": lk})
    if kind is Classification.REDUCIBLE:
        n, m, slope = _reducible_n_m(b)
        cert = {"type": "reducible", "n": n, "m": m, "fixed_slope": slope}
        if n > 0 or (n == 0 and m >= 0):
            return Verdict.yes(cert)
        return Verdict.no(cert)
    r = rot(b)
    if r >= Fraction(1, 2):
        return Verdict.yes({"type": "anosov", "rot": str(r)})
    r_inv = rot(invert(b))
    if r_inv >= Fraction(1, 2):
        return Verdict.no({"type": "anosov", "rot_of_inverse": str(r_inv)})
    return Verdict.unknown(
        f"anosov with rot={r} and rot(inverse)={r_inv}, both below 1/2; "
        "no criterion applies in this band"
    )


Witness = Sequence[tuple[Sequence[int], int]]


def _witness_product(strands: int, witness: Witness) -> BraidWord:
    out = BraidWord.identity(strands)
    for conj_letters, gen in witness:
        if gen <= 0 or gen >= strands:
            raise ValueError(f"witness generator {gen} out of range")
        factor = conjugate(BraidWord(strands, (gen,)), BraidWord(strands, tuple(conj_letters)))
        out = concat(out, factor)
    return out


def quasipositive_verdict(b: BraidWord, witness: Witness | None = None) -> Verdict:
    """Decide or bound quasipositivity.

    Yes needs a proof: a supplied factorization into conjugates of positive
    half-twists (verified exactly, B_3 only) or a literally positive word.
    No fires on the first obstruction in order: (i) lk < 0; (ii) lk = 0
    with b != 1; (iii) lk = 1 with PSL image not conjugate to a half-twist
    image; (iv) -Phi >= 10 rot; (v) the lk = 2, rot = 1/2 turn-word
    certificate.  (iii)-(v) need three strands; otherwise Unknown.
    """
    lk = linking_number(b)
    reduced = free_reduce(b)
    if witness is not None:
        if b.strands != 3:
            raise ValueError("witness verification needs B_3 (exact word problem)")
        prod = _witness_product(b.strands, witness)
        if not braid3_equal(prod, b):
            raise ValueError("witness product does not equal the braid")
        return Verdict.yes(
            {
                "witness": [[list(c), g] for c, g in witness],
                "verified_by": "braid3_equal",
            }
        )
    if all(letter > 0 for letter in reduced.letters):
        return Verdict.yes({"positive_word": list(reduced.letters)})
    if lk < 0:
        return Verdict.no({"obstruction": "lk_negative", "lk": lk})
    if lk == 0:
        if b.strands == 3:
            if is_identity_braid3(b):
                return Verdict.yes({"positive_word": []})
            return Verdict.no({"obstruction": "lk_zero_nontrivial", "lk": 0})
        from veerlab.burau import burau_matrix  # local import, avoids a cycle

        if burau_matrix(b) != _identity_matrix_for(b.strands):
            return Verdict.no(
                {"obstruction": "lk_zero_nontrivial", "lk": 0,
                 "certified_by": "burau_at_minus_one"}
            )
        return Verdict.unknown("lk = 0 and the homology image is trivial; "
                               "cannot decide b != 1 outside B_3")
    if b.strands != 3:
        return Verdict.unknown("positivity obstructions (iii)-(v) need B_3")
    g = PSL2Element(project_b3(b))
    if lk == 1 and not psl_conjugate(g, PSL2Element(SIGMA1_BAR)):
        return Verdict.no({"obstruction": "lk_one_not_halftwist_class", "lk": 1})
    r = rot(b)
    ph = rademacher(g)
    if -ph >= 10 * r:
        return Verdict.no(
            {"obstruction": "rademacher_vs_rotation", "phi": ph, "rot": str(r),
             "inequality": f"{-ph} >= 10 * {r}"}
        )
    if lk == 2 and r == Fraction(1, 2):
        cert = farey.lk2_nonqp_certificate(farey.turn_word(g))
        if cert.value == "yes":
            return Verdict.no(
                {"obstruction": "lk2_word_equations", **(cert.certificate or {})}
            )
    return Verdict.unknown("no obstruction fired and no witness supplied")


def _identity_matrix_for(strands: int) -> tuple[tuple[int, ...], ...]:
    n = strands if strands % 2 == 1 else strands + 1
    dim = n - 1
    return tuple(
        tuple(1 if i == j else 0 for j in range(dim)) for i in range(dim)
    )


def dehn_twist_delta(
    bprime: BraidWord, twist: BraidWord
) -> tuple[int, Fraction, int]:
    """(delta lk, delta rot, delta Phi) from multiplying by a positive twist."""
    _require_b3(bprime)
    _require_b3(twist)
    after = concat(twist, bprime)
    return (
        linking_number(after) - linking_number(bprime),
        rot(after) - rot(bprime),
        phi(after) - phi(bprime),
    )


def psi_frontier(m: int) -> int:
    """Least power Psi(m) with (sigma_1 sigma_2 sigma_1)^Psi sigma_1^-m
    quasipositive: 2k+1 for m = 5k, 5k+1, 5k+2 and 2k+2 for m = 5k+3, 5k+4."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    k, r = divmod(m, 5)
    return 2 * k + 1 if r <= 2 else 2 * k + 2


def family_psi_check(m: int) -> dict:
    """Check the quasipositivity frontier of (sigma_1 sigma_2 sigma_1)^j sigma_1^-m.

    For every j below Psi(m) the Rademacher obstruction -Phi >= 10 rot must
    fire (the identity j = m = 0 excepted), and at j = Psi(m) it must not,
    so the obstruction is tight on this family.
    """
    psi = psi_frontier(m)
    rows = []
    ok = True
    for j in range(psi + 1):
        b = concat(power(HALF_TWIST_CUBE, j), power(BraidWord(3, (-1,)), m))
        identity = is_identity_braid3(b)
        fires = (not identity) and -phi(b) >= 10 * rot(b)
        expected = (not (m == 0 and j == 0)) and j < psi
        ok = ok and fires == expected
        rows.append(
            {"j": j, "phi": phi(b), "rot": str(rot(b)), "fires": fires,
             "expected": expected}
        )
    return {"m": m, "psi": psi, "rows": rows, "ok": ok}


def check_right_veering_certificate(b: BraidWord, verdict: Verdict) -> bool:
    """Independently re-verify a right_veering certificate."""
    cert = verdict.certificate
    if cert is None:
        return verdict.value == "unknown"
    kind = cert["type"]
    if kind == "periodic":
        if classify(project_b3(b)) is not Classification.PERIODIC:
            return False
        if cert.get("identity"):
            return is_identity_braid3(b)
        return cert["lk"] == linking_number(b) and (
            (verdict.value == "yes") == (cert["lk"] > 0)
        )
    if kind == "reducible":
        n, m = cert["n"], cert["m"]
        q, p = cert["fixed_slope"]
        # Rebuild the claimed braid form and compare images and lk.
        g = gcd(abs(q), abs(p))
        if g != 1:
            return False
        twist = _twist_about_slope(q, p)
        rebuilt = concat(power(HALF_TWIST_CUBE, 2 * n), power(twist, m))
        if not braid3_equal(rebuilt, b):
            return False
        return (verdict.value == "yes") == (n > 0 or (n == 0 and m >= 0))
    if kind == "anosov":
        if verdict.value == "yes":
            return rot(b) >= Fraction(1, 2)
        return rot(invert(b)) >= Fraction(1, 2)
    return False


def _twist_about_slope(q: int, p: int) -> BraidWord:
    """A braid lifting the positive Dehn twist about the slope p/q curve.

    Conjugates sigma_1 (the slope-infinity twist) by a braid whose image
    sends infinity to p/q: any SL(2,Z) matrix with second column (q, p),
    spelled as a braid through its normal form.
    """
    a, c = _bezout(p, -q)
    h = SL2Matrix(a, q, c, p)
    return conjugate(BraidWord(3, (1,)), _braid_word_for_psl(PSL2Element(h)))


def _braid_word_for_psl(g: PSL2Element) -> BraidWord:
    """Some 3-braid whose PSL(2,Z) image is g (A -> 121, B -> -1 -2)."""
    letters: list[int] = []
    for i, e in enumerate(normal_form(g).exponents):
        if i > 0:
            letters += [1, 2, 1]
        if e == 1:
            letters += [-1, -2]
        elif e == -1:
            letters += [2, 1]
    return BraidWord(3, tuple(letters))


def check_quasipositive_certificate(b: BraidWord, verdict: Verdict) -> bool:
    """Independently re-verify a quasipositive_verdict certificate."""
    cert = verdict.certificate
    if cert is None:
        return verdict.value == "unknown"
    if verdict.value == "yes":
        if "witness" in cert:
            witness = [(tuple(c), g) for c, g in cert["witness"]]
            return braid3_equal(_witness_product(b.strands, witness), b)
        letters = cert["positive_word"]
        if any(l <= 0 for l in letters):
            return False
        if b.strands == 3:
            return braid3_equal(BraidWord(3, tuple(letters)), b)
        return list(free_reduce(b).letters) == letters
    obstruction = cert["obstruction"]
    lk = linking_number(b)
    if obstruction == "lk_negative":
        return lk < 0
    if obstruction == "lk_zero_nontrivial":
        if lk != 0:
            return False
        if b.strands == 3:
            return not is_identity_braid3(b)
        return cert.get("certified_by") == "burau_at_minus_one"
    if obstruction == "lk_one_not_halftwist_class":
        return lk == 1 and not psl_conjugate(
            PSL2Element(project_b3(b)), PSL2Element(SIGMA1_BAR)
        )
    if obstruction == "rademacher_vs_rotation":
        return -phi(b) >= 10 * rot(b) and not is_identity_braid3(b)
    if obstruction == "lk2_word_equations":
        if lk != 2 or rot(b) != Fraction(1, 2):
            return False
        w = farey.turn_word(PSL2Element(project_b3(b)))
        inner = farey.lk2_nonqp_certificate(w)
        return inner.value == "yes" and w == cert["W"]
    return False
