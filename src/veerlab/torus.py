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

from veerlab import _core, burau, farey
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
    rademacher_class,
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


def _reducible_n_m(image: SL2Matrix, lk: int) -> tuple[int, int, tuple[int, int]]:
    """Write a reducible b as (sigma_1 sigma_2 sigma_1)^(2n) R_gamma^m.

    m is the class Rademacher function of the image and n = (lk - m) / 6
    (see ``right_veering``); gamma is the parabolic fixed slope.
    """
    m = rademacher_class(PSL2Element(image))
    n, rest = divmod(lk - m, 6)
    if rest != 0:
        raise AssertionError(f"reducible extraction failed for image {image} with lk {lk}")
    return n, m, parabolic_fixed_slope(image)


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

    Every number is read from lk, rot and the PSL(2,Z) class word, by two
    lemmas; the certificate checkers re-derive them by other roads.

    * Reducible: m = rademacher_class(image) and n = (lk - m) / 6.  The
      square (sigma_1 sigma_2 sigma_1)^2 maps to -I, so the image of
      (sigma_1 sigma_2 sigma_1)^(2n) R_gamma^m is conjugate to
      sigma_1-bar^m in PSL(2,Z).  sigma_1-bar = AB, and the cyclically
      reduced syllable word of (AB)^m is (AB)^m, or (B^-1 A)^|m| when
      m < 0, so its B-exponent sum is m; lk(R_gamma) = 1 gives lk = 6n + m.
    * Anosov: rot(b^-1) = -rot(b).  rot = (lk - Phi) / 12 by construction
      and lk is a homomorphism.  The normal form of g^-1 is the reversed
      word with its exponents negated (A^-1 = A), which is again a normal
      form, so Phi(g^-1) = -Phi(g).
    """
    _require_b3(b)
    image = project_b3(b)
    kind = classify(image)
    lk = linking_number(b)
    if kind is Classification.PERIODIC:
        if lk > 0:
            return Verdict.yes({"type": "periodic", "lk": lk})
        if is_identity_braid3(b):
            return Verdict.yes({"type": "periodic", "identity": True})
        return Verdict.no({"type": "periodic", "lk": lk})
    if kind is Classification.REDUCIBLE:
        n, m, slope = _reducible_n_m(image, lk)
        decide = Verdict.yes if n > 0 or (n == 0 and m >= 0) else Verdict.no
        return decide({"type": "reducible", "n": n, "m": m, "fixed_slope": slope})
    r = rot(b)
    if r >= Fraction(1, 2):
        return Verdict.yes({"type": "anosov", "rot": str(r)})
    if -r >= Fraction(1, 2):
        return Verdict.no({"type": "anosov", "rot_of_inverse": str(-r)})
    return Verdict.unknown(
        f"anosov with rot={r} and rot(inverse)={-r}, both below 1/2; "
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
        if not braid3_equal(_witness_product(b.strands, witness), b):
            raise ValueError("witness product does not equal the braid")
        return Verdict.yes({"witness": [[list(c), g] for c, g in witness],
                            "verified_by": "braid3_equal"})
    if all(letter > 0 for letter in reduced.letters):
        return Verdict.yes({"positive_word": list(reduced.letters)})
    if lk < 0:
        return Verdict.no({"obstruction": "lk_negative", "lk": lk})
    if lk == 0:
        if b.strands == 3:
            if is_identity_braid3(b):
                return Verdict.yes({"positive_word": []})
            return Verdict.no({"obstruction": "lk_zero_nontrivial", "lk": 0})
        if not _burau_trivial(b):
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


def _burau_trivial(b: BraidWord) -> bool:
    """Whether the Burau image of b at -1 is the identity matrix."""
    rows = burau.burau_matrix(b)
    return all(x == (i == j) for i, row in enumerate(rows) for j, x in enumerate(row))


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


def _states(cert: dict, key: str, value) -> bool:
    """Whether the certificate states exactly this value, of its type, at key."""
    stated = cert.get(key)
    return type(stated) is type(value) and stated == value


def _is_word(letters, strands: int, positive: bool = False) -> bool:
    """Whether a certificate field is a list of (positive) letters of B_strands."""
    return isinstance(letters, (list, tuple)) and all(
        type(x) is int and 0 < (x if positive else abs(x)) < strands for x in letters
    )


def check_right_veering_certificate(b: BraidWord, verdict: Verdict) -> bool:
    """Independently re-verify a right_veering certificate.

    Each stated number is recomputed and compared.  A certificate made
    elsewhere that is not a dict, lacks a field or holds one of the wrong
    type, names another kind than the braid's, or comes with a braid
    outside B_3, is False, not an error.

    The roads differ from the verdict's: a reducible certificate is checked
    by rebuilding (sigma_1 sigma_2 sigma_1)^(2n) R_gamma^m from the stated
    slope (a Bezout conjugator spelled as a braid) and comparing braids,
    and an Anosov No by the rotation number of the inverted word.
    """
    cert = verdict.certificate
    if cert is None:
        return verdict.value == "unknown"
    if not isinstance(cert, dict) or verdict.value == "unknown" or b.strands != 3:
        return False
    kind = cert.get("type")
    if kind != classify(project_b3(b)).value:
        return False
    yes = verdict.value == "yes"
    if kind == "periodic":
        if cert.get("identity") is True:
            return yes and is_identity_braid3(b)
        lk = linking_number(b)
        return _states(cert, "lk", lk) and yes == (lk > 0) and (yes or not is_identity_braid3(b))
    if kind == "reducible":
        n, m, slope = cert.get("n"), cert.get("m"), cert.get("fixed_slope")
        if not (isinstance(slope, (list, tuple)) and len(slope) == 2
                and all(type(x) is int for x in (n, m, *slope))):
            return False
        q, p = slope
        # A genuine m has |m| <= 4 len(b), so a larger one is refused before
        # the rebuilt word is built: km is rademacher_class of the k-th
        # power, within 3 of Phi, which has defect 3 and is +-1 on letters.
        if (abs(m) > 4 * len(b) or 6 * n + m != linking_number(b)
                or gcd(q, p) != 1 or (q, p) < (0, 0)):
            return False
        # Rebuild the claimed braid form and compare images and lk.
        rebuilt = concat(power(HALF_TWIST_CUBE, 2 * n), power(_twist_about_slope(q, p), m))
        return braid3_equal(rebuilt, b) and yes == (n > 0 or (n == 0 and m >= 0))
    key, r = ("rot", rot(b)) if yes else ("rot_of_inverse", rot(invert(b)))
    return _states(cert, key, str(r)) and r >= Fraction(1, 2)


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
    for kind, e in normal_form(g).syllables():
        letters += (1, 2, 1) if kind == 0 else (-1, -2) if e == 1 else (2, 1)
    return BraidWord(3, tuple(letters))


def check_quasipositive_certificate(b: BraidWord, verdict: Verdict) -> bool:
    """Independently re-verify a quasipositive_verdict certificate.

    Each stated number is recomputed and compared, and so is the
    inequality text.  A certificate made elsewhere that is not a dict,
    lacks a field or holds one of the wrong type, names a letter or
    generator outside the braid group, or needs B_3 for a braid in another
    B_n, is False, not an error.
    """
    cert = verdict.certificate
    if cert is None:
        return verdict.value == "unknown"
    if not isinstance(cert, dict) or verdict.value == "unknown":
        return False
    three = b.strands == 3
    if verdict.value == "yes":
        if "witness" in cert:
            witness = cert["witness"]
            if not (three and isinstance(witness, list) and all(
                isinstance(pair, list) and len(pair) == 2 and _is_word(pair[0], 3)
                and _is_word(pair[1:], 3, positive=True) for pair in witness
            )):
                return False
            return braid3_equal(_witness_product(3, witness), b)
        letters = cert.get("positive_word")
        if not _is_word(letters, b.strands, positive=True):
            return False
        if three:
            return braid3_equal(BraidWord(3, tuple(letters)), b)
        return list(free_reduce(b).letters) == list(letters)
    obstruction = cert.get("obstruction")
    lk = linking_number(b)
    if obstruction == "lk_negative":
        return _states(cert, "lk", lk) and lk < 0
    if obstruction == "lk_zero_nontrivial":
        if not (_states(cert, "lk", 0) and lk == 0):
            return False
        if three:
            return not is_identity_braid3(b)
        return _states(cert, "certified_by", "burau_at_minus_one") and not _burau_trivial(b)
    if not three:
        return False
    if obstruction == "lk_one_not_halftwist_class":
        return _states(cert, "lk", 1) and lk == 1 and not psl_conjugate(
            PSL2Element(project_b3(b)), PSL2Element(SIGMA1_BAR)
        )
    if obstruction == "rademacher_vs_rotation":
        ph, r = phi(b), rot(b)
        return (_states(cert, "phi", ph) and _states(cert, "rot", str(r))
                and _states(cert, "inequality", f"{-ph} >= 10 * {r}")
                and -ph >= 10 * r and not is_identity_braid3(b))
    if obstruction == "lk2_word_equations":
        if lk != 2 or rot(b) != Fraction(1, 2):
            return False
        inner = farey.lk2_nonqp_certificate(farey.turn_word(PSL2Element(project_b3(b))))
        return inner.value == "yes" and cert == {"obstruction": obstruction, **inner.certificate}
    return False
