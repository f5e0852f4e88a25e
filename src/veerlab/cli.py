"""Command-line front end.

Every subcommand prints one JSON object on stdout.  Rationals are
serialized as "p/q" strings so no floating point ever appears.  Exit codes:
0 success, 1 input error (every integer read, in a word, a matrix, an
option or VEERLAB_SEED, must be a sign and ASCII digits), 2 mathematical
invariant violation (an identity check failed or a sweep found failures);
the latter is never swallowed.  3 a termination bound was hit
(`verdict.BoundExceeded`): the chart engine's, or the strand bounds
`burau.MAX_STRANDS` and `burau.MAX_DENSE_STRANDS` (the message names it).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from functools import lru_cache

from veerlab import burau, farey, linkinv, sweeps, symplectic, torus
from veerlab.braid import _INT_RE, BraidWord, _cut, _int_token, linking_number, parse_braid
from veerlab.modular import (
    Classification,
    PSL2Element,
    classify,
    parse_matrix,
    project_b3,
    rademacher,
)
from veerlab.verdict import BoundExceeded

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INVARIANT = 2
EXIT_BOUND = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Argparse variant whose usage errors exit 1, not argparse's 2
    (exit 2 is reserved for mathematical invariant violations)."""

    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


def _frac_str(x: Fraction) -> str:
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)


def _emit(payload: dict) -> None:
    json.dump(payload, sys.stdout, sort_keys=True)
    sys.stdout.write("\n")


def _parse_word(args: argparse.Namespace) -> BraidWord:
    return parse_braid(args.word, args.strands)


def cmd_invariants(args: argparse.Namespace) -> int:
    b = _parse_word(args)
    report: dict = {
        "word": str(b),
        "strands": b.strands,
        "lk": linking_number(b),
    }
    checks: dict[str, bool] = {}
    if b.strands == 3:
        m = project_b3(b)
        g = PSL2Element(m)
        report["rot"] = _frac_str(torus.rot(b))
        report["phi"] = torus.phi(b)
        report["classification"] = classify(m).value
        report["right_veering"] = torus.right_veering(b).as_json()
        checks["theorem_lk"] = torus.verify_theorem_lk(b)
        checks["rademacher_two_road"] = rademacher(g) == farey.rademacher_turns(g)
    report["quasipositive"] = torus.quasipositive_verdict(b).as_json()
    s_seifert = linkinv.seifert_signature(b)
    s_meyer = linkinv.meyer_signature(b)
    mu = linkinv.maslov_of_word(b)
    report["signature"] = {"seifert": s_seifert, "meyer": s_meyer,
                           "agree": s_seifert == s_meyer}
    report["maslov"] = {"mu": _frac_str(mu), "two_mu": int(2 * mu)}
    checks["dual_engine_signature"] = s_seifert == s_meyer
    checks["sign_maslov"] = Fraction(s_seifert) == -linking_number(b) + 2 * mu
    report["identity_checks"] = checks
    _emit(report)
    return EXIT_OK if all(checks.values()) else EXIT_INVARIANT


def cmd_signature(args: argparse.Namespace) -> int:
    b = _parse_word(args)
    s_seifert = linkinv.seifert_signature(b)
    s_meyer = linkinv.meyer_signature(b)
    _emit({"seifert": s_seifert, "meyer": s_meyer, "agree": s_seifert == s_meyer})
    return EXIT_OK if s_seifert == s_meyer else EXIT_INVARIANT


def cmd_maslov(args: argparse.Namespace) -> int:
    b = _parse_word(args)
    _emit({"mu": _frac_str(linkinv.maslov_of_word(b))})
    return EXIT_OK


def cmd_meyer(args: argparse.Namespace) -> int:
    a = parse_braid(args.word, args.strands)
    b = parse_braid(args.word2, args.strands)
    ao, bo = burau._odd_word(a), burau._odd_word(b)
    space = burau.symplectic_space(ao.strands)
    value = symplectic.meyer_closed_form(space, burau.burau_matrix(ao), burau.burau_matrix(bo))
    _emit({"meyer": value})
    return EXIT_OK


def cmd_farey_path(args: argparse.Namespace) -> int:
    if (args.word is None) == (args.matrix is None):
        raise _UsageError("farey-path: give exactly one of a braid word or --matrix")
    if args.matrix is not None:
        g = PSL2Element(parse_matrix(args.matrix))
    else:
        g = PSL2Element(project_b3(parse_braid(args.word, args.strands)))
    turns = farey.turn_word(g)
    payload: dict = {
        "turns": turns,
        "rademacher_turns": turns.count("R") - turns.count("L"),
        "rademacher_normal_form": rademacher(g),
    }
    if args.edges:
        payload["edges"] = [
            [str(e.a), str(e.b)] for e in farey.geodesic_edges(g)
        ]
    _emit(payload)
    two_roads = payload["rademacher_turns"] == payload["rademacher_normal_form"]
    return EXIT_OK if two_roads else EXIT_INVARIANT


def cmd_qp_cert(args: argparse.Namespace) -> int:
    b = _parse_word(args)
    verdict = torus.quasipositive_verdict(b)
    payload: dict = {
        "word": str(b),
        "lk": linking_number(b),
        "verdict": verdict.as_json(),
    }
    if b.strands == 3:
        payload["rot"] = _frac_str(torus.rot(b))
        payload["phi"] = torus.phi(b)
        m = project_b3(b)
        if classify(m) is not Classification.PERIODIC:
            payload["turn_word"] = farey.turn_word(PSL2Element(m))
    _emit(payload)
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    seed = args.seed
    env_seed = os.environ.get("VEERLAB_SEED")
    if env_seed is not None:
        try:
            seed = _int_token(env_seed)
        except ValueError:
            problem = (f"is out of range ({len(env_seed)} characters)"
                       if _INT_RE.fullmatch(env_seed) else "must be an integer")
            raise _UsageError(f"VEERLAB_SEED {problem}, got {_cut(env_seed)!r}") from None
    result = sweeps.run_suite(args.suite, args.count, seed)
    _emit(result)
    return EXIT_OK if result["failures"] == 0 else EXIT_INVARIANT


def _int_arg(text: str) -> int:
    """Integer options take the braid word's tokens: a sign and ASCII digits."""
    try:
        return _int_token(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="veerlab",
        description="Braid and punctured-torus invariants with dual-engine checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_word_command(name, help_text, word2=False):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("-n", "--strands", type=_int_arg, default=3)
        p.add_argument("word", help="whitespace-separated signed generator indices")
        if word2:
            p.add_argument("word2", help="second braid word")
        p.add_argument("--json", action="store_true", help="JSON output (default)")
        return p

    add_word_command("invariants", "full invariant report")
    add_word_command("signature", "closure signature, both engines")
    add_word_command("maslov", "Maslov index of the lifted graph path")
    add_word_command("meyer", "Meyer cocycle of two words", word2=True)

    p = sub.add_parser("farey-path", help="turn word of the Farey geodesic")
    p.add_argument("-n", "--strands", type=_int_arg, default=3)
    p.add_argument("word", nargs="?", help="braid word (B_3); \"\" is the identity")
    p.add_argument("--matrix", help="SL(2,Z) matrix as 'a b; c d'")
    p.add_argument("--edges", action="store_true", help="emit the crossed edges")
    p.add_argument("--json", action="store_true")

    add_word_command("qp-cert", "quasipositivity verdict and certificate")

    p = sub.add_parser("sweep", help="run a randomized property suite")
    p.add_argument("--suite", required=True, choices=sorted(sweeps.SUITES))
    p.add_argument("--count", type=_int_arg, default=1000)
    p.add_argument("--seed", type=_int_arg, default=0)
    p.add_argument("--json", action="store_true")
    return parser


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
        # Looked up per call: the parser is built once, but the handler is
        # whatever cmd_<command> the module holds now.
        return globals()["cmd_" + args.command.replace("-", "_")](args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except AssertionError as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except BoundExceeded as exc:
        print(f"bound exceeded: {exc}", file=sys.stderr)
        return EXIT_BOUND


if __name__ == "__main__":
    sys.exit(main())
