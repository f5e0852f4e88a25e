import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import veerlab
from veerlab import cli, sweeps

W25 = "1 2 1 1 2 1 -1 -1 -1 -1 2 -1 2 -1"


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    payload = json.loads(captured.out) if captured.out.strip() else None
    return code, payload, captured.err


def test_invariants_example(capsys):
    code, report, _ = run(capsys, ["invariants", "-n", "3", W25])
    assert code == 0
    assert report["lk"] == 2
    assert report["rot"] == "1/2"
    assert report["phi"] == -4
    assert report["quasipositive"]["value"] == "no"
    assert report["right_veering"]["value"] == "yes"
    assert report["signature"]["agree"]
    assert all(report["identity_checks"].values())


def test_invariants_identity(capsys):
    code, report, _ = run(capsys, ["invariants", "-n", "3", ""])
    assert code == 0
    assert report["lk"] == 0 and report["phi"] == 0 and report["rot"] == "0"
    assert report["signature"] == {"seifert": 0, "meyer": 0, "agree": True}


def test_invariants_parse_error(capsys):
    code, payload, err = run(capsys, ["invariants", "-n", "3", "0"])
    assert code == 1 and payload is None
    assert "0" in err


def test_strand_count_is_checked_before_the_tokens(capsys):
    for strands in ("0", "-3", "1"):
        code, payload, err = run(capsys, ["invariants", "-n", strands, "1"])
        assert code == 1 and payload is None
        assert f"strands must be >= 2, got {strands}" in err
        assert "token" not in err
    code, payload, err = run(capsys, ["farey-path", "-n", "0", ""])
    assert code == 1 and "strands must be >= 2, got 0" in err


def test_signature_command(capsys):
    code, report, _ = run(capsys, ["signature", "-n", "3", "1 1 1"])
    assert code == 0
    assert report == {"seifert": -2, "meyer": -2, "agree": True}


def test_maslov_command(capsys):
    code, report, _ = run(capsys, ["maslov", "-n", "3", "1"])
    assert code == 0
    assert report == {"mu": "1/2"}


def test_meyer_command(capsys):
    code, report, _ = run(capsys, ["meyer", "-n", "3", "1", "1"])
    assert code == 0
    assert report == {"meyer": 1}


def test_farey_path_command(capsys):
    code, report, _ = run(capsys, ["farey-path", "-n", "3", W25, "--edges"])
    assert code == 0
    assert report["turns"] == "LLLLRLRL"
    assert report["rademacher_turns"] == -4
    assert report["edges"][0] == ["0", "inf"]
    assert len(report["edges"]) == len(report["turns"]) + 1


def test_farey_path_matrix_input(capsys):
    code, report, _ = run(capsys, ["farey-path", "--matrix", "1 -1; 1 0"])
    assert code == 0
    assert report["turns"] == "R"


def test_farey_path_refuses_an_overlong_walk_at_once(capsys):
    start = time.perf_counter()
    code, payload, err = run(capsys, ["farey-path", "--matrix", "1 0; 1000000000000 1"])
    assert time.perf_counter() - start < 1.0
    assert code == 1 and payload is None
    assert "normal form longer than 2e6 syllables" in err


def test_qp_cert_command(capsys):
    code, report, _ = run(capsys, ["qp-cert", "-n", "3", W25])
    assert code == 0
    assert report["verdict"]["value"] == "no"
    assert report["verdict"]["certificate"]["W"] == "LLLLRLRL"


def test_sweep_command_deterministic(capsys):
    code, first, _ = run(capsys, ["sweep", "--suite", "theorem-lk", "--count", "200", "--seed", "7"])
    assert code == 0 and first["failures"] == 0
    code, second, _ = run(capsys, ["sweep", "--suite", "theorem-lk", "--count", "200", "--seed", "7"])
    assert second == first


def test_usage_error_exits_one(capsys):
    code, payload, err = run(capsys, ["sweep", "--suite", "nonsense"])
    assert code == 1 and payload is None
    assert "invalid choice" in err


def test_readme_lists_every_sweep_suite():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    paragraph = readme.split("Available sweep suites:", 1)[1].split("\n\n", 1)[0]
    assert re.findall(r"`([a-z-]+)`", paragraph) == sorted(sweeps.SUITES)


def test_sweep_env_seed(capsys, monkeypatch):
    monkeypatch.setenv("VEERLAB_SEED", "12345")
    code, report, _ = run(capsys, ["sweep", "--suite", "rademacher", "--count", "50", "--seed", "7"])
    assert code == 0
    assert report["seed"] == 12345


def test_sweep_non_integer_env_seed_exits_one(capsys, monkeypatch):
    monkeypatch.setenv("VEERLAB_SEED", "abc")
    code, payload, err = run(capsys, ["sweep", "--suite", "rademacher", "--count", "5"])
    assert code == 1 and payload is None
    assert "VEERLAB_SEED must be an integer, got 'abc'" in err
    assert "invalid literal" not in err


def test_sweep_overlong_env_seed_is_cut_and_out_of_range(capsys, monkeypatch):
    monkeypatch.setenv("VEERLAB_SEED", "7" * 5000)
    code, payload, err = run(capsys, ["sweep", "--suite", "rademacher", "--count", "5"])
    assert code == 1 and payload is None
    assert "VEERLAB_SEED" in err and "out of range (5000 characters)" in err
    assert "'" + "7" * 20 + "...'" in err and len(err) < 200


def test_every_recorded_report_reproduces(capsys):
    # All 86 reports recorded in perfbench/answers.json (seeds 1 and 20061,
    # B_3-B_7, lengths 20 and 40), keyed "B<n>L<length>:<word>".
    path = Path(__file__).resolve().parents[1] / "perfbench" / "answers.json"
    recorded = json.loads(path.read_text())["invariants"]
    assert sorted(recorded) == ["1", "20061"]
    keys = [(seed, key) for seed in recorded for key in recorded[seed]]
    assert len(keys) == 86
    for seed, key in keys:
        cls, word = key.split(":", 1)
        assert cli.main(["invariants", "-n", cls[1:cls.index("L")], word]) == 0, key
        want = json.dumps(recorded[seed][key], sort_keys=True) + "\n"
        assert capsys.readouterr().out == want, (seed, key)


def test_sweep_negative_count_exits_one(capsys):
    code, payload, err = run(capsys, ["sweep", "--suite", "theorem-lk", "--count", "-3"])
    assert code == 1 and payload is None
    assert "count" in err and "-3" in err
    code, report, _ = run(capsys, ["sweep", "--suite", "theorem-lk", "--count", "0"])
    assert code == 0 and report["count"] == 0


def test_farey_path_needs_word_or_matrix(capsys):
    code, payload, err = run(capsys, ["farey-path"])
    assert code == 1 and payload is None
    assert "--matrix" in err
    code, payload, err = run(capsys, ["farey-path", "1", "--matrix", "1 -1; 1 0"])
    assert code == 1 and payload is None
    # The empty word, given explicitly, is the identity.
    code, report, _ = run(capsys, ["farey-path", ""])
    assert code == 0 and report["turns"] == ""


def test_internal_invariant_exits_two(capsys, monkeypatch):
    def broken(args):
        raise AssertionError("generator image is not symplectic")

    monkeypatch.setattr(cli, "cmd_maslov", broken)
    code, payload, err = run(capsys, ["maslov", "-n", "3", "1"])
    assert code == 2 and payload is None
    assert "internal invariant violated" in err


def test_bound_exceeded_exits_three(capsys, monkeypatch):
    from veerlab import symplectic

    # The sign-maslov sweep runs the chart engine; no subdivision depth passes.
    monkeypatch.setattr(symplectic, "_MAX_DEPTH", -1)
    code, payload, err = run(capsys, ["sweep", "--suite", "sign-maslov", "--count", "2"])
    assert code == 3 and payload is None
    assert "bound exceeded" in err and "chart subdivision depth" in err


def test_strand_bound_exits_three_at_once(capsys):
    from veerlab import burau

    start = time.perf_counter()
    code, payload, err = run(capsys, ["invariants", "-n", str(burau.MAX_STRANDS + 2), "1"])
    assert time.perf_counter() - start < 1.0
    assert code == 3 and payload is None
    assert f"strand bound MAX_STRANDS = {burau.MAX_STRANDS} exceeded" in err


def test_dense_strand_bound_exits_three_at_once(capsys):
    from veerlab import burau

    n = burau.MAX_DENSE_STRANDS + 2
    start = time.perf_counter()
    code, payload, err = run(capsys, ["meyer", "-n", str(n), "1", "1"])
    assert time.perf_counter() - start < 1.0
    assert code == 3 and payload is None
    assert f"MAX_DENSE_STRANDS = {burau.MAX_DENSE_STRANDS} exceeded ({n} strands)" in err


def test_invariants_on_a_wide_braid(capsys):
    code, report, _ = run(capsys, ["invariants", "-n", "101", "1 100 2 -1 99 100 -2 1 -99 100 1"])
    assert code == 0 and report["strands"] == 101
    assert report["identity_checks"] and all(report["identity_checks"].values())


def test_sign_maslov_sweep_reports_a_chart_mismatch(capsys, monkeypatch):
    from veerlab import linkinv

    monkeypatch.setattr(linkinv, "maslov_by_charts", lambda w: linkinv.maslov_of_word(w) + 1)
    code, report, _ = run(capsys, ["sweep", "--suite", "sign-maslov", "--count", "3"])
    assert code == 2 and report["failures"] == 3
    example = report["failed_examples"][0]
    assert Fraction(example["mu_charts"]) == Fraction(example["mu"]) + 1


def test_invariants_stays_in_the_2n_space(capsys, monkeypatch):
    # The default engines run on linalg and burau alone: every function
    # defined in symplectic or poly raises, in every module that binds it,
    # and so do the doubled-space entries of burau.
    import inspect
    import sys

    from veerlab import burau

    commands = [["invariants", "-n", "3", W25],
                ["invariants", "-n", "5", "1 -2 3 4 -3 2 2 1 -4"],
                ["invariants", "-n", "7", "1 -2 3 -4 5 6 -5 4 2 -1 3 -6 1 1"],
                ["signature", "-n", "7", "1 2 -3 4 5 -6 2 3"],
                ["maslov", "-n", "6", "1 -2 3 4 5 -1"]]
    expected = [run(capsys, argv) for argv in commands]

    def forbidden(*args, **kwargs):
        raise AssertionError("doubled-space engine entered")

    def defined_there(value):
        return inspect.isfunction(value) and value.__module__ in ("veerlab.symplectic",
                                                                   "veerlab.poly")

    patched = 0
    for name, module in list(sys.modules.items()):
        if name == "veerlab" or name.startswith("veerlab."):
            for owner in [module] + [v for v in vars(module).values() if inspect.isclass(v)]:
                for attr, value in list(vars(owner).items()):
                    if defined_there(value):
                        monkeypatch.setattr(owner, attr, forbidden)
                        patched += 1
    for name in ("graph_path_of", "lift"):
        monkeypatch.setattr(burau, name, forbidden)
    assert patched > 50
    for argv, (code, report, _) in zip(commands, expected):
        assert code == 0 and run(capsys, argv) == (0, report, ""), argv
    assert expected[0][1]["maslov"] == {"mu": "1", "two_mu": 2}
    assert all(all(report["identity_checks"].values()) for _, report, _ in expected[:3])


def test_meyer_cocycle_sweep_reports_a_rank_one_mismatch(capsys, monkeypatch):
    from veerlab import linkinv

    real = linkinv.meyer_letter
    monkeypatch.setattr(linkinv, "meyer_letter", lambda *args: real(*args) + 2)
    code, report, _ = run(capsys, ["sweep", "--suite", "meyer-cocycle", "--count", "4"])
    assert code == 2 and report["failures"] > 0
    example = report["failed_examples"][0]
    assert example["letter"] != 0
    assert example["rank_one"] == example["closed_form"] + 2


def test_parser_is_built_once(capsys):
    assert run(capsys, ["maslov", "-n", "3", "1"])[0] == 0
    parser = cli._parser()
    assert run(capsys, ["signature", "-n", "3", "1 1"])[0] == 0
    assert cli._parser() is parser


# lk = 2, rot = 1/2, and no word-equation family solves its 40-letter turn
# word, so the verdict is QP No from the exhausted families.
W46 = ("1 2 1 1 2 1 2 2 -1 2 -1 -1 -1 -1 2 2 2 2 2 -1 2 -1 2 -1 -1 -1 -1 2 -1 "
       "-1 -1 -1 -1 2 2 2 -1 -1 2 2 -1 -1 2 -1 -1 2")
W46_TURNS = "RRLRLLLLRRRRRLRLRLLLLRLLLLLRRRLLRRLLRLLR"
W46_QP = {
    "certificate": {
        "W": W46_TURNS,
        "families_checked": [1, 2, 3, 4],
        "forced_lengths": {"family1_P": 18, "family2_P1_plus_P2": 18, "family34_P2": 18},
        "obstruction": "lk2_word_equations",
    },
    "value": "no",
}


def test_lk2_frontier_on_a_long_turn_word_is_fast(capsys):
    expected = {
        "qp-cert": {"lk": 2, "phi": -4, "rot": "1/2", "turn_word": W46_TURNS,
                    "verdict": W46_QP, "word": W46},
        "invariants": {
            "classification": "anosov",
            "identity_checks": {"dual_engine_signature": True, "rademacher_two_road": True,
                                "sign_maslov": True, "theorem_lk": True},
            "lk": 2, "maslov": {"mu": "1", "two_mu": 2}, "phi": -4,
            "quasipositive": W46_QP,
            "right_veering": {"certificate": {"rot": "1/2", "type": "anosov"}, "value": "yes"},
            "rot": "1/2", "signature": {"agree": True, "meyer": 0, "seifert": 0},
            "strands": 3, "word": W46,
        },
    }
    for command, payload in expected.items():
        start = time.perf_counter()
        code = cli.main([command, "-n", "3", W46])
        assert time.perf_counter() - start < 1.0
        assert code == 0
        assert capsys.readouterr().out == json.dumps(payload, sort_keys=True) + "\n"


def _contract_table():
    from veerlab import burau

    wide, dense = str(burau.MAX_STRANDS + 1), str(burau.MAX_DENSE_STRANDS + 1)
    bad_tokens = [
        ["invariants", "-n", "4", "٣"], ["signature", "-n", "4", "1_0"],
        ["invariants", "-n", "3", "x"], ["invariants", "-n", "3", "1.0"],
        ["invariants", "-n", "3", "1,2"], ["maslov", "-n", "3", "1 - 2"],
        ["invariants", "-n", "3", "+-1"], ["invariants", "-n", "3", "1e3"],
        ["qp-cert", "-n", "3", "１"], ["farey-path", "--matrix", "1 ٠; 0 1"],
        ["farey-path", "--matrix", "1_0 1; 9 1"], ["invariants", "-n", "٣", "1"],
        ["sweep", "--suite", "rademacher", "--count", "1_0"],
        ["sweep", "--suite", "rademacher", "--seed", "٣"],
    ]
    out_of_range = [
        ["invariants", "-n", "3", "0"], ["invariants", "-n", "3", "3"],
        ["invariants", "-n", "3", "-3"], ["signature", "-n", "5", "1 2 5"],
        ["meyer", "-n", "3", "1", "4"], ["farey-path", "-n", "3", "3"],
    ]
    few_strands = [["invariants", "-n", "1", "1"], ["signature", "-n", "0", ""],
                   ["maslov", "-n", "-5", "1"]]
    bad_matrices = [["farey-path", "--matrix", m]
                    for m in ("2 0; 0 2", "1 1; 1 1", "0 0; 0 0", "1 2 3", "1 2; 3", ";", "")]
    missing = [[], ["invariants"], ["invariants", "-n"], ["meyer", "-n", "3", "1"], ["sweep"],
               ["farey-path"], ["nonsense"], ["invariants", "-n", "3", "1", "--bogus"],
               ["sweep", "--suite", "theorem-lk", "--count", "-1"]]
    too_wide = [["invariants", "-n", wide, "1"], ["signature", "-n", wide, "1"],
                ["maslov", "-n", wide, "1"], ["meyer", "-n", dense, "1", "1"],
                ["invariants", "-n", str(10**30), "1"]]
    # Past int()'s 4300-digit limit: named, cut short, and out of range.
    too_long = [["invariants", "-n", "3", "1" * 5000], ["qp-cert", "-n", "3", "1 -" + "2" * 4999],
                ["sweep", "--suite", "rademacher", "--seed", "1" * 5000],
                ["farey-path", "--matrix", "1 " + "1" * 5000 + "; 0 1"],
                ["invariants", "-n", "1" * 5000, "1"]]
    empty = [["invariants", "-n", "3", ""], ["signature", "-n", "5", "   "],
             ["maslov", "-n", "3", ""], ["meyer", "-n", "3", "", ""], ["qp-cert", "-n", "3", ""],
             ["farey-path", ""], ["invariants", "-n", "4", ""],
             ["sweep", "--suite", "theorem-lk", "--count", "0"],
             # qp-cert decides a positive word without the homology representation.
             ["qp-cert", "-n", wide, "1"]]
    groups = [(bad_tokens, 1, "is not a signed ASCII decimal integer"),
              (out_of_range, 1, "token"), ([["farey-path", "-n", "4", "1"]], 1, "B_3"),
              (few_strands, 1, "strands must be >= 2"),
              (too_long, 1, "...' (5000 characters) is out of range: too long"),
              (bad_matrices, 1, ""), (missing, 1, ""), (too_wide, 3, "strand bound"),
              (empty, 0, "")]
    return [(argv, code, needle) for argvs, code, needle in groups for argv in argvs]


def test_cli_contract_table(capsys):
    """Malformed and edge-case argv lists exit 0, 1 or 3 as the cli docstring
    says, at once, and never with a traceback."""
    for argv, expected, needle in _contract_table():
        start = time.perf_counter()
        code, payload, err = run(capsys, argv)
        assert time.perf_counter() - start < 1.0, argv
        assert code == expected, (argv, code, err)
        assert "Traceback" not in err, argv
        if expected == 0:
            assert payload is not None and err == "", argv
        else:
            assert payload is None and err.count("\n") == 1, (argv, err)
            prefix = "bound exceeded: " if expected == 3 else "error: "
            assert err.startswith(prefix) and needle in err, (argv, err)


def test_every_module_imports_on_its_own():
    src = os.path.dirname(os.path.dirname(os.path.abspath(veerlab.__file__)))
    names = sorted(
        name[:-3] for name in os.listdir(os.path.join(src, "veerlab"))
        if name.endswith(".py") and name != "__init__.py"
    )
    assert {"_core", "cli", "torus"} <= set(names)
    env = {**os.environ, "PYTHONPATH": src}
    # Each fresh interpreter also resolves every name in the module's
    # __all__, so a name removed from the module but left in __all__ fails.
    check = ("import importlib, sys; m = importlib.import_module(sys.argv[1]); "
             "missing = [n for n in getattr(m, '__all__', ()) if not hasattr(m, n)]; "
             "sys.exit(f'stale __all__: {missing}' if missing else 0)")
    for name in names:
        done = subprocess.run([sys.executable, "-c", check, f"veerlab.{name}"],
                              env=env, capture_output=True, text=True)
        assert done.returncode == 0, (name, done.stderr)
