import json
from fractions import Fraction

from veerlab import cli

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


def test_sweep_env_seed(capsys, monkeypatch):
    monkeypatch.setenv("VEERLAB_SEED", "12345")
    code, report, _ = run(capsys, ["sweep", "--suite", "rademacher", "--count", "50", "--seed", "7"])
    assert code == 0
    assert report["seed"] == 12345


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


def test_sign_maslov_sweep_reports_a_chart_mismatch(capsys, monkeypatch):
    from veerlab import linkinv

    monkeypatch.setattr(linkinv, "maslov_by_charts", lambda w: linkinv.maslov_of_word(w) + 1)
    code, report, _ = run(capsys, ["sweep", "--suite", "sign-maslov", "--count", "3"])
    assert code == 2 and report["failures"] == 3
    example = report["failed_examples"][0]
    assert Fraction(example["mu_charts"]) == Fraction(example["mu"]) + 1


def test_invariants_stays_in_the_2n_space(capsys, monkeypatch):
    from veerlab import burau, poly, symplectic

    def forbidden(*args, **kwargs):
        raise AssertionError("doubled-space engine entered")

    for module, name in ((symplectic, "graph_lagrangian"), (symplectic, "graph_path"),
                         (symplectic, "maslov_index"), (symplectic, "meyer"),
                         (symplectic, "ternary_index"), (burau, "graph_path_of"),
                         (poly, "peval")):
        monkeypatch.setattr(module, name, forbidden)
    code, report, _ = run(capsys, ["invariants", "-n", "5", "1 -2 3 4 -3 2 2 1 -4"])
    assert code == 0 and all(report["identity_checks"].values())
    code, report, _ = run(capsys, ["invariants", "-n", "3", W25])
    assert code == 0 and report["maslov"] == {"mu": "1", "two_mu": 2}


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
