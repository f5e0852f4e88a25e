"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracing  # noqa: E402
import workloads as W  # noqa: E402
from veerlab import braid, cli, linkinv, torus  # noqa: E402


def b3_items(count: int) -> list[W.Item]:
    return [i for i in W.schedule("invariants", 5, 20) if i.cls == "B3L20"][:count]


@pytest.fixture
def wrong_seifert(monkeypatch):
    original = linkinv.seifert_signature
    monkeypatch.setattr(linkinv, "seifert_signature", lambda b: original(b) + 1)


def test_injected_wrong_answer_fails_items(wrong_seifert):
    items = b3_items(3)
    _, _, failed, _ = run.run_pass("invariants", items, {})
    assert failed == {0, 1, 2}


def test_injected_wrong_answer_fails_the_command(wrong_seifert, capsys):
    rc = run.main(["--workload", "sweeps-symplectic", "--seed", "1",
                   "--seconds", "0.3", "--trace", "0"])
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert rc != 0
    assert result["correct"] is False and result["failed"] > 0


def test_answer_differing_from_record_fails_item():
    items = b3_items(3)
    _, answers, failed, _ = run.run_pass("invariants", items, {})
    record = {item.key(): json.loads(a) for item, a in zip(items, answers)}
    assert failed == set() and run.run_pass("invariants", items, record)[2] == set()
    record[items[1].key()]["lk"] += 1
    assert run.run_pass("invariants", items, record)[2] == {1}


def test_sweep_answer_must_be_clean_for_its_inputs():
    item = W.schedule("sweeps-modular", 2, 0.05)[0]
    raw = W.execute("sweeps-modular", item)
    assert W.judge("sweeps-modular", item, raw, {}) == (True, "")
    assert not W.judge("sweeps-modular", item._replace(arg=item.arg + 1), raw, {})[0]
    assert not W.judge("sweeps-modular", item, {**raw, "failures": 1}, {})[0]


def test_recorded_seeds_reproduce_their_answers():
    for seed in (W.DEFAULT_SEED, W.HOLDOUT_SEED):
        record = W.load_record("invariants", seed)
        items = [i for i in W.schedule("invariants", seed, 20) if i.cls == "B3L20"][:2]
        assert all(i.key() in record for i in items)
        assert run.run_pass("invariants", items, record)[2] == set()


def test_traced_and_untraced_answers_identical():
    for workload, items in (("invariants", b3_items(2)),
                            ("sweeps-symplectic", W.schedule("sweeps-symplectic", 3, 0.3)),
                            ("sweeps-modular", W.schedule("sweeps-modular", 3, 0.05))):
        _, answers, failed, _ = run.run_pass(workload, items, {})
        with tracing.Tracer() as tracer:
            _, answers_t, failed_t, _ = run.run_pass(workload, items, {}, tracer)
        assert answers == answers_t and failed == failed_t == set()
        assert sum(tracer.calls.values()) > len(items)


def test_sweeps_modular_bypasses_the_symplectic_layers():
    items = W.schedule("sweeps-modular", 4, 0.2)
    with tracing.Tracer() as tracer:
        run.run_pass("sweeps-modular", items, {}, tracer)
    values = tracing.per_layer_values(tracer, {}, 0.0, 1.0)
    bypassed = [n for n in values if n.endswith(".calls") and
                n.split(".")[0] in ("linalg", "poly", "burau")]
    bypassed += ["symplectic.maslov_index.calls", "symplectic.meyer.calls"]
    assert len(bypassed) > 10
    assert {n: values[n] for n in bypassed} == {n: 0 for n in bypassed}
    assert values["core.word_matrix.calls"] > 0


def test_every_binding_is_wrapped_and_restored():
    original = braid.linking_number
    with tracing.Tracer():
        wrapped = braid.linking_number
        assert wrapped is not original
        assert torus.linking_number is wrapped
        assert linkinv.linking_number is wrapped
        assert cli.linking_number is wrapped
    assert braid.linking_number is torus.linking_number is cli.linking_number is original


def test_benchmark_json_matches_reported_metrics():
    with open(os.path.join(W.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == list(W.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == tracing.per_layer_names()
    assert {m["name"] for m in spec["end_to_end"]} == {
        "item_ms_p50", "item_ms_tail", "items_per_s", "peak_rss_mb", "setup_s"}


def test_schedule_is_seeded_and_prefix_stable():
    assert W.schedule("invariants", 7, 20) == W.schedule("invariants", 7, 20)
    assert W.schedule("invariants", 7, 20) != W.schedule("invariants", 8, 20)
    full, half = W.schedule("sweeps-symplectic", 7, 4), W.schedule("sweeps-symplectic", 7, 2)
    for cls in W.WORKLOADS["sweeps-symplectic"].costs:
        short = [i for i in half if i.cls == cls]
        assert short == [i for i in full if i.cls == cls][: len(short)]


def test_tail_has_ten_items_beyond():
    values = [float(i) for i in range(40)]
    assert run.tail(values) == (29.0, 75.0)


def test_fails_without_the_source_tree(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(W.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "invariants",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
