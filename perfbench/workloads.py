"""The benchmark's workloads: seeded item schedules, warm-up items, item
execution and the answer of each item.

An item is one closed-loop call into the public API: a ``veerlab
invariants`` report through ``cli.main`` or one ``sweeps.run_suite(suite, 1,
item_seed)``.  Every input is generated here from the workload seed; the
program only ever sees the generated words and item seeds.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import sys
from dataclasses import dataclass
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

import veerlab  # noqa: E402
from veerlab import _core, cli, sweeps  # noqa: E402

# Refuse an installed copy of the package: the benchmark measures the source
# tree it sits in, and must fail where that tree is absent.
if os.path.dirname(os.path.abspath(veerlab.__file__)) != os.path.join(SRC, "veerlab"):
    raise ImportError(f"veerlab imported from {veerlab.__file__}, not from {SRC}")

DEFAULT_SEED = 1
# Answers are also recorded for this seed, so that a claimed gain can be
# re-checked on inputs nobody tuned against.  Do not tune against it.
HOLDOUT_SEED = 20061
ANSWERS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "answers.json")


@dataclass(frozen=True)
class Workload:
    name: str
    # Nominal seconds per item of each class, measured once on the pure
    # backend (2-core x86-64 VM, Python 3.11).  They only size a pass to
    # about --seconds and balance the classes; being constants, they give
    # the same items on every commit for the same seed and --seconds.
    costs: dict[str, float]
    # True: every class gets about the same share of the time.
    # False: plain round robin, the same number of items per class.
    balanced: bool


WORKLOADS = {
    w.name: w
    for w in (
        # The per-braid query a user runs; words of exactly length 20 and 40.
        Workload(
            "invariants",
            {"B3L20": 0.13, "B3L40": 0.37, "B5L20": 0.95,
             "B5L40": 1.6, "B7L20": 3.9, "B7L40": 5.5},
            balanced=True,
        ),
        # The 2x2 integer path (_core, modular, farey, torus, braid); it
        # bypasses linalg, poly, burau and the Maslov/Meyer code.
        Workload(
            "sweeps-modular",
            {"theorem-lk": 0.00015, "rademacher": 0.00019,
             "quasimorphism": 0.00019, "dehn-deltas": 0.00033,
             "cochain": 0.00031, "gg-remark": 0.00098},
            balanced=False,
        ),
        # Many short words, general rational frames (ternary-lemma) and
        # large-entry Burau products (meyer-cocycle) in the symplectic layer.
        Workload(
            "sweeps-symplectic",
            {"signatures": 0.0127, "sign-maslov": 0.031,
             "eq-signature": 0.0038, "meyer-cocycle": 0.0105,
             "ternary-lemma": 0.0098},
            balanced=True,
        ),
    )
}


class Item(NamedTuple):
    cls: str
    # invariants: (strands, word text); sweeps: the item seed
    arg: object

    def key(self) -> str:
        return f"{self.cls}:{self.arg[1]}"


def class_counts(workload: Workload, seconds: float) -> dict[str, int]:
    costs = workload.costs
    if workload.balanced:
        share = seconds / len(costs)
        return {c: max(1, round(share / cost)) for c, cost in costs.items()}
    rounds = max(1, round(seconds / sum(costs.values())))
    return {c: rounds for c in costs}


def _class_inputs(workload: str, seed: int, cls: str, count: int) -> list[Item]:
    # One stream per class, so a shorter pass draws a prefix of a longer one.
    rng = random.Random(f"{workload}/{seed}/{cls}")
    if workload != "invariants":
        return [Item(cls, rng.getrandbits(32)) for _ in range(count)]
    strands, length = int(cls[1]), int(cls[3:])
    gens = [k for k in range(-(strands - 1), strands) if k != 0]
    return [
        Item(cls, (strands, " ".join(str(rng.choice(gens)) for _ in range(length))))
        for _ in range(count)
    ]


def schedule(workload: str, seed: int, seconds: float) -> list[Item]:
    """The items of one pass, classes interleaved in proportion to their
    counts (smooth weighted round robin)."""
    wl = WORKLOADS[workload]
    counts = class_counts(wl, seconds)
    order = list(wl.costs)
    keyed = []
    for ci, cls in enumerate(order):
        for j, item in enumerate(_class_inputs(workload, seed, cls, counts[cls])):
            keyed.append(((j + 0.5) / counts[cls], ci, item))
    keyed.sort(key=lambda t: (t[0], t[1]))
    return [item for _, _, item in keyed]


def warm_up(workload: str) -> None:
    """Run one item per workload class, filling the per-braid-group caches.

    For invariants the class is the braid group, and its item is the word
    sigma_1: set-up runs seven times per run, and a length-40 word in B_7
    alone takes about 5 s.
    """
    if workload == "invariants":
        items = [Item(f"B{n}L1", (n, "1")) for n in (3, 5, 7)]
    else:
        items = [Item(cls, 0) for cls in WORKLOADS[workload].costs]
    for item in items:
        execute(workload, item)


def execute(workload: str, item: Item):
    """Run one item; returns the raw result for ``judge``."""
    try:
        if workload == "invariants":
            strands, word = item.arg
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = cli.main(["invariants", "-n", str(strands), word])
            return rc, buf.getvalue()
        return sweeps.run_suite(item.cls, 1, item.arg)
    except Exception as exc:  # a failed item is counted, never fatal
        return f"{type(exc).__name__}: {exc}"


def judge(workload: str, item: Item, raw, record: dict) -> tuple[bool, str]:
    """(item is correct, its answer).

    invariants: exit 0, every identity check true, and the exact report
    recorded in ``record`` (answers.json for this seed) when it has the
    word.  Sweeps: the result must be the clean one for the item's own
    inputs, which is the recorded answer of every sweep item, so it is
    computed here rather than stored.  The answer text is empty for a
    correct sweep item, so that a pass keeps nothing per item.
    """
    if isinstance(raw, str):
        return False, raw
    if workload == "invariants":
        rc, out = raw
        try:
            report = json.loads(out)
        except ValueError:
            return False, f"exit {rc}: {out!r}"
        checks = report.get("identity_checks") or {"missing": False}
        ok = rc == 0 and all(checks.values()) and report == record.get(item.key(), report)
        return ok, json.dumps(report, sort_keys=True)
    clean = {"suite": item.cls, "count": 1, "seed": item.arg,
             "failures": 0, "failed_examples": []}
    if raw == clean:
        return True, ""
    return False, json.dumps(raw, sort_keys=True, default=str)


def load_record(workload: str, seed: int) -> dict:
    """Recorded invariants reports for ``seed``, keyed by ``Item.key``."""
    with open(ANSWERS) as f:
        return json.load(f).get(workload, {}).get(str(seed), {})


def stamp() -> dict:
    """Backend and environment of a result; compare.py refuses to compare
    results whose stamps differ."""
    return {
        "using_speedups": _core.USING_SPEEDUPS,
        "veerlab_pure_env": bool(os.environ.get("VEERLAB_PURE")),
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
    }
