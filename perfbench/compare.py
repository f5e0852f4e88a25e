"""Compare two sets of benchmark runs of one workload.

    python3 perfbench/compare.py BASE.txt NEW.txt

Each file holds the standard output of one or more runs of
``perfbench/run.py`` (one ``stamp`` line and one result line per run).
Prints, for every metric, each side's median and quartiles and the change
of the medians.  Refuses (exit 1) when the runs do not share one stamp:
results from different backends, interpreters or core counts are not
comparable.
"""

from __future__ import annotations

import json
import statistics
import sys


def load(path: str) -> tuple[list[dict], list[dict]]:
    stamps, results = [], []
    with open(path) as f:
        for line in f:
            if line.startswith("stamp "):
                stamps.append(json.loads(line[len("stamp "):]))
            elif line.startswith('{"correct"'):
                results.append(json.loads(line))
    if not results or len(stamps) != len(results):
        raise SystemExit(f"{path}: expected one stamp line per result line")
    return stamps, results


def summary(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    (base_stamps, base), (new_stamps, new) = load(argv[0]), load(argv[1])
    stamps = {json.dumps(s, sort_keys=True) for s in base_stamps + new_stamps}
    if len(stamps) != 1:
        print("refused: runs differ in backend or environment:", file=sys.stderr)
        for s in sorted(stamps):
            print("  " + s, file=sys.stderr)
        return 1
    if not all(r["correct"] for r in base + new):
        print("refused: a run has failed items", file=sys.stderr)
        return 1
    print(f"stamp {stamps.pop()}; runs: base {len(base)}, new {len(new)}")
    for name, m in base[0]["metrics"].items():
        b = summary([r["metrics"][name]["value"] for r in base])
        n = summary([r["metrics"][name]["value"] for r in new])
        change = f"{100 * (n[1] / b[1] - 1):+.1f}%" if b[1] else "n/a"
        print(f"{name:48s} {m['unit']:6s} base {b[1]:.6g} [{b[0]:.6g}, {b[2]:.6g}]"
              f"  new {n[1]:.6g} [{n[0]:.6g}, {n[2]:.6g}]  {change}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
