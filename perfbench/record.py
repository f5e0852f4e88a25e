"""Record the exact invariants report of every word of the default and
holdout seeds into answers.json, at the run length BENCHMARK.json sets.

    python3 perfbench/record.py

Sweep items need no record: the answer of each is the clean result for its
own inputs.  Run this only when an answer is meant to change; it refuses
to record a report that fails the program's own checks.
"""

from __future__ import annotations

import json
import os
import sys

import workloads as W


def main() -> int:
    with open(os.path.join(W.ROOT, "BENCHMARK.json")) as f:
        seconds = json.load(f)["run_seconds"]
    W.warm_up("invariants")
    data: dict = {"invariants": {}}
    for seed in (W.DEFAULT_SEED, W.HOLDOUT_SEED):
        entry = {}
        for item in W.schedule("invariants", seed, seconds):
            ok, answer = W.judge("invariants", item, W.execute("invariants", item), {})
            if not ok:
                print(f"seed {seed}: {item.key()} fails: {answer}", file=sys.stderr)
                return 1
            entry[item.key()] = json.loads(answer)
        data["invariants"][str(seed)] = entry
        print(f"invariants seed {seed}: {len(entry)} reports recorded")
    with open(W.ANSWERS, "w") as f:
        json.dump(data, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
