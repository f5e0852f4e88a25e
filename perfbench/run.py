"""Run one workload of the veerlab benchmark and print its result.

    python3 perfbench/run.py --workload invariants --seed 1 --seconds 20 --trace 0

Single process, single thread, closed loop: one client, and the next item
starts when the previous one returns.  A pass is a fixed, seeded list of
items sized to take about --seconds on the pure backend; the same seed and
--seconds give the same items on every commit, so two commits are timed on
identical work.

A shared 2-vCPU x86-64 VM was measured changing speed by up to 1.8x over
minutes, which no run length averages away.  So between items every run
also times a fixed stdlib-only reference computation, about 5% of the
measured time, and reports its times scaled to the reference speed:
seconds x REFERENCE_S / (time-weighted mean reference time).  No change to
veerlab can move the reference.  The raw times and the factor are printed
on the human-readable lines.

--trace 0 measures the end-to-end metrics with tracing off.  --trace 1
runs a pass of half the size twice, untraced and then traced, and reports
the per-layer metrics and the tracing overhead.  Every item's answer is
checked: the program's own identity checks, the recorded answer where
answers.json has one for this seed, and (traced runs) traced against
untraced.  The last line of stdout is one JSON object; the exit code is 0
only when every item is correct.  See README.md for the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from fractions import Fraction
from time import perf_counter

import tracing
import workloads as W

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_PROBES = 7
# Time of one reference_work() call at the reference speed, and how much
# measured time one sample of it stands for.
REFERENCE_S = 0.005
SAMPLE_EVERY_S = 0.1


def reference_work() -> Fraction:
    """Fixed pure-Python work, Fraction and integer arithmetic as in
    veerlab's linear algebra, built only from the standard library."""
    acc, counts = Fraction(0), {}
    for i in range(1, 1000):
        acc += Fraction(i % 7 + 1, i % 11 + 1)
        counts[i % 97] = counts.get(i % 97, 0) + i * i
    return acc


def reference_sample() -> float:
    t0 = perf_counter()
    reference_work()
    return perf_counter() - t0


class SpeedMeter:
    """Machine speed over measured work, from reference samples taken
    between items: one sample per SAMPLE_EVERY_S of measured time (at most
    50 after one long item), weighted by the time it stands for."""

    def __init__(self):
        self.pending = self.measured = self.reference = 0.0

    def add(self, seconds: float) -> None:
        self.pending += seconds
        if self.pending >= SAMPLE_EVERY_S:
            self._sample()

    def _sample(self) -> None:
        n = min(50, max(1, round(self.pending / SAMPLE_EVERY_S)))
        mean = statistics.fmean(reference_sample() for _ in range(n))
        self.measured += self.pending
        self.reference += self.pending * mean
        self.pending = 0.0

    def factor(self) -> float:
        """Multiplier that converts measured seconds to reference seconds."""
        if self.pending:
            self._sample()
        return REFERENCE_S * self.measured / self.reference


def measure_setup(workload: str) -> float:
    """Median time, in reference seconds, of fresh interpreters that import
    veerlab and run one warm-up item per workload class."""
    code = f"import sys; sys.path.insert(0, {HERE!r}); import workloads; workloads.warm_up({workload!r})"
    times, meter = [], SpeedMeter()
    for _ in range(SETUP_PROBES):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=W.ROOT, check=True,
                       stdout=subprocess.DEVNULL, timeout=150)
        times.append(perf_counter() - t0)
        meter.add(times[-1])
    return statistics.median(times) * meter.factor()


def run_pass(workload: str, items: list[W.Item], record: dict,
             tracer: tracing.Tracer | None = None):
    """Time every item and judge it as it completes.

    Returns (seconds per item, answers, indices of failed items, speed
    factor of the pass).  Only an untracked float and string are kept per
    item: retained results would make the garbage collector's full passes
    long, and those pauses, caused by the benchmark, would become the
    sweeps' tail.
    """
    times, answers, failed, meter = [], [], set(), SpeedMeter()
    execute, judge = W.execute, W.judge
    for i, item in enumerate(items):
        t0 = perf_counter()
        if tracer is None:
            raw = execute(workload, item)
        else:
            root = "cli.invariants" if workload == "invariants" else f"sweeps.{item.cls}"
            raw = tracer.run_item(root, execute, workload, item)
        times.append(perf_counter() - t0)
        ok, answer = judge(workload, item, raw, record)
        answers.append(answer)
        if not ok:
            failed.add(i)
        meter.add(times[-1])
    return times, answers, failed, meter.factor()


def tail(sorted_times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten
    items beyond it."""
    n = len(sorted_times)
    return sorted_times[max(0, n - 11)], 100.0 * max(0, n - 10) / n


def end_to_end(workload, seed, seconds):
    items = W.schedule(workload, seed, seconds)
    setup_s = measure_setup(workload)
    W.warm_up(workload)
    times, _, failed, f = run_pass(workload, items, W.load_record(workload, seed))
    ordered = sorted(times)
    tail_s, pct = tail(ordered)
    raw = {
        "item_ms_p50": (1000 * statistics.median(ordered), "ms"),
        "item_ms_tail": (1000 * tail_s, "ms"),
        "items_per_s": (len(items) / sum(times), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    scale = {"ms": f, "1/s": 1 / f, "MB": 1}
    metrics = {k: (v * scale[u], u) for k, (v, u) in raw.items()}
    metrics["setup_s"] = (setup_s, "s")
    print(f"{workload} seed={seed} items={len(items)} pass={sum(times):.2f}s "
          f"tail=p{pct:.2f} of {len(items)} items speed_factor={f:.4f}")
    print(f"fail_ratio = {len(failed)}/{len(items)} = {len(failed) / len(items)} ratio")
    for k, (v, u) in raw.items():
        print(f"raw {k} = {v} {u}")
    return len(items), failed, metrics


def traced(workload, seed, seconds):
    items = W.schedule(workload, seed, seconds / 2)
    W.warm_up(workload)
    record = W.load_record(workload, seed)
    times, answers, failed, f = run_pass(workload, items, record)
    with tracing.Tracer() as tracer:
        times_t, answers_t, failed_t, f_t = run_pass(workload, items, record, tracer)
    failed |= failed_t | {i for i, (a, b) in enumerate(zip(answers, answers_t)) if a != b}

    by_cls: dict[str, list[float]] = {}
    for item, t in zip(items, times):
        by_cls.setdefault(item.cls, []).append(1000 * t * f)
    if workload == "invariants":
        untraced = {f"cli.invariants.{c}.ms_p50": statistics.median(v) for c, v in by_cls.items()}
    else:
        untraced = {f"sweeps.{c}.ms_per_item": statistics.fmean(v) for c, v in by_cls.items()}
    overhead_s = sum(times_t) * f_t - sum(times) * f
    values = tracing.per_layer_values(tracer, untraced, overhead_s, f_t)
    metrics = {name: (values[name], unit) for name, unit in tracing.per_layer_names()}
    print(f"{workload} seed={seed} items={len(items)} untraced={sum(times):.2f}s "
          f"traced={sum(times_t):.2f}s speed_factors={f:.4f},{f_t:.4f} "
          f"overhead={overhead_s:.2f}s span_coverage={values['trace.span_coverage']:.3f}")
    return len(items), failed, metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    parser.add_argument("--seed", type=int, default=W.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    print("stamp " + json.dumps(W.stamp(), sort_keys=True))
    run = traced if args.trace else end_to_end
    attempted, failed, metrics = run(args.workload, args.seed, args.seconds)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value} {unit}")
    print(json.dumps({
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    sys.stdout.flush()
    return 0 if not failed else 1


if __name__ == "__main__":
    sys.exit(main())
