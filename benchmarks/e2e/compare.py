"""Compare two sets of ``run.py --out`` results, one row per (workload, metric).

    python3 benchmarks/e2e/compare.py --a PARENT.json... --b CHANGE.json...

Each argument is a result file or a directory of them.  A row shows each
side's median and quartiles, the BENCHMARK.json bound, the seed pairs B won
(a pair is the runs both sides made with one seed and run number; ties count
for neither side), and a verdict of B against A:

* ``unresolved`` when either side has fewer than 3 runs;
* ``better`` / ``worse`` when the runs' order settles it, whatever the size
  of the change: with at least 5 runs a side, every B run beats (or loses to)
  every A run; or with at least 10 pairs, B wins (or loses) at least 9 in 10
  of them and the medians differ by more than A's quartile spread;
* otherwise, when both sides' quartile spreads are within the bound:
  ``worse`` / ``better`` when B's median is worse / better than A's by more
  than the bound, ``same`` when it is not;
* otherwise ``unresolved``: the runs of one side disagree by more than the
  bound, and their order does not settle it either.

When exactly one side is traced, it also prints the tracing overhead: the
change in ``jobs_per_s`` against the untraced side.  When both sides are
traced, per-layer rows follow (no bound, so no verdict).  Keep traced and
untraced results in separate directories.
"""

from __future__ import annotations

import argparse
import json
import statistics
from collections import Counter, defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
#: Fewer runs than this on a side give no verdict.
MIN_RUNS = 3
#: Runs a side needs before complete separation of the two sides counts.
SEPARATION_RUNS = 5
#: Seed pairs needed, and the share of them B must win, to settle a change.
MIN_PAIRS, PAIR_WIN_SHARE = 10, 0.9


def load(paths: list[Path]) -> list[dict]:
    """Every valid result in the given files and directories."""
    files = []
    for path in paths:
        files.extend(sorted(path.glob("*.json")) if path.is_dir() else [path])
    results = []
    for file in files:
        result = json.loads(file.read_text())
        if result["valid"]:
            results.append(result)
        else:
            print(f"skipping {file}: generator lateness above the limit")
    return results


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: list[float]) -> float:
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0


def verdict(a: list[float], b: list[float], pairs: list[tuple[float, float]],
            bound: float, better: str) -> str:
    """B against A; ``pairs`` holds ``(a, b)`` values of the same seed and run."""
    if min(len(a), len(b)) < MIN_RUNS:
        return "unresolved"
    sign = 1.0 if better == "higher" else -1.0
    median_a, median_b = quartiles(a)[1], quartiles(b)[1]
    # Relative change of the median; positive means B is better.
    gain = sign * (median_b - median_a) / abs(median_a) if median_a else 0.0
    score_a, score_b = [sign * x for x in a], [sign * x for x in b]
    if min(len(a), len(b)) >= SEPARATION_RUNS:
        if min(score_b) > max(score_a):
            return "better"
        if max(score_b) < min(score_a):
            return "worse"
    if len(pairs) >= MIN_PAIRS and abs(gain) > spread(a):
        wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
        losses = sum(1 for x, y in pairs if sign * (y - x) < 0)
        if gain > 0 and wins >= PAIR_WIN_SHARE * len(pairs):
            return "better"
        if gain < 0 and losses >= PAIR_WIN_SHARE * len(pairs):
            return "worse"
    if spread(a) > bound or spread(b) > bound:
        return "unresolved"
    if gain < -bound:
        return "worse"
    if gain > bound:
        return "better"
    return "same"


def by_metric(results: list[dict], section: str) -> dict:
    """``{(workload, metric): [((seed, run), value), ...]}``, one entry per result."""
    table: dict = defaultdict(list)
    for result in results:
        for metric, value in result[section].items():
            table[(result["workload"], metric)].append(
                ((result["seed"], result["run"]), value)
            )
    return table


def values(entries: list) -> list[float]:
    return [value for _, value in entries]


def pair(entries_a: list, entries_b: list) -> list[tuple[float, float]]:
    """``(a, b)`` values of each (seed, run) that each side holds exactly once."""

    def unique(entries: list) -> dict:
        counts = Counter(run for run, _ in entries)
        return {run: value for run, value in entries if counts[run] == 1}

    side_a, side_b = unique(entries_a), unique(entries_b)
    return [(side_a[run], side_b[run]) for run in sorted(side_a.keys() & side_b.keys())]


def _cell(values: list[float]) -> str:
    q1, median, q3 = quartiles(values)
    return f"{median:11.5g} [{q1:.5g}, {q3:.5g}]"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--a", nargs="+", type=Path, required=True, help="parent results")
    parser.add_argument("--b", nargs="+", type=Path, required=True, help="change results")
    args = parser.parse_args(argv)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    side_a, side_b = load(args.a), load(args.b)

    a = by_metric(side_a, "end_to_end")
    b = by_metric(side_b, "end_to_end")
    workloads = sorted({workload for workload, _ in a})
    print(f"{'workload':15} {'metric':22} {'A median [q1, q3]':>34} "
          f"{'B median [q1, q3]':>34} {'runs':>5} {'bound':>6} {'wins':>6}  verdict")
    for workload in workloads:
        for metric in declared["end_to_end"]:
            key = (workload, metric["name"])
            values_a, values_b = values(a.get(key, [])), values(b.get(key, []))
            if not values_a or not values_b:
                continue
            pairs = pair(a[key], b[key])
            sign = 1 if metric["better"] == "higher" else -1
            wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
            print(f"{workload:15} {metric['name']:22} {_cell(values_a):>34} "
                  f"{_cell(values_b):>34} {len(values_a):>2}/{len(values_b):<2} "
                  f"{metric['bound']:6.2f} {wins:>2}/{len(pairs):<3}  "
                  f"{verdict(values_a, values_b, pairs, metric['bound'], metric['better'])}")

    traced_a, traced_b = (any(r["trace"] for r in side) for side in (side_a, side_b))
    if traced_a != traced_b:
        plain, tracing = (a, b) if traced_b else (b, a)
        for workload in workloads:
            key = (workload, "jobs_per_s")
            if plain.get(key) and tracing.get(key):
                untraced = quartiles(values(plain[key]))[1]
                overhead = quartiles(values(tracing[key]))[1] / untraced - 1.0
                print(f"{workload:15} tracing overhead: jobs_per_s {overhead:+.1%}")
    if traced_a and traced_b:
        layer_a = by_metric(side_a, "per_layer")
        layer_b = by_metric(side_b, "per_layer")
        for workload in workloads:
            for metric in declared["per_layer"]:
                key = (workload, metric["name"])
                if layer_a.get(key) and layer_b.get(key):
                    print(f"{workload:15} {metric['name']:32} "
                          f"{_cell(values(layer_a[key])):>34} "
                          f"{_cell(values(layer_b[key])):>34} {metric['unit']}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
