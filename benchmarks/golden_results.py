"""Golden per-key results of the end-to-end benchmark's workloads.

Runs every key of the three e2e workloads (warm-up keys, the other
strategy's job and the timed keys, in that order) in-process, through one
:class:`~repro.api.Session` per workload, and records what each job found::

    PYTHONPATH=src python benchmarks/golden_results.py            # rewrite BENCH_results.json
    PYTHONPATH=src python benchmarks/golden_results.py --check    # diff against it

Per key the file holds the baseline and best times, the evaluations spent,
the digest of the best schedule, the verification verdict, the number of
verifier diagnostics, and the measurement service's ``submitted`` and
``pruned`` counts.  ``measured`` and ``memo_hits`` are left out on purpose:
they say how much simulation memoization saved, not what the search found,
so their per-workload totals are printed instead.

``--check`` recomputes the table twice, once with every job of a workload
reading one shared memo table (the way a :class:`~repro.pool.SessionPool`
serves them) and once with a private memo per job, and diffs each against
the committed file key by key.  It exits non-zero on any difference.  A
change that moves a result on purpose regenerates the file and says why.
The key sets and configs come from ``benchmarks/e2e/workloads.py``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "benchmarks" / "e2e"))

from repro.api import CacheConfig, MeasurementPolicy, Session  # noqa: E402
from repro.sim import SharedMemoTable  # noqa: E402
from workloads import WORKLOADS, Key, Workload  # noqa: E402

RESULTS = ROOT / "BENCH_results.json"


def _jobs(workload: Workload) -> list[tuple[str, Key]]:
    """``(strategy, key)`` of every job the workload runs, in run order."""
    strategy = workload.config.strategy
    return (
        [(strategy, key) for key in workload.warmup]
        + [workload.other_strategy]
        + [(strategy, key) for key in workload.keys]
    )


def run_workload(workload: Workload, shared: bool) -> tuple[dict, dict]:
    """Per-key results of one workload, plus its memoization totals."""
    # Without a shared table, each job's measurement service builds a private one.
    policy = MeasurementPolicy(
        memoize=True, shared_memo=SharedMemoTable() if shared else None, memo_owner="golden"
    )
    session = Session(config=workload.config, measurement=policy, cache=CacheConfig(enabled=False))
    results, totals = {}, {"measured": 0, "memo_hits": 0}
    for strategy, key in _jobs(workload):
        report = session.optimize(key.kernel, shapes=key.shape_dict, strategy=strategy)
        measurement = report.details["measurement"]
        totals["measured"] += measurement["measured"]
        totals["memo_hits"] += measurement["memo_hits"]
        results[f"{strategy}:{key}"] = {
            "baseline_time_ms": report.baseline_time_ms,
            "best_time_ms": report.best_time_ms,
            "evaluations": report.evaluations,
            "best_digest": report.artifact.optimized.kernel.content_digest(),
            "verified": report.verified,
            "diagnostics": len(report.diagnostics),
            "submitted": measurement["submitted"],
            "pruned": measurement["pruned"],
        }
    session.close()
    return results, totals


def compute(shared: bool) -> dict:
    """The whole golden table, printing each workload's memo totals."""
    table = {}
    for workload in WORKLOADS:
        start = time.perf_counter()
        results, totals = run_workload(workload, shared)
        table[workload.name] = results
        print(
            f"{workload.name} ({'shared' if shared else 'private'} memo): "
            f"{len(results)} keys, measured {totals['measured']}, "
            f"memo_hits {totals['memo_hits']}, {time.perf_counter() - start:.1f} s",
            flush=True,
        )
    return {"benchmark": "golden_results", "workloads": table}


def diff(expected: dict, actual: dict) -> list[str]:
    """One line per key (or field) that differs."""
    lines = []
    for name in sorted(set(expected["workloads"]) | set(actual["workloads"])):
        want = expected["workloads"].get(name, {})
        got = actual["workloads"].get(name, {})
        for key in sorted(set(want) | set(got)):
            if key not in got or key not in want:
                lines.append(f"{name} {key}: {'missing' if key not in got else 'not in the file'}")
                continue
            for field in sorted(set(want[key]) | set(got[key])):
                if want[key].get(field) != got[key].get(field):
                    lines.append(
                        f"{name} {key} {field}: {want[key].get(field)!r} -> {got[key].get(field)!r}"
                    )
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="diff against the committed file, sharing on and off")
    args = parser.parse_args(argv)
    if not args.check:
        RESULTS.write_text(json.dumps(compute(shared=True), indent=1, sort_keys=True) + "\n")
        print(f"wrote {RESULTS}")
        return 0
    expected = json.loads(RESULTS.read_text())
    failures = 0
    for shared in (True, False):
        lines = diff(expected, compute(shared))
        mode = "shared" if shared else "private"
        for line in lines:
            print(f"{mode}: {line}", file=sys.stderr)
        print(f"{mode} memo: {'ok' if not lines else f'{len(lines)} difference(s)'}")
        failures += len(lines)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
