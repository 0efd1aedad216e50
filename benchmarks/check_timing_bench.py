"""Compare a fresh timing micro-benchmark with the committed ``BENCH_timing.json``.

    PYTHONPATH=src python benchmarks/run_timing_bench.py /tmp/BENCH_timing.json
    python benchmarks/check_timing_bench.py /tmp/BENCH_timing.json

Absolute rates (evaluations/s, ms per run) follow the host, so only two
ratios are compared, each of two sides timed in alternation on one host:
``speedup_vs_seed_engine`` (the production engine over the frozen seed
engine) and ``first_over_repeat`` (a cold store audit over one on a pinned
verifier).  The check fails when any entry's ratio falls below its committed
value by more than :data:`NOISE_BAND`, or when a committed entry is missing.
A change that moves a ratio on purpose commits a fresh ``BENCH_timing.json``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

COMMITTED = Path(__file__).resolve().parents[1] / "BENCH_timing.json"
#: The ratios compared; every other number in the file follows the host.
RATIOS = ("speedup_vs_seed_engine", "first_over_repeat")
#: Largest relative drop below the committed value that still passes.
#: Measured on a 2-vCPU shared Xeon VM, eight runs of an unchanged engine:
#: the worst drop was 23.5% (softmax ``first_over_repeat``, 13.28-16.45
#: against a committed 17.35, timing a 0.14 ms audit); every other entry
#: stayed within 12.6% of its committed value.
NOISE_BAND = 0.30


def ratios(report: dict, path: str = "") -> dict[str, float]:
    """Every compared ratio in ``report``, keyed by its path."""
    found = {}
    for name, value in report.items():
        where = f"{path}/{name}"
        if isinstance(value, dict):
            found.update(ratios(value, where))
        elif name in RATIOS:
            found[where] = float(value)
    return found


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    committed = ratios(json.loads(COMMITTED.read_text()))
    fresh = ratios(json.loads(Path(argv[0]).read_text()))
    failures = 0
    for where, floor in sorted(committed.items()):
        value = fresh.get(where)
        ok = value is not None and value >= floor * (1.0 - NOISE_BAND)
        failures += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {where}: {value} (committed {floor}, "
              f"floor {floor * (1.0 - NOISE_BAND):.3f})")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
