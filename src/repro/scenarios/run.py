"""``python -m repro.scenarios.run`` — one-command scenario suite runner.

Selects scenarios from the registry (by id pattern, tags, or axis filters),
executes each through the serving stack — scenarios are grouped by
measurement regime + optimization preset, one :class:`SessionPool` is built
per group covering the group's backends, and every scenario is submitted as
a job on the pool's :class:`JobQueue` — and emits one
``BENCH_<scenario>.json`` per scenario so the perf trajectory covers the
whole matrix.

Examples::

    python -m repro.scenarios.run --list
    python -m repro.scenarios.run softmax
    python -m repro.scenarios.run --tags adversarial --out-dir bench_out
    python -m repro.scenarios.run --scale test --max-scenarios 8

Exit codes: 0 when every selected scenario succeeds, 1 when any job fails,
2 on usage errors (no scenario matches the filters).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.api.config import CacheConfig
from repro.pool import SessionPool
from repro.scenarios.registry import Scenario, all_scenarios, scenarios_matching
from repro.triton.spec import SCALES

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2


def bench_filename(scenario: Scenario) -> str:
    """``BENCH_<scenario>.json`` with the id made filesystem-safe."""
    return "BENCH_" + scenario.id.replace("/", "__") + ".json"


def select_scenarios(args: argparse.Namespace) -> tuple[Scenario, ...]:
    """Apply the CLI filters to the registry."""
    tags = tuple(args.tags.split(",")) if args.tags else None
    selected = scenarios_matching(
        args.pattern,
        tags=tags,
        kernel=args.kernel,
        backend=args.backend,
        scale=args.scale,
        regime=args.regime,
    )
    if args.max_scenarios is not None:
        selected = selected[: args.max_scenarios]
    return selected


def _group_key(scenario: Scenario) -> tuple:
    """Scenarios that can share one pool: same regime, preset and overrides."""
    return (scenario.regime, scenario.preset, scenario.config_overrides, scenario.scale)


def run_scenarios(
    scenarios: "tuple[Scenario, ...]", out_dir: Path, *, quiet: bool = False
) -> list[dict]:
    """Execute the scenarios through pooled serving; one result dict each.

    Returns the written payloads in input order; a failed optimization still
    produces its ``BENCH_*.json`` (with ``"error"`` set) so a partial run
    leaves a complete, inspectable trail.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    groups: dict[tuple, list[Scenario]] = {}
    for scenario in scenarios:
        groups.setdefault(_group_key(scenario), []).append(scenario)

    results: dict[str, dict] = {}
    for group in groups.values():
        exemplar = group[0]
        pool = SessionPool.for_scenarios(
            group,
            config=exemplar.optimization_config(),
            measurement=exemplar.measurement_policy(),
            cache=CacheConfig(enabled=False),
        )
        try:
            queue = pool.serve()
            handles = [(s, queue.submit_scenario(s)) for s in group]
            for scenario, handle in handles:
                started = time.perf_counter()
                report = handle.result()
                payload = {
                    "scenario": scenario.summary(),
                    "report": report.summary(),
                    "elapsed_s": round(time.perf_counter() - started, 3),
                }
                if report.failed:
                    payload["error"] = report.error
                results[scenario.id] = payload
                path = out_dir / bench_filename(scenario)
                path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
                if not quiet:
                    status = (
                        f"FAILED ({report.error})"
                        if report.failed
                        else f"{report.baseline_time_ms:.4f} -> {report.best_time_ms:.4f} ms"
                    )
                    print(f"  {scenario.id:50s} {status}")
        finally:
            pool.close()
    return [results[s.id] for s in scenarios]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.scenarios.run",
        description="Run registered scenarios through pooled serving and emit "
        "one BENCH_<scenario>.json each.",
    )
    parser.add_argument(
        "pattern", nargs="?", default=None,
        help="scenario id filter: glob (softmax/*/test/*) or substring (/H100/)",
    )
    parser.add_argument("--tags", default=None, help="comma-separated tag filter (all must match)")
    parser.add_argument("--kernel", default=None, help="kernel name or alias filter")
    parser.add_argument("--backend", default=None, help="backend name or alias filter")
    parser.add_argument("--scale", default=None, choices=SCALES)
    parser.add_argument("--regime", default=None, help="measurement regime filter")
    parser.add_argument(
        "--max-scenarios", type=int, default=None, metavar="N",
        help="run at most the first N selected scenarios",
    )
    parser.add_argument(
        "--out-dir", type=Path, default=Path("."), metavar="DIR",
        help="directory for the BENCH_*.json files (default: current directory)",
    )
    parser.add_argument(
        "--list", action="store_true", dest="list_only",
        help="print the selected scenario ids and exit without running",
    )
    parser.add_argument("-q", "--quiet", action="store_true", help="suppress per-scenario lines")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    selected = select_scenarios(args)
    if not selected:
        print(
            f"no scenario matches the given filters ({len(all_scenarios())} registered); "
            "try --list with no filters",
            file=sys.stderr,
        )
        return EXIT_USAGE
    if args.list_only:
        for scenario in selected:
            print(scenario.id)
        return EXIT_OK
    if not args.quiet:
        print(f"running {len(selected)} scenario(s) -> {args.out_dir}/BENCH_*.json")
    payloads = run_scenarios(selected, args.out_dir, quiet=args.quiet)
    failed = [p for p in payloads if "error" in p]
    if not args.quiet:
        print(f"done: {len(payloads) - len(failed)} ok, {len(failed)} failed")
    return EXIT_FAILED if failed else EXIT_OK


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess tests
    sys.exit(main())
