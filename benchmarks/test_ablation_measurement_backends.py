"""Ablation: measurement-service backends (inline vs process vs memoized).

The §3.6 measurement protocol is the bottleneck of every search strategy;
this entry records evaluations/sec of the greedy search per backend and
checks the service is semantics-preserving: every backend finds the same
best schedule, and memoization strictly reduces raw simulator measurements.
"""

from repro.bench.experiments import format_table, measurement_backend_throughput


def test_measurement_backend_throughput(benchmark, simulator):
    rows = benchmark.pedantic(
        lambda: measurement_backend_throughput(simulator=simulator),
        rounds=1,
        iterations=1,
    )
    print("\nAblation — measurement backends (greedy search, mmLeakyReLu)")
    print(format_table(rows, floatfmt="{:.4f}"))

    by_backend = {row["backend"]: row for row in rows}
    inline = by_backend["inline"]
    process = by_backend["process"]
    memoized = by_backend["inline+memo"]

    # The search is deterministic: backends change throughput, not results.
    assert process["best_ms"] == inline["best_ms"]
    assert memoized["best_ms"] == inline["best_ms"]
    assert process["evaluations"] == inline["evaluations"]

    # Memoization dedups repeated schedules: strictly fewer raw measurements.
    assert memoized["memo_hits"] > 0
    assert memoized["raw_measurements"] < inline["raw_measurements"]

    assert all(row["evals_per_sec"] > 0 for row in rows)
