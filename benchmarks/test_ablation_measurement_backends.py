"""Ablation: measurement-service memoization (inline vs inline + memo).

The §3.6 measurement protocol is the bottleneck of every search strategy;
this entry records evaluations/sec of the greedy search with and without
memoization and checks the memo is semantics-preserving: both rows find the
same best schedule, and memoization strictly reduces raw simulator
measurements.
"""

from repro.bench.experiments import format_table, measurement_backend_throughput


def test_measurement_backend_throughput(benchmark, simulator):
    rows = benchmark.pedantic(
        lambda: measurement_backend_throughput(simulator=simulator),
        rounds=1,
        iterations=1,
    )
    print("\nAblation — measurement memoization (greedy search, mmLeakyReLu)")
    print(format_table(rows, floatfmt="{:.4f}"))

    by_backend = {row["backend"]: row for row in rows}
    inline = by_backend["inline"]
    memoized = by_backend["inline+memo"]

    # The search is deterministic: memoization changes throughput, not results.
    assert memoized["best_ms"] == inline["best_ms"]
    assert memoized["evaluations"] == inline["evaluations"]

    # Memoization dedups repeated schedules: strictly fewer raw measurements.
    assert memoized["memo_hits"] > 0
    assert memoized["raw_measurements"] < inline["raw_measurements"]

    assert all(row["evals_per_sec"] > 0 for row in rows)
