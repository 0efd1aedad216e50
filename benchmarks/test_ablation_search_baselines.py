"""Ablation (§7 discussion): RL vs evolutionary / greedy / random schedule search."""

from repro.baselines import run_evolutionary_search, run_greedy_search, run_random_search
from repro.bench.experiments import format_table
from repro.triton import compile_spec, get_spec


def test_search_baselines(benchmark, simulator):
    compiled = compile_spec(get_spec("mmLeakyReLu"), scale="test")

    def run():
        return {
            "random": run_random_search(compiled, budget=32, simulator=simulator, seed=0),
            "greedy": run_greedy_search(compiled, budget=48, simulator=simulator),
            "evolutionary": run_evolutionary_search(
                compiled, population=4, generations=2, moves_per_individual=6, simulator=simulator
            ),
        }

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [
        {
            "method": name,
            "speedup": result.speedup,
            "evaluations": result.evaluations,
            "best_ms": result.best_time_ms,
        }
        for name, result in results.items()
    ]
    print("\nAblation — training-free schedule search baselines (mmLeakyReLu)")
    print(format_table(rows, floatfmt="{:.4f}"))
    # Every method starts from the same -O3 schedule and can only improve it.
    assert all(result.speedup >= 0.999 for result in results.values())
    # Greedy (the expert-analogue) finds a real improvement on this kernel.
    assert results["greedy"].speedup > 1.005
