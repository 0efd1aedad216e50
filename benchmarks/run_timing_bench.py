"""Measurement-throughput benchmark: candidate evaluations per second.

Times the production measurement path (decoded-program cache + event-driven
issue loop + launch reuse) against the frozen seed engine
(:mod:`repro.sim._reference_sm`) on the same host, and writes the numbers to
``BENCH_timing.json`` so the perf trajectory is tracked from this PR onward.

Four scenarios are timed per workload:

* **single_env** — the warm steady state of one search loop: one measurement
  service bound to the workload, one candidate measured per call (the shape
  of every PPO / random-search reward query).
* **greedy_batch** — greedy search's inner loop: every masker-valid
  single-move candidate of the -O3 schedule measured as one batch through an
  :class:`~repro.core.env.AssemblyGame`.
* **agent** — the PPO agent's own cost: milliseconds per PPO update, and
  agent moves per second (act + mask + step + embed), training with the
  ``ppo-short`` preset's settings on a memoizing measurement service.
* **store_audit** — the serving store's static audit of one hit: the median
  milliseconds of a seed's first audit (which builds its dependence graph)
  and of a repeat audit (which reads the graph pinned on the seed).
* **functional** — one whole-grid ``GPUSimulator.run`` (the output check's
  cost per run) against the frozen seed runner
  (:class:`~repro.sim._reference_sm.ReferenceFunctionalRunner`) on the same
  inputs.

Usage::

    PYTHONPATH=src python benchmarks/run_timing_bench.py [output.json]
"""

from __future__ import annotations

import json
import platform
import sys
import time
from pathlib import Path

import numpy as np

import repro.triton.kernels  # noqa: F401 - registers the workload specs
from repro.analysis.verify import ScheduleVerifier, verify_schedule
from repro.api.presets import preset_spec
from repro.core.env import AssemblyGame
from repro.core.trainer import CuAsmRLTrainer
from repro.sass import SassKernel
from repro.sim import GPUSimulator, create_measurement_service
from repro.sim._reference_sm import reference_measure, reference_run
from repro.sim.measure_service import MeasurementPolicy
from repro.triton.compiler import compile_spec
from repro.triton.spec import available_kernels, get_spec

#: Workloads carrying the ``timing-bench`` registry tag (memory- and
#: compute-bound representatives); tag a kernel to pull it into this bench.
BENCH_WORKLOADS = available_kernels(tags=("timing-bench",))
#: Scales tried, in order, when hunting a greedy batch with legal moves.
GREEDY_BATCH_SCALES = ("test", "bench")
DEFAULT_OUTPUT = Path(__file__).resolve().parents[1] / "BENCH_timing.json"


def _timed_loop(fn, seconds: float, warmup: int = 3) -> tuple[int, float]:
    """Run ``fn`` (returning cycles simulated per call) for ~``seconds``."""
    for _ in range(warmup):
        fn()
    calls = 0
    cycles = 0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        cycles += fn()
        calls += 1
    return calls, cycles / max(time.perf_counter() - start, 1e-9)


#: Alternating time slices per engine in :func:`bench_single_env`.
SINGLE_ENV_SLICES = 10


def _interleaved_rates(fns: dict, seconds: float) -> dict:
    """Calls/sec and cycles/sec of each fn, timed in alternating short slices.

    Shared hosts slow down for seconds at a time; alternating the engines
    every ``seconds / SINGLE_ENV_SLICES`` exposes both to the same slowdowns,
    so their ratio stays steady where two back-to-back windows would not.
    """
    slices = SINGLE_ENV_SLICES
    for fn in fns.values():
        for _ in range(3):
            fn()
    calls = dict.fromkeys(fns, 0)
    cycles = dict.fromkeys(fns, 0)
    elapsed = dict.fromkeys(fns, 0.0)
    for _ in range(slices):
        for name, fn in fns.items():
            start = time.perf_counter()
            while True:
                cycles[name] += fn()
                calls[name] += 1
                if time.perf_counter() - start >= seconds / slices:
                    break
            elapsed[name] += time.perf_counter() - start
    return {
        name: (calls[name] / elapsed[name], cycles[name] / elapsed[name]) for name in fns
    }


def bench_single_env(simulator, compiled, inputs, seconds: float = 2.0) -> dict:
    """Warm single-candidate measurement throughput, new engine vs seed engine.

    Each engine gets ``seconds`` in total, interleaved with the other's.
    """
    kernel = compiled.kernel
    service = create_measurement_service(
        simulator, compiled.grid, inputs, compiled.param_order
    )

    def measure_new() -> int:
        return service.measure_batch([kernel])[0].timing.cycles

    def measure_seed() -> int:
        timing = reference_measure(
            simulator, kernel, compiled.grid, inputs, compiled.param_order
        )
        return timing.timing.cycles

    rates = _interleaved_rates({"new": measure_new, "seed": measure_seed}, seconds)
    new_rate, new_cycles_per_sec = rates["new"]
    seed_rate, seed_cycles_per_sec = rates["seed"]
    return {
        "evals_per_sec": round(new_rate, 2),
        "cycles_simulated_per_sec": round(new_cycles_per_sec, 1),
        "seed_engine_evals_per_sec": round(seed_rate, 2),
        "seed_engine_cycles_simulated_per_sec": round(seed_cycles_per_sec, 1),
        "speedup_vs_seed_engine": round(new_rate / seed_rate, 3),
    }


def bench_functional(simulator, compiled, inputs, seconds: float = 2.0) -> dict:
    """Whole-grid functional runs, production runner vs the seed runner.

    Each runner gets ``seconds`` in total, interleaved with the other's, on
    the same kernel and inputs.
    """
    kernel, grid, order = compiled.kernel, compiled.grid, compiled.param_order

    def run_new() -> int:
        return simulator.run(kernel, grid, inputs, order).dynamic_instructions

    def run_seed() -> int:
        return reference_run(kernel, grid, inputs, order).dynamic_instructions

    rates = _interleaved_rates({"new": run_new, "seed": run_seed}, seconds)
    new_rate, new_instructions_per_sec = rates["new"]
    seed_rate = rates["seed"][0]
    return {
        "run_ms": round(1000.0 / new_rate, 3),
        "instructions_per_sec": round(new_instructions_per_sec, 1),
        "seed_engine_run_ms": round(1000.0 / seed_rate, 3),
        "speedup_vs_seed_engine": round(new_rate / seed_rate, 3),
    }


def greedy_candidates(game: AssemblyGame) -> list:
    """Every masker-valid single-move candidate of the current schedule."""
    kernel = game.current_kernel
    return [
        kernel.swap(*game.action_space_map.target_indices(kernel, int(action)))
        for action in np.flatnonzero(game.action_masks())
    ]


def bench_static_pruner(kernel, candidates: list) -> dict:
    """Legal-move-set size and overhead of the static pruner, per alias mode.

    A move is *strict-clean* when the full schedule audit (warnings included)
    returns zero findings.  The precise alias analysis dissolves warning-only
    V402 edges that the conservative over-approximation keeps, so its
    strict-clean move set is a superset — the growth this section reports.

    Overhead is billed the way the search pays it: the dependence graph (and
    the precise mode's alias context) is built *once* per seed and reused for
    every candidate the whole search generates, so it is reported separately
    as ``graph_build_seconds``; the recurring cost is the vectorized
    ``is_legal`` pre-filter, reported per candidate and as a percentage of
    measuring one candidate (``overhead_pct``).
    """
    build_start = time.perf_counter()
    precise = ScheduleVerifier(kernel, alias_mode="precise")
    graph_build = time.perf_counter() - build_start
    for candidate in candidates:  # warm any lazy state before timing
        precise.is_legal(candidate)
    reps = 0
    prune_start = time.perf_counter()
    while reps < 5 or time.perf_counter() - prune_start < 0.1:
        for candidate in candidates:
            precise.is_legal(candidate)
        reps += 1
    prune_elapsed = time.perf_counter() - prune_start
    prune_per_move = prune_elapsed / max(reps * len(candidates), 1)

    precise_clean = sum(
        not verify_result.diagnostics
        for verify_result in (precise.verify(candidate) for candidate in candidates)
    )
    conservative = ScheduleVerifier(kernel, alias_mode="conservative")
    conservative_clean = sum(
        not verify_result.diagnostics
        for verify_result in (conservative.verify(candidate) for candidate in candidates)
    )
    return {
        "masked_moves": len(candidates),
        "strict_clean_moves_precise": precise_clean,
        "strict_clean_moves_conservative": conservative_clean,
        "legal_move_growth": precise_clean - conservative_clean,
        "graph_build_seconds": round(graph_build, 4),
        "prune_seconds_per_move": round(prune_per_move, 6),
    }


def bench_greedy_batch(simulator, compiled, seconds: float = 2.0) -> dict:
    """Greedy-probe batch throughput through an AssemblyGame (warm)."""
    game = AssemblyGame(compiled, simulator)
    candidates = greedy_candidates(game)
    if not candidates:
        # Tightly scheduled small kernels can have no legal single move at
        # test scale; there is no batch to time then.
        game.close()
        return {"batch_size": 0, "evals_per_sec": 0.0, "cycles_simulated_per_sec": 0.0}

    def measure_batch() -> int:
        timings = game.measure_service.measure_batch(candidates)
        return sum(t.timing.cycles for t in timings)

    start = time.perf_counter()
    calls, cycles_per_sec = _timed_loop(measure_batch, seconds)
    elapsed = time.perf_counter() - start
    pruner = bench_static_pruner(game.initial_kernel, candidates)
    batch_seconds = elapsed / max(calls, 1)
    measure_per_move = batch_seconds / max(len(candidates), 1)
    pruner.update(
        {
            "batch_measure_seconds": round(batch_seconds, 4),
            "measure_seconds_per_move": round(measure_per_move, 6),
            "overhead_pct": round(
                100.0 * pruner["prune_seconds_per_move"] / max(measure_per_move, 1e-9), 2
            ),
        }
    )
    game.close()
    return {
        "batch_size": len(candidates),
        "evals_per_sec": round(calls * len(candidates) / elapsed, 2),
        "cycles_simulated_per_sec": round(cycles_per_sec, 1),
        "static_pruner": pruner,
    }


def bench_greedy_batch_with_fallback(
    simulator, spec, seconds: float = 2.0, scales: tuple[str, ...] = GREEDY_BATCH_SCALES
) -> dict:
    """Greedy-batch throughput at the first scale with a legal move.

    Tightly scheduled kernels (softmax) have no masker-valid single move at
    some scales; rather than silently timing an empty batch, try each scale
    in order and record which one was measured — or an explicit skip reason
    when no scale has a legal move.
    """
    for scale in scales:
        result = bench_greedy_batch(simulator, compile_spec(spec, scale=scale), seconds)
        if result["batch_size"] > 0:
            result["scale"] = scale
            return result
    return {
        "skipped": "no masker-valid single move at any tried scale",
        "scales_tried": list(scales),
        "batch_size": 0,
    }


#: The optimization preset whose PPO settings :func:`bench_agent` trains with.
AGENT_PRESET = "ppo-short"


def bench_agent(simulator, compiled, seconds: float = 2.0) -> dict:
    """PPO agent throughput: ms per update and moves/s outside the updates.

    One warm trainer runs ``train`` with the preset's budget until
    ``seconds`` pass.  Its measurement service memoizes schedules, so once a
    schedule has been simulated a revisit costs a lookup and the agent's own
    work dominates.  Moves/s divides the moves by the training time spent
    outside ``PPOTrainer._update``: act, mask, step (measurement included)
    and embed.
    """
    config = preset_spec(AGENT_PRESET).config
    trainer = CuAsmRLTrainer(
        compiled,
        simulator,
        ppo_config=config.ppo_config(),
        episode_length=config.episode_length,
        policy=MeasurementPolicy(memoize=True),
    )
    agent = trainer.agent
    update = agent._update
    timed = {"seconds": 0.0, "updates": 0}

    def timed_update(buffer):
        start = time.perf_counter()
        stats = update(buffer)
        timed["seconds"] += time.perf_counter() - start
        timed["updates"] += 1
        return stats

    agent._update = timed_update
    try:
        agent.train(config.train_timesteps)  # warm-up: first visits simulate
        timed.update(seconds=0.0, updates=0)
        first_move = agent.global_step
        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            agent.train(config.train_timesteps)
        elapsed = time.perf_counter() - start
    finally:
        trainer.env.close()
    moves = agent.global_step - first_move
    return {
        "preset": AGENT_PRESET,
        "moves": moves,
        "updates": timed["updates"],
        "update_ms": round(1000.0 * timed["seconds"] / timed["updates"], 3),
        "moves_per_sec": round(moves / (elapsed - timed["seconds"]), 1),
    }


#: Audits timed per side in :func:`bench_store_audit`.
STORE_AUDIT_ROUNDS = 15


def bench_store_audit(kernel: SassKernel, rounds: int = STORE_AUDIT_ROUNDS) -> dict:
    """Median ms of a store-hit audit on a new seed object and on a pinned one.

    The serving store audits every hit with ``verify_schedule`` against the
    stored seed.  A seed object's first audit builds its dependence graph and
    pins it; a repeat audit reads the pin and only maps and checks the
    candidate, here the seed's own schedule.  First and repeat audits
    alternate, so a slow spell of the host hits both.
    """

    def audit_ms(seed: SassKernel) -> float:
        start = time.perf_counter()
        verify_schedule(seed, kernel, include_warnings=False)
        return 1000.0 * (time.perf_counter() - start)

    pinned = SassKernel(kernel.lines, kernel.metadata)
    audit_ms(pinned)
    first, repeat = [], []
    for _ in range(rounds):
        first.append(audit_ms(SassKernel(kernel.lines, kernel.metadata)))
        repeat.append(audit_ms(pinned))
    first_ms = float(np.median(first))
    repeat_ms = float(np.median(repeat))
    return {
        "first_ms": round(first_ms, 3),
        "repeat_ms": round(repeat_ms, 3),
        "first_over_repeat": round(first_ms / repeat_ms, 2),
    }


def run(output_path: Path | str = DEFAULT_OUTPUT, seconds: float = 2.0) -> dict:
    simulator = GPUSimulator()
    workloads = {}
    for name in BENCH_WORKLOADS:
        spec = get_spec(name)
        compiled = compile_spec(spec, scale="test")
        inputs = compiled.make_inputs(0)
        workloads[name] = {
            "single_env": bench_single_env(simulator, compiled, inputs, seconds),
            "greedy_batch": bench_greedy_batch_with_fallback(simulator, spec, seconds),
            "agent": bench_agent(simulator, compiled, seconds),
            "store_audit": bench_store_audit(compiled.kernel),
            "functional": bench_functional(simulator, compiled, inputs, seconds),
        }
    report = {
        "benchmark": "timing_engine_throughput",
        "scale": "test",
        "invariant": "timings are bit-identical across engines and backends",
        "host": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "processor": platform.processor() or platform.machine(),
        },
        "workloads": workloads,
    }
    output_path = Path(output_path)
    output_path.write_text(json.dumps(report, indent=2) + "\n")
    return report


def main(argv: list[str]) -> int:
    output = Path(argv[1]) if len(argv) > 1 else DEFAULT_OUTPUT
    report = run(output)
    for name, result in report["workloads"].items():
        single = result["single_env"]
        batch = result["greedy_batch"]
        batch_note = (
            f"greedy batch skipped ({batch['skipped']})"
            if "skipped" in batch
            else f"greedy batch {batch['evals_per_sec']:.1f} evals/s @{batch['scale']}"
        )
        pruner = batch.get("static_pruner")
        if pruner:
            batch_note += (
                f", legal moves {pruner['strict_clean_moves_conservative']}"
                f"->{pruner['strict_clean_moves_precise']} "
                f"(pruner overhead {pruner['overhead_pct']:.1f}%)"
            )
        agent = result["agent"]
        audit = result["store_audit"]
        functional = result["functional"]
        print(
            f"{name}: {single['evals_per_sec']:.1f} evals/s "
            f"({single['speedup_vs_seed_engine']:.2f}x vs seed engine), {batch_note}; "
            f"agent {agent['update_ms']:.2f} ms/update, {agent['moves_per_sec']:.0f} moves/s; "
            f"store audit {audit['first_ms']:.2f} ms first, {audit['repeat_ms']:.2f} ms repeat; "
            f"functional run {functional['run_ms']:.2f} ms "
            f"({functional['speedup_vs_seed_engine']:.2f}x vs seed engine)"
        )
    print(f"wrote {output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
