"""One function per table / figure of the paper's evaluation section.

Every function returns plain Python data (rows, series) that the benchmark
harness under ``benchmarks/`` prints, so the output can be compared against
the paper's reported numbers.  Absolute values differ (the GPU is a
simulator), but the *shape* of each result is what the reproduction checks:
who wins, by roughly what factor, and how the fractions split.

By default the experiments run at a reduced scale (``scale="test"`` shapes,
short RL training budgets) so the whole suite completes in minutes on a
laptop; pass ``scale="bench"``/``"paper"`` and larger budgets to push toward
the paper's setup.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import geometric_mean

from repro.analysis.stall_inference import infer_stall_counts
from repro.api import CacheConfig, MeasurementPolicy, OptimizationConfig, Session
from repro.arch.latency_table import default_stall_table
from repro.baselines.vendor import VendorBaselines
from repro.microbench.clockbased import clock_based_stall_estimate
from repro.microbench.harness import available_opcodes, build_stall_table
from repro.rl.ppo import PPOConfig
from repro.sim.gpu import GPUSimulator
from repro.triton.compiler import compile_spec
from repro.triton.spec import available_kernels, get_spec

#: Experiment sessions never write the deploy cache.
_NO_CACHE = CacheConfig(enabled=False)


def _session(
    simulator: GPUSimulator | None,
    *,
    scale: str = "test",
    episode_length: int = 16,
    train_timesteps: int = 96,
    seed: int = 0,
    autotune: bool = False,
    verify: bool = False,
    ppo: PPOConfig | None = None,
    trace: bool = False,
) -> Session:
    """A cache-less Session configured for one experiment."""
    config = OptimizationConfig(
        strategy="ppo",
        scale=scale,
        episode_length=episode_length,
        train_timesteps=train_timesteps,
        seed=seed,
        autotune=autotune,
        verify=verify,
        ppo=ppo,
        trace=trace,
    )
    return Session(gpu=simulator, config=config, cache=_NO_CACHE)


#: The paper's Figure 6 presentation order for the Table 2 workloads.
_FIGURE6_ORDER = ("bmm", "fused_ff", "flash-attention", "mmLeakyReLu", "softmax", "rmsnorm")

#: The evaluated kernels: every spec carrying the ``table2`` registry tag,
#: in Figure 6 order.  The registry is the source of truth — a kernel tagged
#: ``table2`` without a slot in the presentation order is a hard error here,
#: not a silently reordered table.
EVALUATED_KERNELS = tuple(
    sorted(available_kernels(tags=("table2",)), key=_FIGURE6_ORDER.index)
)


def format_table(rows: list[dict], *, floatfmt: str = "{:.3f}") -> str:
    """Render a list of dict rows as an aligned text table."""
    if not rows:
        return "(empty)"
    columns = list(rows[0].keys())
    rendered = [[_fmt_cell(row.get(col), floatfmt) for col in columns] for row in rows]
    widths = [max(len(col), *(len(r[i]) for r in rendered)) for i, col in enumerate(columns)]
    lines = ["  ".join(col.ljust(widths[i]) for i, col in enumerate(columns))]
    lines.append("  ".join("-" * w for w in widths))
    for r in rendered:
        lines.append("  ".join(r[i].ljust(widths[i]) for i in range(len(columns))))
    return "\n".join(lines)


def _fmt_cell(value, floatfmt: str) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return floatfmt.format(value)
    return str(value)


# ---------------------------------------------------------------------------
# Table 1 / §5.2 / §4.3
# ---------------------------------------------------------------------------
def table1_stall_counts(opcodes=None, simulator: GPUSimulator | None = None) -> list[dict]:
    """Table 1: stall counts of fixed-latency instructions from microbenchmarks."""
    simulator = simulator or GPUSimulator()
    measured = build_stall_table(opcodes or available_opcodes(), simulator=simulator)
    builtin = default_stall_table()
    rows = []
    for opcode, stall in measured.as_rows():
        rows.append(
            {
                "instruction": opcode,
                "measured_stall": stall,
                "table1_stall": builtin.lookup(opcode),
            }
        )
    return rows


def section43_clock_vs_dependency(simulator: GPUSimulator | None = None) -> dict:
    """§4.3: clock-based vs dependency-based measurement of IADD3."""
    simulator = simulator or GPUSimulator()
    clock = clock_based_stall_estimate("IADD3", simulator=simulator)
    dependency = build_stall_table(["IADD3"], simulator=simulator).lookup("IADD3")
    return {
        "clock_based_cycles_per_instruction": clock.cycles_per_instruction,
        "dependency_based_stall": dependency,
        "underestimates": clock.cycles_per_instruction < dependency,
    }


# ---------------------------------------------------------------------------
# Table 2
# ---------------------------------------------------------------------------
def table2_workloads(scale: str = "paper") -> list[dict]:
    """Table 2: evaluated kernels and their input configurations."""
    rows = []
    for name in EVALUATED_KERNELS:
        spec = get_spec(name)
        rows.append(
            {
                "kernel": name,
                "bound": "compute" if spec.compute_bound else "memory",
                "configuration": str(spec.shapes(scale)),
            }
        )
    return rows


# ---------------------------------------------------------------------------
# Figure 6 / §5.3
# ---------------------------------------------------------------------------
@dataclass
class Figure6Row:
    """Normalized throughput of one kernel (Triton = 1.0)."""

    kernel: str
    triton: float = 1.0
    cuasmrl: float = 1.0
    torch: float | None = None
    reference: float | None = None
    cutlass: float | None = None
    triton_ms: float = 0.0
    cuasmrl_ms: float = 0.0

    def as_dict(self) -> dict:
        return {
            "kernel": self.kernel,
            "Triton": self.triton,
            "CuAsmRL": self.cuasmrl,
            "Torch": self.torch,
            "Reference": self.reference,
            "Cutlass": self.cutlass,
            "Triton_ms": self.triton_ms,
            "CuAsmRL_ms": self.cuasmrl_ms,
        }


def figure6_throughput(
    kernels=EVALUATED_KERNELS,
    *,
    scale: str = "test",
    train_timesteps: int = 96,
    episode_length: int = 16,
    include_vendor: bool = True,
    seed: int = 0,
    simulator: GPUSimulator | None = None,
) -> list[Figure6Row]:
    """Figure 6: normalized kernel throughput of CuAsmRL vs Triton vs baselines.

    Throughput is normalized to Triton (= the autotuned ``-O3`` schedule); a
    value above 1 means faster than Triton.
    """
    session = _session(
        simulator,
        scale=scale,
        episode_length=episode_length,
        train_timesteps=train_timesteps,
        seed=seed,
        autotune=True,
        verify=True,
        ppo=PPOConfig(num_steps=episode_length, seed=seed),
    )
    vendor = VendorBaselines(session.simulator) if include_vendor else None
    rows: list[Figure6Row] = []
    for name in kernels:
        spec = get_spec(name)
        compiled = session.compile(spec)
        report = session.optimize_compiled(compiled)
        triton_ms = report.baseline_time_ms
        cuasmrl_ms = report.best_time_ms
        row = Figure6Row(
            kernel=name,
            triton=1.0,
            cuasmrl=triton_ms / cuasmrl_ms if cuasmrl_ms else 1.0,
            triton_ms=triton_ms,
            cuasmrl_ms=cuasmrl_ms,
        )
        if vendor is not None:
            timings = vendor.timings_for(spec, compiled)
            if timings.torch_ms:
                row.torch = triton_ms / timings.torch_ms
            if timings.reference_ms:
                row.reference = triton_ms / timings.reference_ms
            if timings.cutlass_ms:
                row.cutlass = triton_ms / timings.cutlass_ms
        rows.append(row)
    return rows


def figure6_summary(rows: list[Figure6Row]) -> dict:
    """§5.3 headline numbers: geometric-mean and maximum speedup over Triton."""
    speedups = [row.cuasmrl for row in rows if row.cuasmrl > 0]
    return {
        "geomean_speedup": geometric_mean(speedups) if speedups else 1.0,
        "max_speedup": max(speedups) if speedups else 1.0,
        "min_speedup": min(speedups) if speedups else 1.0,
    }


# ---------------------------------------------------------------------------
# Measurement-service ablation: evaluations/sec with and without memoization
# ---------------------------------------------------------------------------
def measurement_backend_throughput(
    kernel: str = "mmLeakyReLu",
    *,
    scale: str = "test",
    search_budget: int = 48,
    episode_length: int = 16,
    simulator: GPUSimulator | None = None,
) -> list[dict]:
    """Greedy-search measurement throughput, inline and inline + memo.

    One row per configuration: evaluations/sec of the search loop, raw
    simulator measurements actually issued, and memoization hits.  The
    search itself is deterministic, so both rows must land on the same
    ``best_ms`` — memoization only changes how often the simulator is
    consulted.
    """
    config = OptimizationConfig(
        strategy="greedy",
        scale=scale,
        search_budget=search_budget,
        episode_length=episode_length,
        autotune=False,
        verify=False,
    )
    policies = [
        ("inline", MeasurementPolicy()),
        ("inline+memo", MeasurementPolicy(memoize=True)),
    ]
    rows = []
    for name, policy in policies:
        session = Session(gpu=simulator, config=config, measurement=policy, cache=_NO_CACHE)
        report = session.optimize(kernel)
        stats = report.details.get("measurement", {})
        rows.append(
            {
                "backend": name,
                "best_ms": report.best_time_ms,
                "evaluations": report.evaluations,
                "elapsed_s": report.details["elapsed_s"],
                "evals_per_sec": report.details["evaluations_per_sec"],
                "raw_measurements": stats.get("measured"),
                "memo_hits": stats.get("memo_hits"),
            }
        )
    return rows


# ---------------------------------------------------------------------------
# Figure 7 / §5.2
# ---------------------------------------------------------------------------
def figure7_stall_resolution(kernels=EVALUATED_KERNELS, *, scale: str = "test") -> dict:
    """Figure 7: how stall-count dependences are resolved (db / inferred / denylist)."""
    per_kernel = []
    totals = {"db": 0, "infer-only": 0, "denylist": 0}
    for name in kernels:
        spec = get_spec(name)
        compiled = compile_spec(spec, scale=scale)
        result = infer_stall_counts(compiled.kernel)
        counts = result.resolution_counts()
        for key in totals:
            totals[key] += counts.get(key, 0)
        fractions = result.resolution_fractions()
        per_kernel.append({"kernel": name, **{k: round(v, 3) for k, v in fractions.items()}})
    grand_total = sum(totals.values()) or 1
    average = {key: value / grand_total for key, value in totals.items()}
    return {"per_kernel": per_kernel, "average": average}


# ---------------------------------------------------------------------------
# Figure 8 / §5.5
# ---------------------------------------------------------------------------
def figure8_hyperparameter_sweep(
    kernel: str = "mmLeakyReLu",
    *,
    scale: str = "test",
    train_timesteps: int = 96,
    episode_length: int = 16,
    learning_rates=(2.5e-4, 1e-3, 1e-4),
    batch_sizes=(16, 8),
    simulator: GPUSimulator | None = None,
) -> list[dict]:
    """Figure 8: episodic returns under different learning rates / batch sizes.

    The first (learning-rate, batch-size) combination is the default setting;
    the paper's claim is that the default converges to the best return.
    """
    session = _session(
        simulator, scale=scale, episode_length=episode_length, train_timesteps=train_timesteps
    )
    compiled = session.compile(kernel)
    rows = []
    for lr in learning_rates:
        for batch in batch_sizes:
            ppo = PPOConfig(learning_rate=lr, num_steps=batch, seed=0)
            sweep = session.with_config(session.config.replace(ppo=ppo))
            report = sweep.optimize_compiled(compiled)
            history = report.details["history"]
            steps, returns = history.returns_series()
            rows.append(
                {
                    "learning_rate": lr,
                    "batch_size": batch,
                    "is_default": lr == 2.5e-4 and batch == batch_sizes[0],
                    "best_return": history.best_return(),
                    "final_return": history.final_return(),
                    "returns_series": list(zip(steps, returns)),
                    "speedup": report.speedup,
                }
            )
    return rows


# ---------------------------------------------------------------------------
# Table 3 and Figures 10/11 / §5.4
# ---------------------------------------------------------------------------
def table3_workload_analysis(
    kernel: str = "mmLeakyReLu",
    *,
    scale: str = "test",
    train_timesteps: int = 96,
    episode_length: int = 16,
    simulator: GPUSimulator | None = None,
) -> dict:
    """Table 3: compute / memory workload analysis of CuAsmRL vs Triton."""
    session = _session(
        simulator, scale=scale, episode_length=episode_length, train_timesteps=train_timesteps
    )
    compiled = session.compile(kernel)
    report = session.optimize_compiled(compiled)
    best_kernel = report.artifact.result.best_kernel
    inputs = compiled.make_inputs(0)
    gpu = session.simulator
    triton_profile = gpu.profile(compiled.kernel, compiled.grid, inputs, compiled.param_order)
    cuasmrl_profile = gpu.profile(best_kernel, compiled.grid, inputs, compiled.param_order)
    return {
        "kernel": kernel,
        "CuAsmRL": cuasmrl_profile.workload_analysis_rows(),
        "Triton": triton_profile.workload_analysis_rows(),
        "CuAsmRL_memory_chart": cuasmrl_profile.memory_chart(),
        "Triton_memory_chart": triton_profile.memory_chart(),
        "speedup": report.speedup,
    }


def figure10_11_memory_chart(**kwargs) -> dict:
    """Figures 10/11: the memory-chart part of the Table 3 analysis."""
    analysis = table3_workload_analysis(**kwargs)
    return {
        "CuAsmRL": analysis["CuAsmRL_memory_chart"],
        "Triton": analysis["Triton_memory_chart"],
    }


# ---------------------------------------------------------------------------
# Figure 12 / §5.5
# ---------------------------------------------------------------------------
def figure12_training_stats(
    kernel: str = "mmLeakyReLu",
    *,
    scale: str = "test",
    train_timesteps: int = 128,
    episode_length: int = 16,
    simulator: GPUSimulator | None = None,
) -> dict:
    """Figure 12: approximate KL divergence and policy entropy over training."""
    session = _session(
        simulator, scale=scale, episode_length=episode_length, train_timesteps=train_timesteps
    )
    report = session.optimize_compiled(session.compile(kernel))
    history = report.details["history"]
    steps_kl, kl = history.kl_series()
    steps_ent, entropy = history.entropy_series()
    return {
        "kernel": kernel,
        "kl": list(zip(steps_kl, kl)),
        "entropy": list(zip(steps_ent, entropy)),
    }


# ---------------------------------------------------------------------------
# Figures 9 and 13 / §5.7
# ---------------------------------------------------------------------------
def figure9_13_optimization_moves(
    kernel: str = "mmLeakyReLu",
    *,
    scale: str = "test",
    train_timesteps: int = 96,
    episode_length: int = 16,
    simulator: GPUSimulator | None = None,
) -> dict:
    """Figures 9/13: trace the reorderings the trained agent applies."""
    session = _session(
        simulator,
        scale=scale,
        episode_length=episode_length,
        train_timesteps=train_timesteps,
        trace=True,
    )
    report = session.optimize_compiled(session.compile(kernel))
    moves = report.details["moves"]
    significant = max(moves, key=lambda m: m.reward, default=None)
    return {
        "kernel": kernel,
        "speedup": report.speedup,
        "num_moves": len(moves),
        "moves": [
            {
                "step": m.step,
                "direction": m.direction,
                "moved": m.moved_instruction,
                "swapped_with": m.swapped_with,
                "reward": m.reward,
            }
            for m in moves
        ],
        "most_significant": None
        if significant is None
        else {
            "moved": significant.moved_instruction,
            "swapped_with": significant.swapped_with,
            "reward": significant.reward,
        },
    }
