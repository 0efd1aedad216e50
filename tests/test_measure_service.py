"""Tests for the measurement service and the per-schedule noise streams."""

import numpy as np
import pytest

from repro.api import CacheConfig, MeasurementPolicy, OptimizationConfig, Session
from repro.baselines.search import run_greedy_search
from repro.core.env import AssemblyGame
from repro.errors import ExecutionError
from repro.sass import KernelMetadata, SassKernel, parse_line
from repro.sim import (
    GPUSimulator,
    GridConfig,
    KernelTiming,
    MeasurementConfig,
    create_measurement_service,
)
from repro.triton import compile_spec, get_spec
from repro.triton.spec import available_kernels

ADD_ONE = """
[B------:R-:W1:-:S01] S2R R0, SR_CTAID.X ;
[B------:R-:W-:-:S04] MOV R1, 0x200 ;
[B-1----:R-:W-:-:S05] IMAD R2, R0, R1, RZ ;
[B------:R-:W-:-:S04] MOV R4, c[0x0][0x160] ;
[B------:R-:W-:-:S04] MOV R6, c[0x0][0x168] ;
[B------:R-:W-:-:S05] IADD3 R8, R4, R2, RZ ;
[B------:R-:W-:-:S05] IADD3 R10, R6, R2, RZ ;
[B------:R-:W0:-:S02] LDG.E.128 R12, [R8.64] ;
[B------:R-:W2:-:S01] I2F R22, RZ ;
[B0-2---:R-:W-:-:S04] FADD R16, R12, 1.0 ;
[B------:R0:W-:-:S02] STG.E.128 [R10.64], R16 ;
[B------:R-:W-:-:S05] EXIT ;
"""


@pytest.fixture(scope="module")
def simulator():
    return GPUSimulator()


@pytest.fixture(scope="module")
def compiled():
    return compile_spec(get_spec("mmLeakyReLu"), scale="test")


def _candidates(compiled, simulator, count=4):
    """The -O3 schedule plus a few single-move mutations of it."""
    env = AssemblyGame(compiled, simulator, episode_length=8)
    base = env.initial_kernel
    kernels = [base]
    for action in np.flatnonzero(env.action_masks())[: count - 1]:
        kernels.append(base.swap(*env.action_space_map.target_indices(base, int(action))))
    return kernels


def test_every_bundled_line_parses_back():
    """A schedule's identity is its rendered listing, so every line of every
    bundled kernel must parse back to an equal line."""
    for name in available_kernels():
        for line in compile_spec(get_spec(name), scale="test").kernel.lines:
            assert parse_line(line.render()) == line


# ---------------------------------------------------------------------------
# Memoization dedups repeated schedules (counting simulator stub)
# ---------------------------------------------------------------------------
class CountingSimulator:
    """Simulator stub that counts raw measurements (new launch-reuse shape)."""

    def __init__(self):
        self.calls = 0
        self.launches_built = 0

    def build_launch(self, grid, tensors, param_order, scalars=None):
        self.launches_built += 1
        return object()  # opaque reusable launch token

    def measure_with_launch(self, kernel, launch, measurement=None):
        self.calls += 1
        return KernelTiming(
            kernel_name=kernel.metadata.name,
            block_cycles=100,
            waves=1,
            total_cycles=100,
            time_ms=1.0,
            timing=None,
        )


def test_memoized_backend_dedups_repeated_schedules():
    kernel_a = SassKernel.from_text(ADD_ONE, KernelMetadata(name="addone", num_warps=1))
    kernel_b = kernel_a.swap(3, 4)
    # Same schedule content as kernel_a, but a distinct object.
    kernel_a_clone = SassKernel.from_text(ADD_ONE, KernelMetadata(name="addone", num_warps=1))
    assert kernel_a_clone.content_digest() == kernel_a.content_digest()
    assert kernel_b.content_digest() != kernel_a.content_digest()

    stub = CountingSimulator()
    service = create_measurement_service(
        stub, GridConfig((1, 1, 1), 1), {}, [], MeasurementPolicy(memoize=True)
    )
    timings = service.measure_batch([kernel_a, kernel_b, kernel_a_clone, kernel_a, kernel_b])
    assert stub.calls == 2  # one raw measurement per unique schedule
    assert service.stats.measured == 2
    assert service.stats.memo_hits == 3
    assert service.stats.submitted == 5
    assert timings[0] is timings[2] is timings[3]
    assert timings[1] is timings[4]


def test_shared_memo_through_service_scopes_and_dedups():
    from repro.pool import SharedMemoTable
    from repro.sim import workload_memo_scope

    kernel = SassKernel.from_text(ADD_ONE, KernelMetadata(name="addone", num_warps=1))
    table = SharedMemoTable()
    stub_a, stub_b = CountingSimulator(), CountingSimulator()
    scope = workload_memo_scope("A100", "addone", {"n": 8}, {"warps": 1})

    def service(stub, owner):
        return create_measurement_service(
            stub, GridConfig((1, 1, 1), 1), {}, [],
            MeasurementPolicy(shared_memo=table, memo_owner=owner), memo_scope=scope,
        )

    first = service(stub_a, "w0")
    second = service(stub_b, "w1")
    timing = first.measure(kernel)
    # The sibling service answers from the shared table: no raw measurement.
    assert second.measure(kernel) is timing
    assert stub_a.calls == 1 and stub_b.calls == 0
    assert table.stats.cross_worker_hits == 1

    # A different workload scope never aliases, even for the same schedule.
    other = create_measurement_service(
        stub_b, GridConfig((1, 1, 1), 1), {}, [],
        MeasurementPolicy(shared_memo=table, memo_owner="w1"),
        memo_scope=workload_memo_scope("A30", "addone", {"n": 8}, {"warps": 1}),
    )
    other.measure(kernel)
    assert stub_b.calls == 1

    with pytest.raises(ValueError, match="memo_scope"):
        create_measurement_service(
            stub_a, GridConfig((1, 1, 1), 1), {}, [], MeasurementPolicy(shared_memo=table)
        )


def test_workload_memo_scope_sensitivity():
    from repro.sim import MeasurementConfig, workload_memo_scope

    base = workload_memo_scope("A100", "bmm", {"m": 16}, {"warps": 4})
    assert base == workload_memo_scope("A100", "bmm", {"m": 16}, {"warps": 4})
    assert base != workload_memo_scope("A30", "bmm", {"m": 16}, {"warps": 4})
    assert base != workload_memo_scope("A100", "bmm", {"m": 32}, {"warps": 4})
    assert base != workload_memo_scope("A100", "bmm", {"m": 16}, {"warps": 8})
    noisy = MeasurementConfig(noise_std=0.01, seed=7)
    assert base != workload_memo_scope("A100", "bmm", {"m": 16}, {"warps": 4}, noisy)
    assert base != workload_memo_scope("A100", "bmm", {"m": 16}, {"warps": 4}, input_seed=1)


def test_memo_table_is_bounded():
    kernel_a = SassKernel.from_text(ADD_ONE, KernelMetadata(name="addone", num_warps=1))
    kernel_b = kernel_a.swap(3, 4)
    stub = CountingSimulator()
    service = create_measurement_service(
        stub, GridConfig((1, 1, 1), 1), {}, [], MeasurementPolicy(memoize=True)
    )
    service.table.max_entries = 1
    service.measure_batch([kernel_a, kernel_b, kernel_a])  # b evicts a; a re-measures
    assert stub.calls == 3
    assert service.stats.memo_hits == 0
    service.measure_batch([kernel_a])  # still resident after the re-measure
    assert stub.calls == 3
    assert service.stats.memo_hits == 1


def test_failing_candidate_raises_on_every_measure_and_leaves_no_memo_entry(simulator):
    # The load reads its address from a register nothing wrote: out of bounds.
    faulty = SassKernel.from_text(
        ADD_ONE.replace("[R8.64]", "[R30.64]"), KernelMetadata(name="addone", num_warps=1)
    )
    x = np.zeros((2, 256), dtype=np.float16)
    service = create_measurement_service(
        simulator, GridConfig((2, 1, 1), 1), {"x": x, "y": np.zeros_like(x)}, ["x", "y"],
        MeasurementPolicy(memoize=True),
    )
    errors = []
    for _ in range(2):
        with pytest.raises(ExecutionError, match="out-of-bounds") as excinfo:
            service.measure(faulty)
        errors.append((type(excinfo.value), excinfo.value.args))
    assert errors[0] == errors[1]
    assert len(service.table) == 0
    assert service.stats.as_dict() == {"submitted": 2, "measured": 2, "memo_hits": 0, "pruned": 0}


# ---------------------------------------------------------------------------
# Noise streams: independent across schedules, reproducible per (seed, schedule)
# ---------------------------------------------------------------------------
def test_noise_streams_differ_across_candidates_and_reproduce():
    sim = GPUSimulator()
    kernel_a = SassKernel.from_text(ADD_ONE, KernelMetadata(name="addone", num_warps=1))
    kernel_b = kernel_a.swap(3, 4)
    grid = GridConfig((2, 1, 1), 1)
    x = np.zeros((2, 256), dtype=np.float16)
    tensors = {"x": x, "y": np.zeros_like(x)}
    noisy = MeasurementConfig(noise_std=0.01, seed=7)

    def factor(kernel, measurement):
        clean = sim.measure(kernel, grid, tensors, ["x", "y"]).time_ms
        observed = sim.measure(kernel, grid, tensors, ["x", "y"], measurement=measurement).time_ms
        return observed / clean

    # Reproducible for a fixed (seed, schedule) pair...
    assert factor(kernel_a, noisy) == factor(kernel_a, noisy)
    # ...independent across distinct schedules under the same seed...
    assert factor(kernel_a, noisy) != factor(kernel_b, noisy)
    # ...and re-seeded streams differ for the same schedule.
    assert factor(kernel_a, noisy) != factor(kernel_a, MeasurementConfig(noise_std=0.01, seed=8))


# ---------------------------------------------------------------------------
# Greedy search on the service: batching, commit accounting, episode ends
# ---------------------------------------------------------------------------
def test_greedy_counts_committing_steps_and_stays_in_episode(compiled, simulator):
    result = run_greedy_search(
        compiled, budget=40, episode_length=2, simulator=simulator,
        policy=MeasurementPolicy(memoize=True),
    )
    # Every history entry is a counted evaluation (probes + committing steps).
    assert result.evaluations == len(result.history)
    assert result.measurement_stats["memo_hits"] > 0
    # episode_length=2 caps the number of commits: at most 2 improving moves
    # before truncation ends the climb, however large the budget.
    assert result.speedup >= 0.999


def test_greedy_memoized_matches_inline_with_fewer_raw_measurements(simulator):
    config = OptimizationConfig(
        strategy="greedy", scale="test", search_budget=24, episode_length=8,
        autotune=False, verify=False,
    )
    no_cache = CacheConfig(enabled=False)
    inline_report = Session(gpu=simulator, config=config, cache=no_cache).optimize("mmLeakyReLu")
    memo_report = Session(
        gpu=simulator,
        config=config,
        cache=no_cache,
        measurement=MeasurementPolicy(memoize=True),
    ).optimize("mmLeakyReLu")

    assert memo_report.best_time_ms == inline_report.best_time_ms
    assert memo_report.evaluations == inline_report.evaluations
    inline_stats = inline_report.details["measurement"]
    memo_stats = memo_report.details["measurement"]
    assert memo_stats["memo_hits"] > 0
    assert memo_stats["measured"] < inline_stats["measured"]
    assert inline_report.details["evaluations_per_sec"] > 0


# ---------------------------------------------------------------------------
# AssemblyGame public candidate-measurement API
# ---------------------------------------------------------------------------
def test_env_measure_candidates_is_public_and_consistent(compiled, simulator):
    env = AssemblyGame(compiled, simulator, episode_length=4)
    env.reset()
    assert env.current_time_ms == env.baseline_time_ms
    valid = np.flatnonzero(env.action_masks())
    base = env.current_kernel
    kernels = [base.swap(*env.action_space_map.target_indices(base, int(a))) for a in valid[:3]]
    batch = env.measure_candidates(kernels)
    single = [env.measure_candidate(kernel) for kernel in kernels]
    assert batch == single
    assert env.measurement_stats.measured >= 2 * len(kernels)
    env.close()


# ---------------------------------------------------------------------------
# Cancellation checkpoints and progress callbacks (the serve-layer hooks)
# ---------------------------------------------------------------------------
def test_checkpoint_aborts_between_candidates(compiled, simulator):
    kernels = _candidates(compiled, simulator)
    calls = []

    def checkpoint():
        calls.append(len(calls))
        if len(calls) > 2:
            raise RuntimeError("cancelled")

    service = create_measurement_service(
        simulator, compiled.grid, compiled.make_inputs(0), compiled.param_order,
        MeasurementPolicy(checkpoint=checkpoint),
    )
    with pytest.raises(RuntimeError, match="cancelled"):
        service.measure_batch(kernels)
    # The batch stopped part-way: the batch-level checkpoint plus one per
    # submission, never the whole batch.
    assert service.stats.measured < len(kernels)


def test_checkpoint_fires_on_memo_hits_too(compiled, simulator):
    kernels = _candidates(compiled, simulator, count=2)
    cancelled = []

    def checkpoint():
        if cancelled:
            raise RuntimeError("cancelled")

    service = create_measurement_service(
        simulator, compiled.grid, compiled.make_inputs(0), compiled.param_order,
        MeasurementPolicy(memoize=True, checkpoint=checkpoint),
    )
    service.measure_batch(kernels)
    cancelled.append(True)
    # Re-measuring a memoized schedule must still consult the checkpoint: a
    # cancelled search stops even when every answer would come from the memo.
    with pytest.raises(RuntimeError, match="cancelled"):
        service.measure(kernels[0])


def test_progress_reports_cumulative_submissions(compiled, simulator):
    kernels = _candidates(compiled, simulator)
    counts = []
    service = create_measurement_service(
        simulator, compiled.grid, compiled.make_inputs(0), compiled.param_order,
        MeasurementPolicy(memoize=True, progress=counts.append),
    )
    service.measure_batch(kernels)
    assert counts == list(range(1, len(kernels) + 1))
    service.measure_batch(kernels)  # pure memo hits still count as progress
    assert counts == list(range(1, 2 * len(kernels) + 1))
    # At least one full batch of hits (two mutations may already collide:
    # swapping i up and i+1 down produce the same schedule).
    assert service.stats.memo_hits >= len(kernels)
