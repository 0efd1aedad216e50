"""The listing-keyed shared memo: what it shares, and why that is sound.

A pool's shared memo stores a verifier-legal candidate's timing under its
seed listing's scope (:func:`repro.sim.listing_memo_scope`), so keys that
compile to the same SASS listing share it.  That is sound only while a legal
candidate times alike wherever the workload's tensors sit, which is what the
relocation property checks on every registered kernel: a memory model that
read address bits above the 128-byte line (an L2-slice hash, say) fails it.
"""

import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.analysis.verify import seed_verifier
from repro.api import CacheConfig, MeasurementPolicy, OptimizationConfig, Session
from repro.api.backends import resolve_backend
from repro.baselines.search import run_greedy_search
from repro.core.env import AssemblyGame
from repro.errors import ReproError
from repro.sass import KernelMetadata, SassKernel
from repro.sass.instruction import Instruction
from repro.sim import (
    GlobalMemory,
    GPUSimulator,
    GridConfig,
    LaunchContext,
    MeasurementConfig,
    SharedMemoTable,
    bind_tensors,
    listing_memo_scope,
)
from repro.triton import compile_spec, get_spec
from repro.triton.spec import available_kernels


@pytest.fixture(scope="module")
def simulator():
    return GPUSimulator()


def _adjacent_swaps(kernel: SassKernel) -> list[SassKernel]:
    lines = kernel.lines
    return [
        kernel.swap(i, i + 1)
        for i in range(len(lines) - 1)
        if isinstance(lines[i], Instruction) and isinstance(lines[i + 1], Instruction)
    ]


def _relocated_launch(grid: GridConfig, tensors: dict, order: list[str]) -> LaunchContext:
    """A launch whose tensors sit at other 256-byte-aligned addresses.

    A gap allocation is bound before each tensor, so each one moves by its
    own multiple of 256 bytes (3, 9, 18, ... x 256).
    """
    memory = GlobalMemory()
    params = []
    for slot, name in enumerate(order):
        memory.allocate(f"gap{slot}", (768 * (slot + 1),), np.uint8)
        params += bind_tensors(memory, {name: tensors[name]}, [name])[0]
    launch = LaunchContext(grid_config=grid, params=params, global_memory=memory)
    memory.snapshot()
    return launch


@pytest.mark.parametrize("name", available_kernels())
def test_legal_candidates_time_alike_wherever_the_tensors_sit(name, simulator):
    compiled = compile_spec(get_spec(name), scale="test")
    seed = compiled.kernel
    verifier = seed_verifier(seed)
    candidates = [seed] + [swap for swap in _adjacent_swaps(seed) if verifier.is_legal(swap)]
    inputs = compiled.make_inputs(0)
    usual = simulator.build_launch(compiled.grid, inputs, compiled.param_order)
    moved = _relocated_launch(compiled.grid, inputs, compiled.param_order)
    assert all(a != b for a, b in zip(usual.params, moved.params))
    for candidate in candidates:
        assert simulator.measure_with_launch(candidate, usual) == simulator.measure_with_launch(
            candidate, moved
        ), f"{name}: a verifier-legal candidate timed differently after relocation"


def test_an_illegal_candidate_is_stored_under_the_workload_key(simulator):
    compiled = compile_spec(get_spec("mmLeakyReLu"), scale="test")
    table = SharedMemoTable()
    game = AssemblyGame(compiled, simulator, policy=MeasurementPolicy(shared_memo=table))
    service = game.measure_service
    assert service.listing_scope and service.scope != service.listing_scope

    def stored_under(kernel: SassKernel) -> tuple[bool, bool]:
        digest = kernel.content_digest()
        return (
            table.get(f"{service.listing_scope}|{digest}") is not None,
            table.get(f"{service.scope}|{digest}") is not None,
        )

    # The seed was measured as the baseline, under the listing key only.
    assert stored_under(game.initial_kernel) == (True, False)
    illegal = [
        swap for swap in _adjacent_swaps(game.initial_kernel) if not game.verifier.is_legal(swap)
    ]
    measured = 0
    for candidate in illegal:
        try:
            service.measure(candidate)
        except ReproError:
            continue  # an out-of-bounds access: nothing is stored
        measured += 1
        assert stored_under(candidate) == (False, True)
    assert measured > 0


def test_a_second_key_of_one_listing_measures_nothing():
    table = SharedMemoTable()
    config = OptimizationConfig(
        strategy="greedy", scale="test", search_budget=8, autotune=False, verify="off"
    )
    session = Session(
        config=config,
        measurement=MeasurementPolicy(shared_memo=table, memo_owner="w0"),
        cache=CacheConfig(enabled=False),
    )
    first = session.compile("bmm", shapes={"B": 1, "M": 64, "N": 32, "K": 64})
    second = session.compile("bmm", shapes={"B": 2, "M": 64, "N": 32, "K": 64})
    assert first.kernel.content_digest() == second.kernel.content_digest()
    assert first.grid != second.grid
    one = session.optimize_compiled(first)
    two = session.optimize_compiled(second)
    assert one.details["measurement"]["measured"] > 0
    assert two.details["measurement"]["measured"] == 0
    assert (two.baseline_time_ms, two.best_time_ms, two.evaluations) == (
        one.baseline_time_ms, one.best_time_ms, one.evaluations
    )


def test_keys_of_one_listing_share_the_table_under_thread_races(simulator):
    """Four workers (more than a small runner's cores) race on one listing."""
    keys = [
        compile_spec(get_spec("bmm"), shapes={"B": b, "M": 64, "N": 32, "K": 64})
        for b in (1, 2, 3, 4)
    ]
    assert len({compiled.kernel.content_digest() for compiled in keys}) == 1
    table = SharedMemoTable()
    start = threading.Barrier(len(keys))

    def search(index: int):
        policy = MeasurementPolicy(shared_memo=table, memo_owner=f"w{index}")
        start.wait(timeout=60)
        return run_greedy_search(keys[index], budget=8, simulator=simulator, policy=policy)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=len(keys)) as executor:
            futures = [executor.submit(search, index) for index in range(len(keys))]
            results = [future.result(timeout=120) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    outcomes = {
        (r.baseline_time_ms, r.best_time_ms, r.evaluations, r.best_kernel.content_digest())
        for r in results
    }
    assert len(outcomes) == 1
    stats = [r.measurement_stats for r in results]
    # Every lookup and hit is counted once, and racing stores keep one entry.
    assert table.stats.lookups == sum(s["submitted"] for s in stats)
    assert table.stats.hits == sum(s["memo_hits"] for s in stats)
    assert table.stats.stores == len(table) <= sum(s["measured"] for s in stats)


def test_listing_scope_separates_what_the_timing_reads(simulator):
    compiled = compile_spec(get_spec("rmsnorm"), scale="test")
    seed, grid, order = compiled.kernel, compiled.grid, compiled.param_order
    inputs = compiled.make_inputs(0)

    def scope(sim=simulator, kernel=seed, launch_grid=grid, tensors=inputs, measurement=None):
        return listing_memo_scope(sim, kernel, launch_grid, tensors, order, measurement)

    base = scope()
    one_wave = simulator.config.num_sms
    assert grid.num_blocks < one_wave
    # Shared: other input data, another grid of the same wave count.
    assert scope(tensors=compiled.make_inputs(1)) == base
    assert scope(launch_grid=GridConfig((one_wave, 1, 1), grid.num_warps)) == base
    # Never shared: GPU, block size, shared-memory bytes, waves, noise seed.
    assert scope(sim=resolve_backend("A30-sim")) != base
    assert scope(launch_grid=GridConfig(grid.grid, grid.num_warps * 2)) != base
    assert scope(kernel=seed.with_metadata(shared_memory_bytes=4096)) != base
    assert scope(launch_grid=GridConfig((one_wave + 1, 1, 1), grid.num_warps)) != base
    noisy = MeasurementConfig(noise_std=0.01, seed=1)
    assert scope(measurement=noisy) != base
    assert scope(measurement=MeasurementConfig(noise_std=0.01, seed=2)) != scope(measurement=noisy)


_READS_GRID_DIM = """
[B------:R-:W1:-:S01] S2R R0, SR_CTAID.X ;
[B------:R-:W-:-:S04] MOV R2, c[0x0][0x0] ;
[B------:R-:W-:-:S04] MOV R4, c[0x0][0x160] ;
[B-1----:R-:W-:-:S05] IMAD R8, R0, R2, R4 ;
[B------:R-:W0:-:S02] LDG.E R12, [R8.64] ;
[B------:R-:W-:-:S05] EXIT ;
"""

_LOAD_FED = """
[B------:R-:W-:-:S04] MOV R4, c[0x0][0x160] ;
[B------:R-:W0:-:S02] LDG.E R12, [R4.64] ;
[B0-----:R-:W-:-:S05] IADD3 R8, R4, R12, RZ ;
[B------:R-:W1:-:S02] LDG.E R14, [R8.64] ;
[B-1----:R-:W-:-:S05] EXIT ;
"""


def test_listing_scope_keys_the_grid_and_inputs_only_when_the_timing_reads_them(simulator):
    x = {"x": np.arange(64, dtype=np.int32)}
    y = {"x": np.arange(64, dtype=np.int32) * 2}
    small, large = GridConfig((1, 1, 1), 1), GridConfig((2, 1, 1), 1)

    def scope(text, launch_grid, tensors):
        kernel = SassKernel.from_text(text, KernelMetadata(name="probe", num_warps=1))
        return listing_memo_scope(simulator, kernel, launch_grid, tensors, ["x"])

    assert scope(_READS_GRID_DIM, small, x) != scope(_READS_GRID_DIM, large, x)
    assert scope(_READS_GRID_DIM, small, x) == scope(_READS_GRID_DIM, small, y)
    assert scope(_LOAD_FED, small, x) != scope(_LOAD_FED, small, y)
    assert scope(_LOAD_FED, small, x) == scope(_LOAD_FED, large, x)
