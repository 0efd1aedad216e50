"""Frozen behaviour of :class:`repro.sim.memory.MemoryTimingModel`.

Both simulator oracles (``repro.sim._reference_sm``) share the memory model
with production, so neither can catch a change to it; these tests can.  The
listing-keyed measurement memo rests on the relocation property below: a
timing reads a global address only through its 128-byte line.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.arch.ampere import A100
from repro.sim.memory import GlobalMemory, MemoryRequest, MemoryTimingModel, MemoryTimingStats

_BASE = 0x1000_0000


def _request_stream(seed: int = 27, count: int = 160) -> list[tuple[MemoryRequest, int]]:
    """A fixed, seeded mix of global, shared and async-copy requests."""
    rng = np.random.default_rng(seed)
    cycle = 0
    stream = []
    for _ in range(count):
        space = str(rng.choice(["global", "global", "async_copy", "shared"]))
        address = _BASE + int(rng.integers(0, 96)) * 128 + int(rng.integers(0, 4)) * 16
        nbytes = int(rng.choice([4, 16, 128, 256, 512]))
        is_store = space != "async_copy" and bool(rng.random() < 0.25)
        cycle += int(rng.integers(0, 8))
        stream.append((MemoryRequest(space, address, nbytes, is_store), cycle))
    return stream


GOLDEN_LATENCIES = [
    201, 200, 24, 201, 201, 470, 24, 24, 240, 241, 271, 238, 24, 229, 59, 219,
    515, 24, 500, 100, 131, 533, 24, 570, 24, 24, 24, 319, 319, 24, 290, 525,
    145, 24, 584, 167, 24, 395, 605, 644, 690, 437, 673, 24, 24, 24, 260, 456,
    307, 24, 431, 447, 724, 728, 501, 24, 324, 737, 505, 336, 24, 503, 347, 506,
    24, 576, 387, 24, 377, 24, 409, 423, 24, 24, 24, 392, 855, 424, 423, 24,
    829, 666, 669, 684, 488, 678, 911, 24, 943, 24, 550, 601, 566, 777, 579, 605,
    645, 621, 619, 618, 1051, 24, 668, 686, 682, 24, 712, 24, 678, 24, 690, 697,
    865, 733, 1114, 732, 24, 764, 24, 24, 942, 24, 24, 24, 758, 24, 936, 745,
    24, 762, 768, 24, 791, 758, 24, 768, 959, 946, 806, 1011, 977, 816, 862, 879,
    887, 24, 24, 24, 915, 909, 24, 898, 24, 890, 1354, 923, 962, 948, 24, 24,
]

GOLDEN_STATS = MemoryTimingStats(
    global_load_bytes=8284,
    global_store_bytes=1124,
    async_copy_bytes=9296,
    shared_load_bytes=7204,
    shared_store_bytes=3720,
    transactions=160,
    l1_hits=56,
    l2_hits=35,
    dram_accesses=21,
    busy_cycles=67581,
)


def test_memory_model_golden_latencies_and_stats():
    """L1/L2/DRAM levels, MSHR pressure and DRAM queueing all show in the stream."""
    model = MemoryTimingModel(A100)
    latencies = [model.request_latency(request, cycle) for request, cycle in _request_stream()]
    assert latencies == GOLDEN_LATENCIES
    assert model.stats == GOLDEN_STATS
    # A reset model replays the stream exactly.
    model.reset()
    assert [model.request_latency(r, c) for r, c in _request_stream()] == GOLDEN_LATENCIES


_SPACES = ("global", "async_copy", "shared")


@st.composite
def _relocation_case(draw):
    """Allocation sizes, a second layout, and requests inside the allocations."""
    sizes = draw(st.lists(st.integers(1, 1500), min_size=1, max_size=5))
    order = draw(st.permutations(range(len(sizes))))
    gaps = draw(st.lists(st.integers(0, 9), min_size=len(sizes), max_size=len(sizes)))
    requests = []
    cycle = 0
    for _ in range(draw(st.integers(1, 60))):
        target = draw(st.integers(0, len(sizes) - 1))
        offset = draw(st.integers(0, sizes[target] - 1))
        nbytes = min(draw(st.sampled_from((4, 16, 128, 256, 512))), sizes[target] - offset)
        space = draw(st.sampled_from(_SPACES))
        is_store = space != "async_copy" and draw(st.booleans())
        cycle += draw(st.integers(0, 12))
        requests.append((target, offset, nbytes, space, is_store, cycle))
    return sizes, order, gaps, requests


def _layout(sizes, order, gaps) -> list[int]:
    """Base addresses of allocations bound in ``order``, each after its gap."""
    memory = GlobalMemory()
    bases = [0] * len(sizes)
    for index in order:
        if gaps[index]:
            memory.allocate(f"gap{index}", (256 * gaps[index],), np.uint8)
        bases[index] = memory.allocate(f"t{index}", (sizes[index],), np.uint8).address
    return bases


def _replay(bases, requests) -> tuple[list[int], MemoryTimingStats]:
    model = MemoryTimingModel(A100)
    latencies = []
    for target, offset, nbytes, space, is_store, cycle in requests:
        # Shared-memory offsets are block-local: no allocation moves them.
        address = offset if space == "shared" else bases[target] + offset
        request = MemoryRequest(space, address, nbytes, is_store)
        latencies.append(model.request_latency(request, cycle))
    return latencies, model.stats


@settings(derandomize=True, max_examples=80, deadline=None)
@given(_relocation_case())
def test_moving_allocations_by_multiples_of_256_changes_no_latency(case):
    sizes, order, gaps, requests = case
    packed = _layout(sizes, range(len(sizes)), [0] * len(sizes))
    moved = _layout(sizes, order, gaps)
    assert all((a - b) % 256 == 0 for a, b in zip(packed, moved))
    assert _replay(packed, requests) == _replay(moved, requests)
