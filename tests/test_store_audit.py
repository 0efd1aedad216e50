"""The serving store's hit audit and the dependence graph pinned on each seed.

Every result-store hit is re-audited with
:func:`repro.analysis.verify.verify_schedule` against the seed its schedule
was optimized from.  The seed's dependence graph is built on the first audit
and pinned on the seed object (:func:`repro.analysis.deps.pinned_dependence_graph`);
each later audit still maps the candidate and checks every edge, stall
constraint and the scoreboard protocol.  These tests hold the pin to a fresh
audit: one build per seed, identical verdicts after poisoning, pickling and
concurrent use.
"""

import dataclasses
import pickle
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

import repro.analysis.deps as deps_module
import repro.analysis.verify as verify_module
import repro.triton.kernels  # noqa: F401 - registers the bundled specs
from repro.analysis.verify import verify_schedule
from repro.api import CacheConfig, OptimizationConfig
from repro.errors import SassError
from repro.pool import SessionPool
from repro.sass import SassKernel
from repro.triton.compiler import compile_spec
from repro.triton.spec import get_spec

_CONFIG = OptimizationConfig(scale="test", strategy="greedy", search_budget=4, autotune=False)
_NO_CACHE = CacheConfig(enabled=False)


def _unpinned(kernel: SassKernel) -> SassKernel:
    """A new kernel object with the same line objects and no pins."""
    return SassKernel(kernel.lines, kernel.metadata)


def _audits(seed: SassKernel) -> list[SassKernel]:
    """The seed itself plus every adjacent swap of two instructions in it."""
    candidates = [seed]
    for i in range(len(seed.lines) - 1):
        try:
            candidates.append(seed.swap(i, i + 1))
        except SassError:  # a label at i or i + 1
            continue
    return candidates


@pytest.fixture
def count_graph_builds(monkeypatch):
    """Count dependence-graph builds, however the verifier reaches them."""
    calls = []
    original = deps_module.build_dependence_graph

    def counting(*args, **kwargs):
        calls.append(args[0] if args else kwargs["kernel"])
        return original(*args, **kwargs)

    monkeypatch.setattr(deps_module, "build_dependence_graph", counting)
    monkeypatch.setattr(verify_module, "build_dependence_graph", counting)
    return calls


def _warm_queue(pool):
    """A queue whose store holds one optimized softmax report, and its key."""
    queue = pool.serve()
    first = queue.submit("softmax")
    first.result(timeout=300)
    return queue, first.record().cache_key


def test_store_hits_of_one_key_build_the_seed_graph_once(count_graph_builds):
    with SessionPool(["A100-sim"], config=_CONFIG, cache=_NO_CACHE) as pool:
        queue, key = _warm_queue(pool)
        seed = queue.store.get(key).artifact.compiled.kernel
        count_graph_builds.clear()  # the optimizing run's own verifiers
        for _ in range(5):
            handle = queue.submit("softmax")
            handle.result(timeout=300)
            assert handle.record().from_store is True
        assert len(count_graph_builds) == 1 and count_graph_builds[0] is seed
        assert queue.store.stats.invalidations == 0


def test_poisoned_entry_after_a_pinned_hit_is_still_invalidated():
    with SessionPool(["A100-sim"], config=_CONFIG, cache=_NO_CACHE) as pool:
        queue, key = _warm_queue(pool)
        clean = queue.submit("softmax")
        clean.result(timeout=300)
        assert clean.record().from_store is True
        hit = queue.store.get(key)
        seed = hit.artifact.compiled.kernel
        assert "_dependence_graph" in seed.__dict__  # the clean hit pinned it

        # Poison the stored schedule; rule codes come from an unpinned audit.
        bad_kernel, expected_rules = None, ()
        for candidate in _audits(hit.artifact.optimized.kernel)[1:]:
            fresh = verify_schedule(_unpinned(seed), candidate, include_warnings=False)
            if not fresh.ok:
                bad_kernel = candidate
                expected_rules = tuple(sorted({diag.rule for diag in fresh.errors}))
                break
        assert bad_kernel is not None and expected_rules
        art = hit.artifact
        queue.store.put(key, dataclasses.replace(
            hit,
            artifact=dataclasses.replace(
                art, optimized=dataclasses.replace(art.optimized, kernel=bad_kernel)
            ),
        ))

        again = queue.submit("softmax")
        again.result(timeout=300)
        record = again.record()
        assert record.from_store is False
        assert record.invalidation_rules == expected_rules
        assert queue.store.stats.invalidations == 1


def test_pickled_seed_drops_the_pin_and_audits_identically():
    seed = compile_spec(get_spec("bmm"), scale="test").kernel
    candidates = _audits(seed)
    before = [verify_schedule(seed, c).summary() for c in candidates]
    assert "_dependence_graph" in seed.__dict__

    # One pickle keeps the seed and its swaps sharing line objects.
    seed_copy, *copies = pickle.loads(pickle.dumps([seed, *candidates]))
    assert "_dependence_graph" not in seed_copy.__dict__
    after = [verify_schedule(seed_copy, c).summary() for c in copies]
    assert after == before
    assert any(not summary["ok"] for summary in before)  # the swaps reach errors


def test_concurrent_audits_of_one_seed_match_a_serial_audit():
    compiled = compile_spec(get_spec("mmLeakyReLu"), scale="test").kernel
    seed = _unpinned(compiled)
    candidates = _audits(seed)
    serial_seed = _unpinned(compiled)
    serial = [verify_schedule(serial_seed, c).summary() for c in candidates]
    threads = 4  # more than the cores of a small CI runner
    start = threading.Barrier(threads)

    def audit_all() -> list[dict]:
        start.wait(timeout=60)  # every thread races for the first build too
        return [verify_schedule(seed, c).summary() for c in candidates]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=threads) as executor:
            futures = [executor.submit(audit_all) for _ in range(threads)]
            results = [future.result(timeout=120) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    assert results == [serial] * threads
    assert "_dependence_graph" in seed.__dict__
