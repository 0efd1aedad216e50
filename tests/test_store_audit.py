"""One analysis and one verifier per seed listing, and the store's hit audit.

A seed listing's CFG, stall inference, dependence graph and
:class:`~repro.analysis.verify.ScheduleVerifier` are built once and the
verifier is pinned on the seed object
(:func:`repro.analysis.verify.seed_verifier`); every live kernel object with
the same listing shares it.  The env's pre-game analysis and ``is_legal``
pre-filter, the verify cascade and every result-store hit audit
(:func:`repro.analysis.verify.verify_schedule`) read it, and each audit
still maps the candidate and checks every edge, stall constraint and the
scoreboard protocol.  These tests count the analyses and verifier builds a
job runs and hold shared audits to independent ones: identical verdicts
after poisoning, pickling and concurrent use.
"""

import dataclasses
import pickle
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

import repro.analysis.cfg as cfg_module
import repro.analysis.deps as deps_module
import repro.analysis.stall_inference as stall_module
import repro.triton.kernels  # noqa: F401 - registers the bundled specs
from repro.analysis.verify import ScheduleVerifier, seed_verifier, verify_schedule
from repro.api import CacheConfig, OptimizationConfig, Session
from repro.core.env import AssemblyGame
from repro.errors import SassError
from repro.pool import SessionPool
from repro.sass import SassKernel
from repro.triton.compiler import compile_spec
from repro.triton.spec import get_spec

_CONFIG = OptimizationConfig(scale="test", strategy="greedy", search_budget=4, autotune=False)
_PPO_CONFIG = OptimizationConfig(
    scale="test", strategy="ppo", episode_length=4, train_timesteps=8, autotune=False
)
_NO_CACHE = CacheConfig(enabled=False)
#: The analyses of a seed listing, by the module that defines each.
_ANALYSES = {
    "build_dependence_graph": deps_module,
    "build_cfg": cfg_module,
    "infer_stall_counts": stall_module,
}


def _fresh(kernel: SassKernel, tag: str) -> SassKernel:
    """The same lines under a name of their own: a listing no live kernel holds."""
    return kernel.with_metadata(name=f"{kernel.metadata.name}-{tag}")


def _audits(seed: SassKernel) -> list[SassKernel]:
    """The seed itself plus every adjacent swap of two instructions in it."""
    candidates = [seed]
    for i in range(len(seed.lines) - 1):
        try:
            candidates.append(seed.swap(i, i + 1))
        except SassError:  # a label at i or i + 1
            continue
    return candidates


def _counting(original, calls: list):
    def counting(*args, **kwargs):
        calls.append(args[0] if args else kwargs["kernel"])
        return original(*args, **kwargs)

    return counting


@pytest.fixture
def count_analyses(monkeypatch):
    """The kernel of every call of each seed analysis, wherever it is bound,
    and the seed of every ``ScheduleVerifier`` built."""
    calls = {name: [] for name in (*_ANALYSES, "ScheduleVerifier")}
    for name, home in _ANALYSES.items():
        original = getattr(home, name)
        counting = _counting(original, calls[name])
        for module_name, module in list(sys.modules.items()):
            if module_name.split(".")[0] == "repro" and vars(module).get(name) is original:
                monkeypatch.setattr(module, name, counting)
    verifier_init = ScheduleVerifier.__init__

    def counting_init(self, seed, *args, **kwargs):
        calls["ScheduleVerifier"].append(seed)
        verifier_init(self, seed, *args, **kwargs)

    monkeypatch.setattr(ScheduleVerifier, "__init__", counting_init)
    return calls


def _counts(calls: dict) -> dict[str, int]:
    return {name: len(kernels) for name, kernels in calls.items()}


def _forget(calls: dict) -> None:
    """Drop the counted calls and the kernels they keep alive."""
    for kernels in calls.values():
        kernels.clear()


# The job tests below each compile shapes no other test compiles, so no live
# kernel holds their listing when they start.
@pytest.mark.parametrize(
    "config, kernel, shapes",
    [
        (_CONFIG, "mmLeakyReLu", {"B": 1, "M": 64, "N": 32, "K": 320}),
        (_PPO_CONFIG, "rmsnorm", {"n_rows": 2, "hidden": 1280}),
    ],
    ids=["greedy", "ppo"],
)
def test_a_job_on_a_fresh_listing_analyzes_it_once(count_analyses, config, kernel, shapes):
    with Session("A100-sim", config=config, cache=_NO_CACHE) as session:
        report = session.optimize(kernel, shapes=shapes, store=False)
    assert report.verified is True
    assert _counts(count_analyses) == {
        "build_dependence_graph": 1,
        "build_cfg": 1,
        "infer_stall_counts": 1,
        "ScheduleVerifier": 1,
    }


def test_a_second_key_of_a_live_listing_builds_nothing(count_analyses):
    with Session("A100-sim", config=_CONFIG, cache=_NO_CACHE) as session:
        first = session.optimize(
            "mmLeakyReLu", shapes={"B": 1, "M": 64, "N": 32, "K": 448}, store=False
        )
        seed = first.artifact.compiled.kernel
        _forget(count_analyses)
        second = session.optimize(
            "mmLeakyReLu", shapes={"B": 1, "M": 128, "N": 32, "K": 448}, store=False
        )
    other = second.artifact.compiled.kernel
    assert other is not seed and other.content_digest() == seed.content_digest()
    assert second.verified is True
    assert _counts(count_analyses) == dict.fromkeys(count_analyses, 0)
    # The second compile's verifier shares the first one's graph and tables
    # but matches candidates against its own line objects (the is_legal
    # identity fast path).
    shared, bound = seed_verifier(seed), seed_verifier(other)
    assert bound.graph is shared.graph and bound._err_src is shared._err_src
    assert bound.lines is other.lines and shared.lines is seed.lines


def test_the_verify_cascade_reads_the_env_graph(monkeypatch):
    envs, audits = [], []
    game_init, verify = AssemblyGame.__init__, ScheduleVerifier.verify

    def recording_game(self, *args, **kwargs):
        game_init(self, *args, **kwargs)
        envs.append(self)

    def recording_verify(self, *args, **kwargs):
        audits.append(self)
        return verify(self, *args, **kwargs)

    monkeypatch.setattr(AssemblyGame, "__init__", recording_game)
    monkeypatch.setattr(ScheduleVerifier, "verify", recording_verify)
    with Session("A100-sim", config=_CONFIG, cache=_NO_CACHE) as session:
        report = session.optimize(
            "mmLeakyReLu", shapes={"B": 1, "M": 64, "N": 32, "K": 192}, store=False
        )
    assert report.verified is True
    (env,) = envs
    # The cascade audits with the env's verifier object itself.
    assert audits and all(verifier is env.verifier for verifier in audits)


def _warm_queue(pool):
    """A queue whose store holds one optimized softmax report, and its key."""
    queue = pool.serve()
    first = queue.submit("softmax")
    first.result(timeout=300)
    return queue, first.record().cache_key


def test_store_hits_of_one_key_build_the_seed_graph_once(count_analyses):
    with SessionPool(["A100-sim"], config=_CONFIG, cache=_NO_CACHE) as pool:
        queue, key = _warm_queue(pool)
        seed = queue.store.get(key).artifact.compiled.kernel
        assert "_seed_verifier" in seed.__dict__  # the optimizing job pinned it
        _forget(count_analyses)
        for _ in range(5):
            handle = queue.submit("softmax")
            handle.result(timeout=300)
            assert handle.record().from_store is True
        assert count_analyses["build_dependence_graph"] == []
        assert count_analyses["ScheduleVerifier"] == []
        assert queue.store.stats.invalidations == 0


def test_poisoned_entry_after_a_pinned_hit_is_still_invalidated():
    with SessionPool(["A100-sim"], config=_CONFIG, cache=_NO_CACHE) as pool:
        queue, key = _warm_queue(pool)
        clean = queue.submit("softmax")
        clean.result(timeout=300)
        assert clean.record().from_store is True
        hit = queue.store.get(key)
        seed = hit.artifact.compiled.kernel
        assert "_seed_verifier" in seed.__dict__

        # Poison the stored schedule; rule codes come from an independent
        # audit (a verifier built directly builds a graph of its own).
        verifier = ScheduleVerifier(seed)
        bad_kernel, expected_rules = None, ()
        for candidate in _audits(hit.artifact.optimized.kernel)[1:]:
            fresh = verifier.verify(candidate, include_warnings=False)
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


def test_pickled_seed_drops_the_pin_and_audits_identically(count_analyses):
    builds = count_analyses["build_dependence_graph"]
    seed = _fresh(compile_spec(get_spec("bmm"), scale="test").kernel, "pickled")
    candidates = _audits(seed)
    before = [verify_schedule(seed, c).summary() for c in candidates]
    assert "_seed_verifier" in seed.__dict__

    # One pickle keeps the seed and its swaps sharing line objects.
    seed_copy, *copies = pickle.loads(pickle.dumps([seed, *candidates]))
    assert "_seed_verifier" not in seed_copy.__dict__
    # With the original gone, no live kernel holds the listing's graph.
    _forget(count_analyses)
    del seed, candidates
    after = [verify_schedule(seed_copy, c).summary() for c in copies]
    assert after == before
    assert len(builds) == 1 and builds[0] is seed_copy
    assert any(not summary["ok"] for summary in before)  # the swaps reach errors


def test_concurrent_audits_of_one_seed_match_a_serial_audit(count_analyses):
    builds = count_analyses["build_dependence_graph"]
    compiled = compile_spec(get_spec("mmLeakyReLu"), scale="test").kernel
    seed = _fresh(compiled, "concurrent")
    candidates = _audits(seed)
    serial_verifier = ScheduleVerifier(seed)  # independent: a graph of its own
    serial = [
        (serial_verifier.verify(c).summary(), serial_verifier.is_legal(c)) for c in candidates
    ]
    _forget(count_analyses)
    threads = 4  # more than the cores of a small CI runner
    start = threading.Barrier(threads)

    def audit_all() -> list[tuple[dict, bool]]:
        start.wait(timeout=60)  # every thread races for the first build too
        # Full audits and is_legal calls interleave on the one shared verifier.
        return [
            (verify_schedule(seed, c).summary(), seed_verifier(seed).is_legal(c))
            for c in candidates
        ]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=threads) as executor:
            futures = [executor.submit(audit_all) for _ in range(threads)]
            results = [future.result(timeout=120) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    assert results == [serial] * threads
    assert builds and all(kernel is seed for kernel in builds)  # a real first build
    assert any(not legal for _, legal in serial)  # the swaps reach illegal ones
    # However the builds raced, one verifier is pinned and shared by the listing.
    shared = seed.__dict__["_seed_verifier"]
    assert seed_verifier(_fresh(compiled, "concurrent")) is shared
