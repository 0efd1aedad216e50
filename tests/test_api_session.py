"""Tests for the ``repro.api`` facade: Session, registries, configs and reports."""


import numpy as np
import pytest

from repro.api import (
    CacheConfig,
    MeasurementPolicy,
    OptimizationConfig,
    RunReport,
    Session,
    available_backends,
    available_strategies,
    get_strategy,
    register_strategy,
    resolve_backend,
)
from repro.core.env import AssemblyGame
from repro.core.jit import CACHE_SCHEMA_VERSION, CubinCache, cache_key
from repro.sim import GPUSimulator, compare_outputs
from repro.triton import compile_spec, get_spec

_FAST = OptimizationConfig(
    scale="test", episode_length=8, train_timesteps=16, search_budget=6,
    population=3, generations=1, moves_per_individual=3, autotune=False,
)


@pytest.fixture(scope="module")
def simulator():
    return GPUSimulator()


@pytest.fixture()
def session(tmp_path, simulator):
    return Session(gpu=simulator, cache_dir=tmp_path, config=_FAST)


# ---------------------------------------------------------------------------
# Session round-trip: optimize -> cache hit -> deploy
# ---------------------------------------------------------------------------
def test_session_optimize_cache_deploy_roundtrip(session):
    report = session.optimize("softmax", verify=False)
    assert isinstance(report, RunReport)
    assert report.cached and report.cache_key is not None
    assert session.cache.has(report.cache_key)

    deployed = session.deploy("softmax")
    assert deployed.kernel.render() == report.artifact.result.best_kernel.render()

    # session.run takes the cache-hit path and produces correct outputs.
    inputs = deployed.make_inputs(0)
    run = session.run("softmax", inputs)
    ok, max_err, _ = compare_outputs(run.outputs["out"], deployed.reference(inputs)["out"])
    assert ok, max_err


def test_session_deploy_missing_cache_raises(session):
    with pytest.raises(Exception):
        session.deploy("rmsnorm")


def test_session_readonly_cache_never_stores(tmp_path, simulator):
    session = Session(
        gpu=simulator,
        cache_dir=tmp_path,
        config=_FAST,
        cache=CacheConfig(readonly=True),
    )
    report = session.optimize("softmax", verify=False, strategy="random")
    assert not report.cached
    assert not session.cache.has(report.cache_key)


# ---------------------------------------------------------------------------
# Strategy registry: all four strategies behind one interface
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("timesteps, moves", [(20, 16), (4, 8)])
def test_ppo_reports_the_moves_it_took(tmp_path, simulator, timesteps, moves):
    # PPO trains in whole rollouts of episode_length moves: max(1, T // 8) * 8.
    config = OptimizationConfig(
        strategy="ppo", scale="test", episode_length=8, train_timesteps=timesteps,
        autotune=False,
    )
    session = Session(gpu=simulator, config=config, cache=CacheConfig(enabled=False))
    report = session.optimize("layernorm-residual", verify="off")
    assert report.evaluations == moves
    # The seed has no legal move at test scale, so every move ends an episode.
    assert len(report.details["history"].episodic_returns) == moves


def test_builtin_strategies_registered():
    assert {"ppo", "greedy", "random", "evolutionary"} <= set(available_strategies())
    with pytest.raises(KeyError):
        get_strategy("does-not-exist")


@pytest.mark.parametrize("strategy", ["ppo", "greedy", "random", "evolutionary"])
def test_every_strategy_returns_same_report_shape(session, strategy):
    report = session.optimize("mmLeakyReLu", strategy=strategy, verify=True)
    assert isinstance(report, RunReport)
    assert report.strategy == strategy
    assert report.kernel == "mmLeakyReLu"
    assert report.gpu == "A100-80GB-PCIe"
    assert report.best_time_ms <= report.baseline_time_ms * 1.001
    assert report.speedup >= 0.999
    assert report.evaluations > 0
    assert report.verified is True
    assert report.artifact is not None
    # The artifact's result must be summarizable for every strategy, not just PPO.
    assert isinstance(report.artifact.result.summary(), dict)
    summary = report.summary()
    assert set(summary) == {
        "kernel", "gpu", "strategy", "shapes", "config", "baseline_time_ms",
        "best_time_ms", "speedup", "evaluations", "verified", "diagnostics",
        "cache_key", "cached", "error",
    }
    assert summary["diagnostics"] == []
    assert not report.failed
    assert report.details["evaluations_per_sec"] > 0
    assert isinstance(report.to_json(), str)


def test_custom_strategy_registration(session):
    @register_strategy("noop-test")
    class NoopStrategy:
        name = "noop-test"

        def run(self, context):
            from repro.api import StrategyOutcome

            baseline = context.compiled.measure(
                context.simulator, measurement=context.measurement
            ).time_ms
            return StrategyOutcome(
                strategy=self.name,
                baseline_time_ms=baseline,
                best_time_ms=baseline,
                best_kernel=context.compiled.kernel,
                evaluations=1,
            )

    report = session.optimize("softmax", strategy="noop-test", verify=False, store=False)
    assert report.strategy == "noop-test"
    assert report.speedup == pytest.approx(1.0)


def test_optimize_many_preserves_order(session):
    reports = session.optimize_many(["softmax", "rmsnorm"], strategy="random", verify=False)
    assert [report.kernel for report in reports] == ["softmax", "rmsnorm"]
    assert all(report.cached for report in reports)


@register_strategy("fail-on-rmsnorm-test")
class _FailOnRmsnorm:
    name = "fail-on-rmsnorm-test"

    def run(self, context):
        from repro.api import StrategyOutcome

        if context.compiled.spec.name == "rmsnorm":
            raise RuntimeError("injected failure")
        baseline = context.compiled.measure(
            context.simulator, measurement=context.measurement
        ).time_ms
        return StrategyOutcome(
            strategy=self.name,
            baseline_time_ms=baseline,
            best_time_ms=baseline,
            best_kernel=context.compiled.kernel,
            evaluations=1,
        )


def test_optimize_many_surfaces_per_job_failures(session):
    reports = session.optimize_many(
        ["softmax", "rmsnorm"], strategy="fail-on-rmsnorm-test", verify=False
    )
    assert [report.kernel for report in reports] == ["softmax", "rmsnorm"]
    assert not reports[0].failed and reports[0].evaluations == 1
    assert reports[1].failed
    assert "RuntimeError: injected failure" in reports[1].error
    assert reports[1].summary()["error"] == reports[1].error


def test_optimize_many_on_error_raise_carries_successes(session):
    from repro.errors import OptimizationError

    with pytest.raises(OptimizationError) as excinfo:
        session.optimize_many(
            ["softmax", "rmsnorm"], strategy="fail-on-rmsnorm-test",
            verify=False, on_error="raise",
        )
    assert "rmsnorm" in str(excinfo.value)
    successes = excinfo.value.reports
    assert [report.kernel for report in successes] == ["softmax"]
    with pytest.raises(ValueError):
        session.optimize_many(["softmax"], on_error="explode")


# ---------------------------------------------------------------------------
# Backend registry
# ---------------------------------------------------------------------------
def test_backend_registry_names_and_aliases():
    assert "A100-80GB-PCIe" in available_backends()
    assert resolve_backend("A100-sim").config.name == "A100-80GB-PCIe"
    assert resolve_backend("a30").config.num_sms == 56
    assert resolve_backend("H100").config.name == "H100-80GB-SXM"
    with pytest.raises(KeyError):
        resolve_backend("B200")


def test_backend_name_namespaces_cache_keys(tmp_path, simulator):
    a100 = Session(gpu="A100-sim", cache_dir=tmp_path, config=_FAST)
    a30 = Session(gpu="A30", cache_dir=tmp_path, config=_FAST)
    assert a100.key_for("softmax") != a30.key_for("softmax")


# ---------------------------------------------------------------------------
# CubinCache store/load equivalence
# ---------------------------------------------------------------------------
def test_cubin_cache_store_load_equivalence(tmp_path, session):
    report = session.optimize("softmax", strategy="greedy", verify=False, store=False)
    cache = CubinCache(tmp_path / "standalone")
    key = session.key_for("softmax")
    assert not cache.has(key)
    entry = cache.store(key, report.artifact)
    assert cache.has(key)

    loaded = cache.load(key)
    assert loaded.load_cubin().pack() == report.artifact.cubin.pack()
    meta = loaded.load_meta()
    assert meta["key"] == key
    assert meta["baseline_time_ms"] == pytest.approx(report.baseline_time_ms)
    assert meta["best_time_ms"] == pytest.approx(report.best_time_ms)
    assert meta["config"] == report.config
    assert meta["schema_version"] == CACHE_SCHEMA_VERSION


def test_cubin_cache_schema_version_mismatch_is_miss(tmp_path, session):
    import json

    from repro.errors import OptimizationError

    report = session.optimize("softmax", strategy="random", verify=False, store=False)
    cache = CubinCache(tmp_path / "versioned")
    key = session.key_for("softmax")
    entry = cache.store(key, report.artifact)
    assert cache.has(key)

    # An entry written under an older schema (or with no version at all) is a miss.
    meta = json.loads(entry.meta_path.read_text())
    meta["schema_version"] = CACHE_SCHEMA_VERSION - 1
    entry.meta_path.write_text(json.dumps(meta))
    assert not cache.has(key)
    with pytest.raises(OptimizationError):
        cache.load(key)
    del meta["schema_version"]
    entry.meta_path.write_text(json.dumps(meta))
    assert not cache.has(key)

    # Re-storing under the current schema makes it visible again.
    cache.store(key, report.artifact)
    assert cache.has(key)


# ---------------------------------------------------------------------------
# Session lifecycle: close() and context-manager support
# ---------------------------------------------------------------------------
def test_session_close_is_idempotent_and_final(tmp_path, simulator):
    session = Session(gpu=simulator, cache_dir=tmp_path, config=_FAST)
    report = session.optimize("softmax", strategy="random", verify=False)
    assert not session.closed
    session.close()
    session.close()  # idempotent
    assert session.closed
    for call in (
        lambda: session.optimize("softmax"),
        lambda: session.compile("softmax"),
        lambda: session.deploy("softmax"),
        lambda: session.run("softmax"),
        lambda: session.optimize_many(["softmax"]),
    ):
        with pytest.raises(Exception, match="session is closed"):
            call()
    # The cache itself outlives the session: a fresh one still deploys.
    fresh = Session(gpu=simulator, cache_dir=tmp_path, config=_FAST)
    assert fresh.cache.has(report.cache_key)


def test_session_context_manager_closes(simulator):
    with Session(gpu=simulator, config=_FAST, cache=CacheConfig(enabled=False)) as session:
        report = session.optimize("mmLeakyReLu", strategy="random", verify=False, store=False)
        assert report.evaluations > 0
    assert session.closed
    with pytest.raises(Exception, match="session is closed"):
        session.__enter__()


# ---------------------------------------------------------------------------
# CubinCache: LRU size bound and timing-model content digest
# ---------------------------------------------------------------------------
def test_cubin_cache_lru_eviction(tmp_path, session):
    import os
    import time

    report = session.optimize("softmax", strategy="random", verify=False, store=False)
    cache = CubinCache(tmp_path / "bounded", max_entries=2)
    keys = [f"entry-{index}" for index in range(3)]
    for key in keys[:2]:
        cache.store(key, report.artifact)
    # Make the LRU order unambiguous even on coarse-timestamp filesystems,
    # then mark entry-0 as recently used by loading it.
    now = time.time()
    os.utime(cache.entry(keys[0]).meta_path, (now - 60, now - 60))
    os.utime(cache.entry(keys[1]).meta_path, (now - 30, now - 30))
    cache.load(keys[0])

    cache.store(keys[2], report.artifact)  # evicts entry-1, the LRU
    assert cache.has(keys[0]) and cache.has(keys[2])
    assert not cache.has(keys[1])
    assert not cache.entry(keys[1]).cubin_path.exists()
    with pytest.raises(ValueError):
        CubinCache(tmp_path / "bad", max_entries=0)


def test_session_cache_config_bounds_entries(tmp_path, simulator):
    session = Session(
        gpu=simulator, cache_dir=tmp_path, config=_FAST, cache=CacheConfig(max_entries=7)
    )
    assert session.cache.max_entries == 7


def test_cubin_cache_timing_model_mismatch_is_miss(tmp_path, session):
    import json

    from repro.core.jit import timing_model_digest

    report = session.optimize("softmax", strategy="random", verify=False, store=False)
    cache = CubinCache(tmp_path / "timing-model")
    key = session.key_for("softmax")
    entry = cache.store(key, report.artifact)
    meta = json.loads(entry.meta_path.read_text())
    assert meta["timing_model"] == timing_model_digest()
    assert cache.has(key)

    # An entry optimized under a different timing model must read as a miss:
    # its schedule was ranked by rewards the current simulator would not give.
    meta["timing_model"] = "0" * 16
    entry.meta_path.write_text(json.dumps(meta))
    assert not cache.has(key)
    del meta["timing_model"]
    entry.meta_path.write_text(json.dumps(meta))
    assert not cache.has(key)


def test_timing_model_digest_tracks_table_content():
    from repro.arch.latency_table import default_stall_table
    from repro.core.jit import timing_model_digest

    digest = timing_model_digest()
    assert digest == timing_model_digest()  # stable within a process
    # The digest is a pure function of the latency-table content.
    table = default_stall_table()
    assert len(digest) == 16 and len(table.as_rows()) > 0


# ---------------------------------------------------------------------------
# cache_key hardening
# ---------------------------------------------------------------------------
def test_cache_key_sanitizes_unsafe_values():
    key = cache_key("A100/80GB PCIe", "soft max", {"path": "../../etc", "n": 8})
    assert "/" not in key and " " not in key and ".." not in key


def test_cache_key_non_scalar_values_do_not_collide():
    tuple_key = cache_key("A100", "bmm", {"shape": (16, 32)})
    nested_key = cache_key("A100", "bmm", {"shape": {"m": 16, "n": 32}})
    list_key = cache_key("A100", "bmm", {"shape": [16, 32]})
    assert len({tuple_key, nested_key, list_key}) == 3
    # ... but keys are insensitive to the exact numeric type of a value.
    assert cache_key("A100", "bmm", {"m": 16}) == cache_key("A100", "bmm", {"m": np.int64(16)})
    # Values whose sanitized prefixes coincide still differ via the digest.
    assert cache_key("A100", "bmm", {"s": "a/b"}) != cache_key("A100", "bmm", {"s": "a-b"})


def test_cache_key_is_filesystem_usable(tmp_path):
    key = cache_key("A100", "bmm", {"shape": (16, 32), "cfg": {"deep": [1, 2]}})
    (tmp_path / f"{key}.cubin").write_bytes(b"x")  # must not escape or error
    assert len(key) < 200


def test_config_replace_and_measurement_policy():
    config = _FAST.replace(strategy="greedy", search_budget=9)
    assert config.strategy == "greedy" and config.search_budget == 9
    assert _FAST.strategy == "ppo"  # original untouched (frozen)
    measurement = MeasurementPolicy(noise_std=0.01, seed=3).to_measurement_config()
    assert measurement.noise_std == 0.01 and measurement.seed == 3


# ---------------------------------------------------------------------------
# AssemblyGame episode recording (terminated episodes are kept)
# ---------------------------------------------------------------------------
def test_assembly_game_records_terminated_episodes(simulator, monkeypatch):
    compiled = compile_spec(get_spec("mmLeakyReLu"), scale="test")
    env = AssemblyGame(compiled, simulator, episode_length=8)
    env.reset()
    valid = np.flatnonzero(env.action_masks())
    assert len(valid) > 0
    env.step(int(valid[0]))

    # Force the no-valid-action termination path (§3.5) mid-episode.
    monkeypatch.setattr(env.masker, "mask", lambda kernel: np.zeros(env.action_space.n, dtype=bool))
    _, _, terminated, _, info = env.step(0)
    assert terminated and info.get("terminated_no_actions")
    assert len(env.episodes) == 1
    assert len(env.episodes[0].actions) == 1

    # Stepping again past the end must not double-append the record.
    env.step(0)
    assert len(env.episodes) == 1
