"""Tests for the declarative scenario layer (:mod:`repro.scenarios`).

Covers the ISSUE-7 acceptance criteria: the built-in matrix spans the
required kernels/backends/regimes, every registered scenario compiles,
lints clean and round-trips its reference oracle at test scale (including
the Hopper backend and the new kernels), the registry lookup idiom matches
the backend registry (aliases, case-insensitivity, helpful KeyErrors), and
the suite runner emits one valid ``BENCH_<scenario>.json`` per selected
scenario through the pooled serving path.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.analysis import ScheduleVerifier
from repro.api.backends import available_backends, backend_spec, create_backend
from repro.api.config import CacheConfig
from repro.api.presets import available_presets, preset_spec
from repro.api.regimes import available_regimes, regime_spec
from repro.pool import SessionPool
from repro.scenarios import (
    Scenario,
    all_scenarios,
    get_scenario,
    register_scenario,
    scenarios_matching,
)
from repro.scenarios.run import bench_filename
from repro.triton.compiler import compile_spec
from repro.triton.spec import available_kernels, get_spec

SCENARIOS = all_scenarios()
REPO_ROOT = Path(__file__).resolve().parents[1]


# ---------------------------------------------------------------------------
# Matrix coverage (the ISSUE-7 acceptance floor)
# ---------------------------------------------------------------------------
def test_builtin_matrix_spans_required_axes():
    assert len(SCENARIOS) >= 20
    kernels = {s.kernel for s in SCENARIOS}
    backends = {s.backend for s in SCENARIOS}
    regimes = {s.regime for s in SCENARIOS}
    assert len(kernels) >= 8
    assert len(backends) >= 5
    assert "H100-80GB-SXM" in backends
    assert len(regimes) >= 2
    # The adversarial axes are populated.
    assert scenarios_matching(tags=("adversarial", "register-pressure"))
    assert scenarios_matching(tags=("adversarial", "bank-conflict"))
    assert scenarios_matching(tags=("adversarial", "noisy"))


def test_scenario_ids_are_stable_and_unique():
    ids = [s.id for s in SCENARIOS]
    assert len(ids) == len(set(ids))
    assert "softmax/A100/test/noisy" in ids
    for scenario in SCENARIOS:
        assert scenario.id.startswith(f"{scenario.kernel}/")
        assert f"/{scenario.scale}/" in scenario.id


# ---------------------------------------------------------------------------
# Every scenario: compiles, lints clean, oracle round-trips at test scale
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def compiled_at_test_scale():
    cache = {}

    def get(scenario):
        shapes = dict(scenario.kernel_spec().shapes("test"))
        shapes.update(scenario.shape_overrides)
        key = (scenario.kernel, tuple(sorted(shapes.items())))
        if key not in cache:
            cache[key] = compile_spec(scenario.kernel_spec(), shapes=shapes), shapes
        return cache[key]

    return get


@pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda s: s.id)
def test_scenario_compiles_lints_and_round_trips(scenario, compiled_at_test_scale):
    compiled, shapes = compiled_at_test_scale(scenario)

    # The scenario's declared shapes compile too (bench/paper entries).
    compile_spec(scenario.kernel_spec(), shapes=scenario.shapes())

    # The seed schedule is verifier-clean.
    result = ScheduleVerifier(compiled.kernel).lint_seed()
    assert result.ok, result.render(scenario.id)

    # The functional simulation round-trips the numpy oracle on the
    # scenario's own backend (within the probabilistic-test tolerances).
    spec = scenario.kernel_spec()
    simulator = create_backend(scenario.backend)
    rng = np.random.default_rng(0)
    inputs = spec.make_inputs(rng, shapes)
    expected = spec.reference(inputs, shapes)
    run = compiled.run(simulator, dict(inputs))
    for name, exp in expected.items():
        got = np.asarray(run.outputs[name], dtype=np.float32)
        exp32 = exp.astype(np.float32)
        err = np.abs(got - exp32) / np.maximum(np.abs(exp32), 1.0)
        assert float(err.max()) < 2e-2, f"{scenario.id}: {name} err {err.max()}"


# ---------------------------------------------------------------------------
# Registry semantics: canonicalization, filters, lookup errors
# ---------------------------------------------------------------------------
def test_register_scenario_canonicalizes_aliases():
    scenario = register_scenario(
        Scenario(
            kernel="SOFTMAX",
            backend="a100",
            regime="DETERMINISTIC",
            preset="Smoke",
            variant="canon-check",
        )
    )
    # Aliases resolve to canonical names before the id is formed.
    assert scenario.kernel == "softmax"
    assert scenario.backend == "A100-80GB-PCIe"
    assert scenario.regime == "default"
    assert scenario.preset == "smoke"
    assert get_scenario(scenario.id) == scenario


def test_register_scenario_rejects_conflicting_duplicate_and_bad_axes():
    with pytest.raises(ValueError, match="variant"):
        register_scenario(
            Scenario(kernel="softmax", backend="A100", description="different payload")
        )
    with pytest.raises(KeyError, match="unknown kernel"):
        register_scenario(Scenario(kernel="nope", backend="A100"))
    with pytest.raises(KeyError, match="unknown GPU backend"):
        register_scenario(Scenario(kernel="softmax", backend="B200"))
    with pytest.raises(KeyError, match="unknown measurement regime"):
        register_scenario(Scenario(kernel="softmax", backend="A100", regime="wild"))
    with pytest.raises(ValueError, match="unknown scale"):
        register_scenario(Scenario(kernel="softmax", backend="A100", scale="huge"))


def test_scenarios_matching_filters():
    assert scenarios_matching("softmax/*/test/*")
    assert all(s.kernel == "softmax" for s in scenarios_matching(kernel="SoftMax"))
    assert all(s.backend == "H100-80GB-SXM" for s in scenarios_matching(backend="h100"))
    assert all(s.regime == "noisy" for s in scenarios_matching(regime="noisy"))
    assert all(s.scale == "bench" for s in scenarios_matching(scale="bench"))
    substring = scenarios_matching("/H100/")
    assert substring and all("/H100/" in s.id for s in substring)
    assert scenarios_matching("no-such-kernel/*") == ()


def test_get_scenario_unknown_id_is_helpful():
    with pytest.raises(
        KeyError, match="unknown scenario 'softmax/B200/test/default'; available: "
    ):
        get_scenario("softmax/B200/test/default")


def test_scenario_resolves_configs():
    scenario = get_scenario("softmax/A100/test/noisy")
    assert scenario.measurement_policy().noise_std > 0
    config = scenario.optimization_config()
    assert config.scale == "test"
    assert config.strategy == preset_spec("smoke").config.strategy
    adversarial = get_scenario("softmax/A100/test/default/regpressure")
    assert adversarial.shapes()["n_cols"] == 1536


# ---------------------------------------------------------------------------
# Kernel registry parity with the backend registry (ISSUE-7 satellite)
# ---------------------------------------------------------------------------
def test_get_spec_is_case_insensitive_with_aliases():
    assert get_spec("SOFTMAX").name == "softmax"
    assert get_spec("attention").name == "flash-attention"
    assert get_spec("Flash_Attention").name == "flash-attention"
    assert get_spec("moe-dispatch").name == "seg-scan"
    assert get_spec("LayerNorm").name == "layernorm-residual"


def test_get_spec_keyerror_mirrors_backend_spec_style():
    with pytest.raises(KeyError, match="unknown kernel 'nope'; available:"):
        get_spec("nope")
    with pytest.raises(KeyError, match="unknown GPU backend 'nope'; available:"):
        backend_spec("nope")


def test_available_kernels_mirrors_available_backends():
    kernels = available_kernels()
    assert kernels == tuple(sorted(kernels))
    assert set(available_kernels(tags=("table2",))) <= set(kernels)
    assert available_kernels(tags=("no-such-tag",)) == ()
    # Backend registry grew the same tag filter.
    assert "H100-80GB-SXM" in available_backends(tags=("hopper",))
    assert set(available_backends(tags=("ampere",))) < set(available_backends())


def test_regime_and_preset_registries_follow_the_idiom():
    assert "default" in available_regimes()
    assert regime_spec("DETERMINISTIC").name == "default"
    assert regime_spec("noisy").policy.noise_std > 0
    assert available_regimes(tags=("adversarial",)) == ("noisy",)
    with pytest.raises(KeyError, match="unknown measurement regime"):
        regime_spec("nope")

    assert "smoke" in available_presets()
    assert preset_spec("PPO").name == "default"
    assert preset_spec("greedy-smoke").config.strategy == "greedy"
    with pytest.raises(KeyError, match="unknown optimization preset"):
        preset_spec("nope")


# ---------------------------------------------------------------------------
# Serving integration: scenarios through SessionPool / JobQueue
# ---------------------------------------------------------------------------
def test_pool_for_scenarios_and_submit_scenario():
    group = [
        get_scenario("softmax/A100/test/default"),
        get_scenario("softmax/H100/test/default"),
        get_scenario("softmax/A100/test/default/regpressure"),
    ]
    pool = SessionPool.for_scenarios(
        group,
        config=group[0].optimization_config(),
        measurement=group[0].measurement_policy(),
        cache=CacheConfig(enabled=False),
    )
    try:
        assert [w.backend for w in pool.workers] == ["A100-80GB-PCIe", "H100-80GB-SXM"]
        queue = pool.serve()
        handles = [queue.submit_scenario(s) for s in group]
        reports = [h.result(timeout=120) for h in handles]
        for scenario, report in zip(group, reports):
            assert not report.failed, report.error
            assert report.kernel == "softmax"
            assert report.gpu == scenario.backend
            assert report.shapes == scenario.shapes()
    finally:
        pool.close()


def test_for_scenarios_requires_scenarios():
    with pytest.raises(ValueError, match="at least one scenario"):
        SessionPool.for_scenarios([])


# ---------------------------------------------------------------------------
# Suite runner CLI
# ---------------------------------------------------------------------------
def _run_cli(*args, cwd=None):
    env_path = str(REPO_ROOT / "src")
    return subprocess.run(
        [sys.executable, "-m", "repro.scenarios.run", *args],
        capture_output=True,
        text=True,
        cwd=cwd or REPO_ROOT,
        env={"PYTHONPATH": env_path, "PATH": "/usr/bin:/bin:/usr/local/bin"},
    )


def test_run_cli_list_enumerates_matrix():
    proc = _run_cli("--list")
    assert proc.returncode == 0, proc.stderr
    ids = proc.stdout.split()
    assert len(ids) >= 20
    assert "softmax/A100/test/noisy" in ids


def test_run_cli_unmatched_filter_is_usage_error():
    proc = _run_cli("definitely-not-a-scenario")
    assert proc.returncode == 2
    assert "no scenario matches" in proc.stderr


def test_run_cli_emits_bench_json_per_scenario(tmp_path):
    proc = _run_cli(
        "--kernel", "bmm", "--scale", "test", "--max-scenarios", "2",
        "--out-dir", str(tmp_path),
    )
    assert proc.returncode == 0, proc.stderr + proc.stdout
    written = sorted(tmp_path.glob("BENCH_*.json"))
    assert len(written) == 2
    for path in written:
        payload = json.loads(path.read_text())
        scenario = get_scenario(payload["scenario"]["id"])
        assert path.name == bench_filename(scenario)
        assert payload["report"]["kernel"] == "bmm"
        assert payload["report"]["error"] is None
        assert payload["report"]["best_time_ms"] > 0
