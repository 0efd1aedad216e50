"""Public API of the CuAsmRL reproduction: the Session facade and registries.

This package is the single supported entry point for the paper's
optimize-once / deploy-from-cache workflow (§4):

* :class:`Session` — owns the GPU backend, cubin cache and measurement
  policy; ``compile`` / ``optimize`` / ``deploy`` / ``optimize_many``.  Its
  :class:`MeasurementPolicy`, with the per-run :class:`SessionHooks` folded
  in, is handed unchanged through the strategy and search to the
  measurement service.
* Strategy registry — ``strategy="ppo"`` (§3) and the §7 baselines
  (``"greedy"``, ``"random"``, ``"evolutionary"``) behind one interface;
  extend with :func:`register_strategy`.
* Backend registry — simulated GPU targets keyed by name; extend with
  :func:`register_backend`.
* Regime / preset registries — named :class:`MeasurementPolicy` and
  :class:`OptimizationConfig` presets (:func:`register_regime`,
  :func:`register_preset`); composed with kernels and backends into the
  declarative scenario matrix of :mod:`repro.scenarios`.

Scale-out lives in :mod:`repro.pool`: a :class:`~repro.pool.SessionPool`
shards ``optimize_many`` workloads across several worker sessions and returns
a :class:`PoolReport`; :class:`PoolConfig` here shapes it.
"""

from repro.api.backends import (
    BackendSpec,
    available_backends,
    backend_spec,
    create_backend,
    register_backend,
    resolve_backend,
)
from repro.api.config import (
    CacheConfig,
    MeasurementPolicy,
    OptimizationConfig,
    PoolConfig,
    RemoteConfig,
    RetryPolicy,
    ServeConfig,
)
from repro.api.presets import (
    PresetSpec,
    available_presets,
    preset_spec,
    register_preset,
)
from repro.api.regimes import (
    RegimeSpec,
    available_regimes,
    regime_spec,
    register_regime,
)
from repro.api.report import JobRecord, JobStatus, PoolReport, RunReport, WorkerReport
from repro.api.session import Session, SessionHooks
from repro.api.strategies import (
    SearchStrategy,
    StrategyContext,
    StrategyOutcome,
    available_strategies,
    get_strategy,
    register_strategy,
)

__all__ = [
    "Session",
    "SessionHooks",
    "RunReport",
    "PoolReport",
    "WorkerReport",
    "JobStatus",
    "JobRecord",
    "OptimizationConfig",
    "MeasurementPolicy",
    "CacheConfig",
    "PoolConfig",
    "ServeConfig",
    "RemoteConfig",
    "RetryPolicy",
    "SearchStrategy",
    "StrategyContext",
    "StrategyOutcome",
    "register_strategy",
    "get_strategy",
    "available_strategies",
    "BackendSpec",
    "register_backend",
    "backend_spec",
    "create_backend",
    "resolve_backend",
    "available_backends",
    "RegimeSpec",
    "register_regime",
    "regime_spec",
    "available_regimes",
    "PresetSpec",
    "register_preset",
    "preset_spec",
    "available_presets",
]
