"""Search-strategy protocol and registry: RL and the §7 baselines, one interface.

The paper frames SASS scheduling as a game played by a PPO agent (§3), and
discusses training-free alternatives — random search, greedy hill-climbing,
evolutionary search — as §7 ablations.  Here all four are interchangeable
behind ``Session.optimize(spec, strategy=...)``: each is a frozen-dataclass
strategy registered by name in :data:`STRATEGIES`, consuming one
:class:`StrategyContext` and producing one :class:`StrategyOutcome`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol, runtime_checkable

from repro.api.config import MeasurementPolicy, OptimizationConfig
from repro.baselines.search import (
    ScheduleSearchResult,
    run_evolutionary_search,
    run_greedy_search,
    run_random_search,
)
from repro.core.trainer import CuAsmRLTrainer
from repro.sass.kernel import SassKernel
from repro.sim.gpu import GPUSimulator, MeasurementConfig
from repro.triton.compiler import CompiledKernel
from repro.utils.registry import Registry


@dataclass(frozen=True)
class StrategyContext:
    """Everything a strategy needs to run: the compiled kernel and the knobs."""

    compiled: CompiledKernel
    simulator: GPUSimulator
    config: OptimizationConfig
    #: How candidates are measured (protocol, service backend, memoization)
    #: plus the session's per-run hooks; hand it on to the search unchanged.
    policy: MeasurementPolicy = field(default_factory=MeasurementPolicy)

    @property
    def measurement(self) -> MeasurementConfig:
        """The lowered per-call protocol record, for direct simulator calls."""
        return self.policy.to_measurement_config()


@dataclass(frozen=True)
class StrategyOutcome:
    """What every strategy returns: the best schedule found and its cost."""

    strategy: str
    baseline_time_ms: float
    best_time_ms: float
    best_kernel: SassKernel
    evaluations: int
    details: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def speedup(self) -> float:
        return self.baseline_time_ms / self.best_time_ms if self.best_time_ms else 1.0


@runtime_checkable
class SearchStrategy(Protocol):
    """A schedule-search algorithm pluggable into a Session."""

    name: str

    def run(self, context: StrategyContext) -> StrategyOutcome:  # pragma: no cover - protocol
        ...


STRATEGIES: Registry[SearchStrategy] = Registry("strategy")


def register_strategy(name: str):
    """Class decorator: instantiate the strategy dataclass and register it."""

    def decorator(cls):
        STRATEGIES.add(name, cls())
        return cls

    return decorator


get_strategy = STRATEGIES.get
available_strategies = STRATEGIES.names


def _from_search(result: ScheduleSearchResult) -> StrategyOutcome:
    return StrategyOutcome(
        strategy=result.method,
        baseline_time_ms=result.baseline_time_ms,
        best_time_ms=result.best_time_ms,
        best_kernel=result.best_kernel,
        evaluations=result.evaluations,
        details={
            "history": list(result.history),
            "measurement": dict(result.measurement_stats),
            "invalid_actions": result.invalid_actions,
        },
    )


# ---------------------------------------------------------------------------
# Built-in strategies
# ---------------------------------------------------------------------------
@register_strategy("ppo")
@dataclass(frozen=True)
class PPOStrategy:
    """The paper's approach: a PPO agent plays the assembly game (§3)."""

    name: str = "ppo"

    def run(self, context: StrategyContext) -> StrategyOutcome:
        config = context.config
        trainer = CuAsmRLTrainer(
            context.compiled,
            context.simulator,
            ppo_config=config.ppo_config(),
            episode_length=config.episode_length,
            policy=context.policy,
        )
        result = trainer.train(config.train_timesteps)
        details: dict = {"history": result.history, "episodes": result.episodes}
        if config.trace:
            details["moves"] = trainer.trace_inference(seed=config.seed)
        details["measurement"] = trainer.env.measurement_stats.as_dict()
        details["invalid_actions"] = trainer.env.invalid_actions
        return StrategyOutcome(
            strategy=self.name,
            baseline_time_ms=result.baseline_time_ms,
            best_time_ms=result.best_time_ms,
            best_kernel=result.best_kernel,
            # PPO runs whole rollouts: max(1, T // num_steps) * num_steps moves.
            evaluations=trainer.agent.global_step,
            details=details,
        )


@register_strategy("random")
@dataclass(frozen=True)
class RandomSearchStrategy:
    """Uniform random valid moves until the budget is exhausted (§7)."""

    name: str = "random"

    def run(self, context: StrategyContext) -> StrategyOutcome:
        config = context.config
        return _from_search(
            run_random_search(
                context.compiled,
                budget=config.search_budget,
                episode_length=config.episode_length,
                simulator=context.simulator,
                seed=config.seed,
                policy=context.policy,
            )
        )


@register_strategy("greedy")
@dataclass(frozen=True)
class GreedySearchStrategy:
    """Greedy hill-climbing over single moves; the expert-scheduling stand-in."""

    name: str = "greedy"

    def run(self, context: StrategyContext) -> StrategyOutcome:
        config = context.config
        return _from_search(
            run_greedy_search(
                context.compiled,
                budget=config.search_budget,
                episode_length=config.episode_length,
                simulator=context.simulator,
                policy=context.policy,
            )
        )


@register_strategy("evolutionary")
@dataclass(frozen=True)
class EvolutionarySearchStrategy:
    """(mu + lambda)-style evolution over move sequences (§7)."""

    name: str = "evolutionary"

    def run(self, context: StrategyContext) -> StrategyOutcome:
        config = context.config
        return _from_search(
            run_evolutionary_search(
                context.compiled,
                population=config.population,
                generations=config.generations,
                moves_per_individual=config.moves_per_individual,
                episode_length=config.episode_length,
                simulator=context.simulator,
                seed=config.seed,
                policy=context.policy,
            )
        )
