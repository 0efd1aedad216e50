"""CuAsmRL training, inference and move tracing.

Wraps the generic PPO trainer around the assembly game, tracks the best
schedule found (the artifact written to the deploy cache, §4.2), and supports
the deterministic inference mode the paper uses to reveal the learned
optimization moves (§5.7).  Verifying the best schedule is the job of
:class:`repro.api.Session`'s verify modes.
"""

from __future__ import annotations

from dataclasses import dataclass, field


from repro.core.env import AssemblyGame, EpisodeRecord
from repro.rl.policy import ActorCritic
from repro.rl.ppo import PPOConfig, PPOTrainer, TrainingHistory
from repro.sass.instruction import Instruction
from repro.sass.kernel import SassKernel
from repro.sim.gpu import GPUSimulator
from repro.sim.measure_service import MeasurementPolicy
from repro.triton.compiler import CompiledKernel
from repro.utils.rng import as_rng


@dataclass
class OptimizationMove:
    """One reordering applied during an episode (Figures 9 and 13)."""

    step: int
    action: int
    moved_instruction: str
    swapped_with: str
    direction: str
    time_ms: float
    reward: float


@dataclass
class OptimizationResult:
    """Outcome of one CuAsmRL optimization run for one kernel."""

    kernel_name: str
    baseline_time_ms: float
    best_time_ms: float
    best_kernel: SassKernel
    #: PPO training diagnostics; ``None`` for training-free strategies.
    history: TrainingHistory | None = None
    episodes: list[EpisodeRecord] = field(default_factory=list)

    @property
    def speedup(self) -> float:
        return self.baseline_time_ms / self.best_time_ms if self.best_time_ms else 1.0

    def summary(self) -> dict:
        return {
            "kernel": self.kernel_name,
            "baseline_time_ms": self.baseline_time_ms,
            "best_time_ms": self.best_time_ms,
            "speedup": self.speedup,
            "episodes": len(self.episodes),
            "best_episodic_return": None if self.history is None else self.history.best_return(),
        }


class CuAsmRLTrainer:
    """Trains a PPO agent to play the assembly game for one compiled kernel."""

    def __init__(
        self,
        compiled: CompiledKernel,
        simulator: GPUSimulator | None = None,
        *,
        ppo_config: PPOConfig | None = None,
        episode_length: int = 32,
        input_seed: int = 0,
        policy: MeasurementPolicy | None = None,
    ):
        self.compiled = compiled
        self.simulator = simulator or GPUSimulator()
        self.ppo_config = ppo_config or PPOConfig(num_steps=episode_length)
        self.env = AssemblyGame(
            compiled,
            self.simulator,
            episode_length=episode_length,
            policy=policy,
            input_seed=input_seed,
        )
        self.agent = PPOTrainer(self.env, self.ppo_config)

    # ------------------------------------------------------------------
    def train(self, total_timesteps: int) -> OptimizationResult:
        """Run the assembly game for ``total_timesteps`` moves."""
        history = self.agent.train(total_timesteps)
        return OptimizationResult(
            kernel_name=self.compiled.kernel.metadata.name,
            baseline_time_ms=self.env.baseline_time_ms,
            best_time_ms=self.env.best_time_ms,
            best_kernel=self.env.best_kernel,
            history=history,
            episodes=list(self.env.episodes),
        )

    # ------------------------------------------------------------------
    def trace_inference(self, *, seed: int = 0, deterministic: bool = True) -> list[OptimizationMove]:
        """Replay one episode with the trained policy and record every move (§5.7).

        The inference process is seeded and deterministic so the discovered
        optimization moves can be inspected and reproduced.
        """
        rng = as_rng(seed)
        observation, _ = self.env.reset(seed=seed)
        moves: list[OptimizationMove] = []
        for step in range(self.env.episode_length):
            mask = self.env.action_masks()
            if not mask.any():
                break
            action, _, _ = self.agent.policy.act(observation, mask, rng, deterministic=deterministic)
            kernel_before = self.env.current_kernel
            observation, reward, terminated, truncated, info = self.env.step(action)
            if "swap" in info:
                source, destination = info["swap"]
                moved = kernel_before.lines[source]
                other = kernel_before.lines[destination]
                moves.append(
                    OptimizationMove(
                        step=step,
                        action=int(action),
                        moved_instruction=moved.render() if isinstance(moved, Instruction) else str(moved),
                        swapped_with=other.render() if isinstance(other, Instruction) else str(other),
                        direction="up" if destination < source else "down",
                        time_ms=float(info.get("time_ms", float("nan"))),
                        reward=float(reward),
                    )
                )
            if terminated or truncated:
                break
        return moves

    # ------------------------------------------------------------------
    @property
    def policy(self) -> ActorCritic:
        return self.agent.policy
