"""The assembly game environment (§3.3–3.6, Figure 3 of the paper).

State: the embedding matrix of the current SASS schedule.  Action: pick a
memory load/store instruction and swap it with the instruction above/below.
Reward: the relative runtime improvement of the mutated schedule, measured by
executing the re-assembled kernel on the (simulated) GPU:

    R_i = (T_{i-1} - T_i) / T_0 * 100                         (Eq. 3)

Episodes start from the ``-O3`` schedule, run for a fixed number of moves
(32 by default) and terminate early when no valid action remains.  The best
schedule seen across all episodes is tracked for deployment.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.analysis.passes import PreGameAnalysis, run_pre_game_analysis
from repro.analysis.verify import ScheduleVerifier, seed_verifier
from repro.core.actions import ActionSpace
from repro.core.embedding import StateEmbedder
from repro.core.masking import ActionMasker
from repro.errors import EnvironmentError_
from repro.rl.env_api import Box, Discrete, Env
from repro.sass.kernel import SassKernel
from repro.sim.gpu import GPUSimulator
from repro.sim.measure_service import (
    MeasurementPolicy,
    MeasurementStats,
    create_measurement_service,
    listing_memo_scope,
    workload_memo_scope,
)
from repro.sim.program import decode_program
from repro.triton.compiler import CompiledKernel
from repro.utils.logging import get_logger

_LOG = get_logger("core.env")


@dataclass
class EpisodeRecord:
    """Trace of one episode: actions taken and runtimes observed (§5.7)."""

    actions: list[int] = field(default_factory=list)
    runtimes_ms: list[float] = field(default_factory=list)
    rewards: list[float] = field(default_factory=list)
    total_reward: float = 0.0


class AssemblyGame(Env):
    """Gym-style environment that mutates a SASS schedule and measures it.

    Under a pool's shared memo table, the measurement service stores a
    candidate the seed's verifier admits under the seed listing's scope, so
    every workload that compiles to the same listing reuses its timings;
    any other candidate is stored under this workload's scope.  The
    verifier is built before the service, which binds its ``is_legal``.
    """

    def __init__(
        self,
        compiled: CompiledKernel,
        simulator: GPUSimulator | None = None,
        *,
        episode_length: int = 32,
        policy: MeasurementPolicy | None = None,
        inputs: dict | None = None,
        input_seed: int = 0,
    ):
        self.compiled = compiled
        self.simulator = simulator or GPUSimulator()
        self.episode_length = int(episode_length)
        policy = policy or MeasurementPolicy()
        self.inputs = inputs if inputs is not None else compiled.make_inputs(input_seed)
        self.initial_kernel: SassKernel = compiled.kernel
        # Warm the decoded-program cache for the -O3 schedule: the baseline
        # measurement below and every mutated candidate (which shares almost
        # all instruction objects with the baseline) decode against it.
        decode_program(self.initial_kernel)
        #: The seed listing's shared verifier; the searches prune
        #: statically-illegal candidates with its
        #: :meth:`~repro.analysis.verify.ScheduleVerifier.is_legal` fast path
        #: before measuring them, and the measurement service keys the
        #: shared memo with it.
        self.verifier: ScheduleVerifier = seed_verifier(self.initial_kernel)
        memo_scope = listing_scope = ""
        if policy.shared_memo is not None and inputs is not None:
            # Explicit input tensors are not captured by the workload scope
            # key, so cross-session sharing could alias distinct workloads;
            # fall back to a private memo for this env.
            policy = replace(policy, shared_memo=None, memoize=True)
        elif policy.shared_memo is not None:
            measurement = policy.to_measurement_config()
            memo_scope = workload_memo_scope(
                self.simulator.config.name,
                compiled.kernel.metadata.name,
                compiled.shapes,
                compiled.config,
                measurement,
                input_seed,
            )
            listing_scope = listing_memo_scope(
                self.simulator,
                self.initial_kernel,
                compiled.grid,
                self.inputs,
                compiled.param_order,
                measurement,
            )
        self.measure_service = create_measurement_service(
            self.simulator,
            compiled.grid,
            self.inputs,
            compiled.param_order,
            policy,
            memo_scope=memo_scope,
            listing_scope=listing_scope,
            is_legal=self.verifier.is_legal,
        )

        # Pre-game static analysis on the -O3 schedule (§3.2), reading the
        # verifier's graph.
        self.analysis: PreGameAnalysis = run_pre_game_analysis(self.initial_kernel)
        if not self.analysis.candidate_indices:
            raise EnvironmentError_(
                f"kernel {self.initial_kernel.metadata.name!r} has no actionable memory instructions"
            )
        self.embedder = StateEmbedder(self.initial_kernel, self.analysis.embedding)
        self.action_space_map = ActionSpace(self.initial_kernel, self.analysis.candidate_indices)
        self.masker = ActionMasker(self.action_space_map, self.analysis.stalls)
        self._initial_mask = self._frozen_mask(self.initial_kernel)
        self._mask_kernel, self._mask = self.initial_kernel, self._initial_mask

        self.observation_space = Box(self.embedder.shape)
        self.action_space = Discrete(self.action_space_map.n)

        # Baseline runtime T0 of the -O3 schedule.
        self.baseline_time_ms = self.measure_candidate(self.initial_kernel)
        self.best_time_ms = self.baseline_time_ms
        self.best_kernel = self.initial_kernel
        self.episodes: list[EpisodeRecord] = []
        #: Unmasked-but-invalid actions swallowed by :meth:`step`; a non-zero
        #: count from a mask-respecting agent means the masking has drifted.
        self.invalid_actions = 0

        self._kernel = self.initial_kernel
        self._previous_time_ms = self.baseline_time_ms
        self._steps = 0
        self._record = EpisodeRecord()
        self._record_open = True

    # ------------------------------------------------------------------
    # Candidate measurement (public: searches batch-probe through these)
    # ------------------------------------------------------------------
    def measure_candidate(self, kernel: SassKernel) -> float:
        """Runtime of one candidate schedule under this env's measurement policy.

        Probing a candidate does not advance the episode; committing a move is
        still :meth:`step`.
        """
        return self.measure_service.measure(kernel).time_ms

    def measure_candidates(self, kernels: list[SassKernel]) -> list[float]:
        """Measure candidate schedules, results in input order."""
        return [timing.time_ms for timing in self.measure_service.measure_batch(kernels)]

    @property
    def measurement_stats(self) -> MeasurementStats:
        """Raw-measurement / memoization counters of the measurement service."""
        return self.measure_service.stats

    def _measure(self, kernel: SassKernel) -> float:
        return self.measure_candidate(kernel)

    # ------------------------------------------------------------------
    # Gym interface
    # ------------------------------------------------------------------
    def reset(self, *, seed: int | None = None) -> tuple[np.ndarray, dict]:
        self._kernel = self.initial_kernel
        self._previous_time_ms = self.baseline_time_ms
        self._steps = 0
        self._record = EpisodeRecord()
        self._record_open = True
        observation = self.embedder.embed(self._kernel)
        return observation, {"baseline_time_ms": self.baseline_time_ms}

    def restore_schedule(
        self,
        swaps,
        *,
        best_swaps=None,
        best_time_ms: float | None = None,
    ) -> float:
        """Rebuild the episode state from a committed-swap history (resume).

        ``swaps`` is the ``(source, destination)`` sequence of committed
        :meth:`step` moves since the last reset; the current kernel is rebuilt
        by replaying them onto the ``-O3`` seed and re-measured (one
        measurement, typically a memo hit).  ``best_swaps``/``best_time_ms``
        restore the best-so-far tracking; when omitted, the rebuilt current
        schedule is the best.  Returns the re-measured current runtime.
        """
        swaps = [tuple(move) for move in swaps]
        kernel = self.initial_kernel
        for source, destination in swaps:
            kernel = kernel.swap(int(source), int(destination))
        self._kernel = kernel
        self._previous_time_ms = self._measure(kernel)
        self._steps = min(len(swaps), self.episode_length)
        self._record = EpisodeRecord()
        self._record_open = True
        if best_swaps is not None:
            best = self.initial_kernel
            for source, destination in best_swaps:
                best = best.swap(int(source), int(destination))
            self.best_kernel = best
            self.best_time_ms = (
                float(best_time_ms) if best_time_ms is not None else self._measure(best)
            )
        if self._previous_time_ms < self.best_time_ms:
            self.best_time_ms = self._previous_time_ms
            self.best_kernel = self._kernel
        return self._previous_time_ms

    def _finish_episode(self) -> None:
        """Append the current episode record exactly once per episode.

        Both episode-end paths — the fixed move horizon (truncation) and
        running out of valid actions (termination, §3.5) — close the record;
        steps taken past the end of a closed episode are not recorded.
        """
        if self._record_open:
            self.episodes.append(self._record)
            self._record = EpisodeRecord()
            self._record_open = False

    def action_masks(self) -> np.ndarray:
        """The legal-move mask of the current schedule (read-only).

        Computed once per schedule object and shared by every caller until
        the schedule changes; the ``-O3`` seed's mask is kept across resets.
        :meth:`step` validates its action against the same array.
        """
        kernel = self._kernel
        if kernel is not self._mask_kernel:
            mask = self._initial_mask if kernel is self.initial_kernel else self._frozen_mask(kernel)
            self._mask_kernel, self._mask = kernel, mask
        return self._mask

    def _frozen_mask(self, kernel: SassKernel) -> np.ndarray:
        mask = self.masker.mask(kernel)
        mask.flags.writeable = False
        return mask

    def step(self, action: int) -> tuple[np.ndarray, float, bool, bool, dict]:
        mask = self.action_masks()
        if not mask.any():
            # No valid action: terminate immediately (§3.5).
            observation = self.embedder.embed(self._kernel)
            self._finish_episode()
            return observation, 0.0, True, False, {"terminated_no_actions": True}
        if not mask[action]:
            # An invalid action should have been masked by the agent; treat it
            # as a no-op with zero reward so training remains well defined.
            self.invalid_actions += 1
            log = _LOG.warning if self.invalid_actions == 1 else _LOG.debug
            log(
                "%s: invalid action %d swallowed (%d so far); a mask-respecting "
                "agent should never send one — check for masking drift",
                self.initial_kernel.metadata.name,
                action,
                self.invalid_actions,
            )
            observation = self.embedder.embed(self._kernel)
            self._steps += 1
            truncated = self._steps >= self.episode_length
            if truncated:
                self._finish_episode()
            return observation, 0.0, False, truncated, {"invalid_action": True}

        source, destination = self.action_space_map.target_indices(self._kernel, action)
        self._kernel = self._kernel.swap(source, destination)

        time_ms = self._measure(self._kernel)
        reward = (self._previous_time_ms - time_ms) / self.baseline_time_ms * 100.0
        self._previous_time_ms = time_ms
        self._steps += 1

        self._record.actions.append(int(action))
        self._record.runtimes_ms.append(time_ms)
        self._record.rewards.append(float(reward))
        self._record.total_reward += float(reward)

        if time_ms < self.best_time_ms:
            self.best_time_ms = time_ms
            self.best_kernel = self._kernel
            _LOG.debug("new best schedule: %.4f ms (baseline %.4f)", time_ms, self.baseline_time_ms)

        truncated = self._steps >= self.episode_length
        if truncated:
            self._finish_episode()
        observation = self.embedder.embed(self._kernel)
        info = {
            "time_ms": time_ms,
            "best_time_ms": self.best_time_ms,
            "swap": (source, destination),
        }
        return observation, float(reward), False, truncated, info

    # ------------------------------------------------------------------
    @property
    def current_kernel(self) -> SassKernel:
        return self._kernel

    @property
    def current_time_ms(self) -> float:
        """Runtime of the current schedule (T_{i-1} of Eq. 3)."""
        return self._previous_time_ms
