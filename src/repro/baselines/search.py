"""Search-based schedule optimizers (discussed as alternatives in §7).

The paper's reordering formulation also admits training-free search
algorithms: random search, greedy hill-climbing and a simple evolutionary
strategy.  They reuse the same action space, masking and reward machinery as
the RL agent so the comparison is apples-to-apples — and they serve as
ablation baselines for the RL choice.

The ``run_*`` functions are the engine; the preferred entry point is the
strategy registry behind ``repro.api.Session.optimize(spec, strategy=...)``.
Each takes one :class:`~repro.sim.measure_service.MeasurementPolicy`: it
configures the env's measurement service and carries the ``save_state`` /
``resume_state`` checkpoint hooks the searches read.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.env import AssemblyGame
from repro.sass.kernel import SassKernel
from repro.sim.gpu import GPUSimulator
from repro.sim.measure_service import MeasurementPolicy
from repro.triton.compiler import CompiledKernel
from repro.utils.logging import get_logger
from repro.utils.rng import as_rng

_LOG = get_logger("baselines.search")


@dataclass
class ScheduleSearchResult:
    """Outcome of a search-based optimization run."""

    method: str
    baseline_time_ms: float
    best_time_ms: float
    best_kernel: SassKernel
    evaluations: int
    history: list[float] = field(default_factory=list)
    #: Measurement-service counters (submitted / measured / memo hits / pruned).
    measurement_stats: dict = field(default_factory=dict)
    #: Unmasked-but-invalid actions the env swallowed during the search.
    invalid_actions: int = 0
    #: Evaluations already consumed when this run resumed from a checkpoint
    #: (0 for a fresh search); final ``evaluations`` includes them, so the
    #: budget is honored across the interruption.
    resumed_from: int = 0

    @property
    def speedup(self) -> float:
        return self.baseline_time_ms / self.best_time_ms if self.best_time_ms else 1.0


def _resume_search(env: AssemblyGame, resume_state, method: str):
    """Restore env + counters from a ``save_state`` snapshot, if compatible.

    Returns ``(evaluations, episode_swaps, best_swaps)``; on any mismatch or
    malformed payload the search starts fresh (``(0, [], [])``) — a stale or
    foreign checkpoint must never corrupt a run.
    """
    fresh = (0, [], [])
    if not isinstance(resume_state, dict) or resume_state.get("strategy") != method:
        if resume_state is not None:
            _LOG.warning(
                "%s: ignoring incompatible resume state (strategy=%r); starting fresh",
                method,
                resume_state.get("strategy") if isinstance(resume_state, dict) else type(resume_state),
            )
        return fresh
    try:
        swaps = [
            (int(source), int(destination))
            for source, destination in resume_state.get("swaps", ())
        ]
        best_swaps = [
            (int(source), int(destination))
            for source, destination in resume_state.get("best_swaps", ())
        ]
        evaluations = max(0, int(resume_state.get("evaluations", 0)))
        best_time_ms = resume_state.get("best_time_ms")
        env.restore_schedule(
            swaps,
            best_swaps=best_swaps,
            best_time_ms=float(best_time_ms) if best_time_ms is not None else None,
        )
        # The restore re-measurement above is a real measurement tick: count
        # it so the total budget stays honest across the interruption.
        evaluations += 1
        _LOG.info(
            "%s: resumed from checkpoint at %d evaluation(s), %d committed move(s)",
            method,
            evaluations,
            len(swaps),
        )
        return evaluations, swaps, best_swaps
    except Exception as exc:
        _LOG.warning("%s: could not resume from checkpoint (%s); starting fresh", method, exc)
        env.reset()
        return fresh


def run_random_search(
    compiled: CompiledKernel,
    *,
    budget: int = 64,
    episode_length: int = 32,
    simulator: GPUSimulator | None = None,
    seed: int = 0,
    policy: MeasurementPolicy | None = None,
) -> ScheduleSearchResult:
    """Uniform random valid moves until the evaluation budget is exhausted.

    The policy's ``save_state``/``resume_state`` make the search resumable:
    after every committed step the full search state — committed swaps of the
    current episode, best schedule's swap path, evaluations consumed and the
    RNG stream position — is exported, and an interrupted run restarted with
    the last snapshot continues the same move sequence within the same budget.
    """
    policy = policy or MeasurementPolicy()
    save_state, resume_state = policy.save_state, policy.resume_state
    env = AssemblyGame(compiled, simulator, episode_length=episode_length, policy=policy)
    rng = as_rng(seed)
    env.reset()
    evaluations, episode_swaps, best_swaps = _resume_search(env, resume_state, "random")
    resumed_from = evaluations
    if resumed_from and isinstance(resume_state, dict):
        rng_state = resume_state.get("rng_state")
        if rng_state is not None:
            try:
                rng.bit_generator.state = rng_state
            except Exception as exc:
                _LOG.warning("random: could not restore RNG stream (%s)", exc)
    history = []

    def export_state() -> None:
        if save_state is None:
            return
        save_state({
            "strategy": "random",
            "evaluations": evaluations,
            "swaps": [list(move) for move in episode_swaps],
            "best_swaps": [list(move) for move in best_swaps],
            "best_time_ms": env.best_time_ms,
            "rng_state": rng.bit_generator.state,
        })

    while evaluations < budget:
        mask = env.action_masks()
        valid = np.flatnonzero(mask)
        if len(valid) == 0:
            # A freshly reset schedule with no legal move: nothing to search.
            if not history and not resumed_from:
                break
            env.reset()
            episode_swaps = []
            continue
        action = int(rng.choice(valid))
        previous_best = env.best_time_ms
        _, _, terminated, truncated, info = env.step(action)
        evaluations += 1
        history.append(info.get("time_ms", env.best_time_ms))
        if "swap" in info:
            episode_swaps.append(tuple(info["swap"]))
        if env.best_time_ms < previous_best:
            best_swaps = list(episode_swaps)
        export_state()
        if terminated or truncated:
            env.reset()
            episode_swaps = []
    return ScheduleSearchResult(
        method="random",
        baseline_time_ms=env.baseline_time_ms,
        best_time_ms=env.best_time_ms,
        best_kernel=env.best_kernel,
        evaluations=evaluations,
        history=history,
        measurement_stats=env.measurement_stats.as_dict(),
        invalid_actions=env.invalid_actions,
        resumed_from=resumed_from,
    )


def run_greedy_search(
    compiled: CompiledKernel,
    *,
    budget: int = 128,
    episode_length: int = 64,
    simulator: GPUSimulator | None = None,
    policy: MeasurementPolicy | None = None,
) -> ScheduleSearchResult:
    """Greedy hill-climbing: at every step take the single move that improves
    the runtime the most; stop when no move improves or the budget runs out.

    The policy's ``save_state``/``resume_state`` make the climb resumable:
    after every committed move the search exports its committed-swap path and
    evaluation count, and an interrupted run restarted with the last snapshot
    replays the path (memo hits under a memoizing policy) and keeps climbing
    within the same budget.  Greedy improves monotonically, so the committed
    path *is* the best path — no separate best tracking rides the snapshot.

    Each round batch-measures *all* valid single-move candidates through the
    env's measurement service, then commits the winner with a real
    ``env.step``.  The committing step is
    a measurement too, so it counts against the budget — and under a
    memoizing policy it is a guaranteed memoization hit, as are probes of
    previously visited schedules (e.g. the swap that reverts the last move).

    This also serves as the stand-in for expert hand-scheduling (the vendor
    reference implementations) in the Figure 6 harness.
    """
    policy = policy or MeasurementPolicy()
    env = AssemblyGame(compiled, simulator, episode_length=episode_length, policy=policy)
    env.reset()
    evaluations, committed, _ = _resume_search(env, policy.resume_state, "greedy")
    resumed_from = evaluations
    history = []
    improved = True
    while improved and evaluations < budget:
        improved = False
        valid = list(np.flatnonzero(env.action_masks()))
        if not valid:
            break
        base_kernel = env.current_kernel
        base_time = env.current_time_ms
        # Probe at most budget-1 remaining candidates: the committing step
        # below is a measurement too and needs its own budget slot.
        actions = valid[: max(budget - evaluations - 1, 0)]
        candidates = [
            base_kernel.swap(*env.action_space_map.target_indices(base_kernel, action))
            for action in actions
        ]
        # Static pre-filter: every masked action should verify legal, so
        # anything pruned here is masking drift — skip its measurement and
        # leave a visible trace.
        legal = [env.verifier.is_legal(candidate) for candidate in candidates]
        if not all(legal):
            pruned = legal.count(False)
            env.measurement_stats.count_pruned(pruned)
            _LOG.warning(
                "greedy: pruned %d statically-illegal candidate(s) on %s; "
                "the action mask and the verifier disagree",
                pruned,
                base_kernel.metadata.name,
            )
            actions = [action for action, ok in zip(actions, legal) if ok]
            candidates = [candidate for candidate, ok in zip(candidates, legal) if ok]
        times = env.measure_candidates(candidates)
        evaluations += len(times)
        history.extend(times)
        if not times:
            break
        best_index = int(np.argmin(times))
        if times[best_index] >= base_time - 1e-12:
            break
        _, _, terminated, truncated, info = env.step(int(actions[best_index]))
        evaluations += 1
        history.append(info.get("time_ms", times[best_index]))
        improved = True
        if "swap" in info:
            committed.append(tuple(info["swap"]))
        if policy.save_state is not None:
            policy.save_state({
                "strategy": "greedy",
                "evaluations": evaluations,
                "swaps": [list(move) for move in committed],
                "best_swaps": [list(move) for move in committed],
                "best_time_ms": env.best_time_ms,
            })
        if terminated or truncated:
            # The episode is over (move horizon reached or no actions
            # left); stepping a finished episode would corrupt the climb.
            break
    return ScheduleSearchResult(
        method="greedy",
        baseline_time_ms=env.baseline_time_ms,
        best_time_ms=env.best_time_ms,
        best_kernel=env.best_kernel,
        evaluations=evaluations,
        history=history,
        measurement_stats=env.measurement_stats.as_dict(),
        invalid_actions=env.invalid_actions,
        resumed_from=resumed_from,
    )


def run_evolutionary_search(
    compiled: CompiledKernel,
    *,
    population: int = 8,
    generations: int = 4,
    moves_per_individual: int = 8,
    episode_length: int = 64,
    simulator: GPUSimulator | None = None,
    seed: int = 0,
    policy: MeasurementPolicy | None = None,
) -> ScheduleSearchResult:
    """(mu + lambda)-style evolutionary search over move sequences (§7).

    Individuals are sequences of valid moves applied from the -O3 schedule;
    mutation appends/perturbs moves.  As the paper notes, the approach needs
    no training but is prone to local minima.  Surviving parents are replayed
    every generation, so a memoizing policy turns those re-measurements into
    cache hits.

    Population state is not checkpointed yet: the policy's ``save_state`` is
    never called, and a job resumed with a ``resume_state`` restarts fresh.
    """
    policy = policy or MeasurementPolicy()
    if policy.resume_state is not None:
        _LOG.info("evolutionary: population checkpoints unsupported; starting fresh")
    env = AssemblyGame(compiled, simulator, episode_length=episode_length, policy=policy)
    rng = as_rng(seed)
    evaluations = 0
    history: list[float] = []

    def evaluate(sequence: list[int]) -> float:
        nonlocal evaluations
        env.reset()
        last_time = env.baseline_time_ms
        for action in sequence:
            mask = env.action_masks()
            if not mask[action % len(mask)]:
                valid = np.flatnonzero(mask)
                if len(valid) == 0:
                    break
                action = int(valid[action % len(valid)])
            else:
                action = action % len(mask)
            # Static pre-filter (same contract as greedy): prune the move
            # instead of measuring it when the verifier rejects the swap.
            source, destination = env.action_space_map.target_indices(
                env.current_kernel, action
            )
            if not env.verifier.is_legal(env.current_kernel.swap(source, destination)):
                env.measurement_stats.count_pruned()
                _LOG.warning(
                    "evolutionary: pruned statically-illegal move %d on %s; "
                    "the action mask and the verifier disagree",
                    action,
                    env.current_kernel.metadata.name,
                )
                continue
            _, _, terminated, truncated, info = env.step(action)
            evaluations += 1
            last_time = info.get("time_ms", last_time)
            if terminated or truncated:
                break
        history.append(last_time)
        return last_time

    genome_space = max(env.action_space.n, 1)
    populace = [
        [int(rng.integers(0, genome_space)) for _ in range(moves_per_individual)]
        for _ in range(population)
    ]
    scored = [(evaluate(individual), individual) for individual in populace]
    for _ in range(generations):
        scored.sort(key=lambda item: item[0])
        parents = [individual for _, individual in scored[: max(2, population // 2)]]
        children = []
        while len(children) < population - len(parents):
            parent = parents[int(rng.integers(0, len(parents)))]
            child = list(parent)
            index = int(rng.integers(0, len(child)))
            child[index] = int(rng.integers(0, genome_space))
            children.append(child)
        populace = parents + children
        scored = [(evaluate(individual), individual) for individual in populace]

    return ScheduleSearchResult(
        method="evolutionary",
        baseline_time_ms=env.baseline_time_ms,
        best_time_ms=env.best_time_ms,
        best_kernel=env.best_kernel,
        evaluations=evaluations,
        history=history,
        measurement_stats=env.measurement_stats.as_dict(),
        invalid_actions=env.invalid_actions,
    )
