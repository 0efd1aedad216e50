"""Typed, frozen configuration objects for the :mod:`repro.api` facade.

A :class:`~repro.api.session.Session` owns one :class:`OptimizationConfig`,
one :class:`MeasurementPolicy` and one :class:`CacheConfig`; per-call
overrides go through :meth:`OptimizationConfig.replace`.  The
:class:`MeasurementPolicy` object itself travels down to the measurement
service.  It is defined beside the backends it configures, in
:mod:`repro.sim.measure_service`, because :mod:`repro.core.env` reads it and
cannot import this package; it is re-exported here.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path

from repro.rl.ppo import PPOConfig
from repro.sim.measure_service import MeasurementPolicy  # noqa: F401 - re-exported

#: Longest retry backoff (:meth:`RetryPolicy.delay_for`), in seconds.
_MAX_BACKOFF_S = 2.0


@dataclass(frozen=True, slots=True)
class CacheConfig:
    """Where (and whether) optimized cubins are cached (§4.2)."""

    #: Directory of the deploy-time cubin cache.
    directory: str | Path = ".cuasmrl_cache"
    #: Disable to run a cache-less session (e.g. the benchmark harness).
    enabled: bool = True
    #: Deploy-only sessions: look up cached cubins but never write new ones.
    readonly: bool = False
    #: Size bound of the cache; stores evict the least-recently-used entries
    #: (by file mtime) beyond this many.  ``None`` keeps the cache unbounded.
    max_entries: int | None = None


@dataclass(frozen=True, slots=True)
class PoolConfig:
    """Shape of a :class:`repro.pool.SessionPool` deployment.

    One worker session is created per entry of :attr:`backends`; duplicate
    names fan the pool out over several instances of the same GPU type.  Each
    worker's cubin cache is namespaced by backend name under the pool's cache
    directory, so deploy artifacts of different targets never collide.
    """

    #: Backend name (or alias) per worker; duplicates allowed.
    backends: tuple[str, ...] = ("A100-80GB-PCIe",)

    def replace(self, **overrides) -> "PoolConfig":
        """A copy of this config with the given fields replaced."""
        return replace(self, **overrides)


@dataclass(frozen=True, slots=True)
class RetryPolicy:
    """How the serve queue retries jobs that hit *infrastructure* failures.

    Only failures classified by :func:`repro.errors.is_infrastructure_failure`
    (worker crashes, closed sessions) are ever retried; verifier rejections,
    compile errors and other user-attributable failures fail immediately on
    the first attempt.  A retried job goes back into the queue's one pending
    deque at once and waits there until its backoff has passed: the delay
    doubles per retry from ``backoff_base_s`` and is capped at 2 s.
    """

    #: Total attempts per job, including the first run; 1 disables retries.
    max_attempts: int = 3
    #: Delay before the first retry, in seconds.
    backoff_base_s: float = 0.05

    def replace(self, **overrides) -> "RetryPolicy":
        """A copy of this policy with the given fields replaced."""
        return replace(self, **overrides)

    def delay_for(self, attempt: int) -> float:
        """Backoff delay before retry number ``attempt`` (1-based)."""
        return min(_MAX_BACKOFF_S, self.backoff_base_s * 2.0 ** (attempt - 1))


@dataclass(frozen=True, slots=True)
class ServeConfig:
    """Shape of a :class:`repro.serve.JobQueue` front door over a pool.

    The queue owns one thread per pool worker, each taking the oldest
    ready pending job it may run; these knobs control how large the
    pool-level result store of finished ``(workload, backend)`` reports
    grows, how many jobs may wait, how job records are bounded and how
    failed jobs retry (in the same pending queue, once their backoff has
    passed).
    """

    #: Size bound of the pool-level result store, which keeps finished
    #: ``RunReport``\ s by §4.2 cache key so re-submitted jobs skip
    #: optimization (``use_store=False`` on a submit forces a fresh run);
    #: ``None`` keeps it unbounded.
    store_max_entries: int | None = None
    #: Emit a ``measured(n)`` progress event every N candidate submissions.
    progress_every: int = 1
    #: Admission control: reject new submissions (``rejected`` event +
    #: :class:`repro.errors.AdmissionError`) while this many jobs are already
    #: waiting for a worker, retries in backoff included.  ``None`` accepts
    #: everything.
    max_pending: int | None = None
    #: Job-record TTL: terminal records older than this many seconds are
    #: evicted by :meth:`repro.serve.JobQueue.gc` (run opportunistically on
    #: submit).  ``None`` keeps terminal records forever.  In-flight jobs are
    #: never evicted regardless.  Journal-restored records count like live
    #: ones, here and in ``max_records``.
    job_ttl_s: float | None = None
    #: Hard bound on retained job records; the oldest *terminal* records are
    #: evicted beyond it.  ``None`` keeps the job map unbounded.
    max_records: int | None = None
    #: Retry jobs that hit infrastructure failures (worker crash, closed
    #: session) with exponential backoff, waited out in the pending queue
    #: (so a job in backoff counts toward ``max_pending``); ``None`` fails
    #: them on the first attempt.  See :class:`RetryPolicy`.
    retry: RetryPolicy | None = None

    def replace(self, **overrides) -> "ServeConfig":
        """A copy of this config with the given fields replaced."""
        return replace(self, **overrides)


@dataclass(frozen=True, slots=True)
class RemoteConfig:
    """Shape of the :mod:`repro.remote` HTTP front door over a serve queue.

    Everything the in-process :class:`~repro.api.config.ServeConfig` does not
    cover: where the server listens, where the durable job journal lives,
    how often it is compacted, and the per-tenant submission quotas enforced
    before a request ever reaches the queue.
    """

    #: Listen address of ``python -m repro.remote.serve``.
    host: str = "127.0.0.1"
    #: Listen port; ``0`` binds an ephemeral port (printed on startup).
    port: int = 0
    #: Record submissions, terminal job records and result-store entries in
    #: an append-only JSONL journal so serving state survives restarts.
    journal: bool = True
    #: Journal location; ``None`` places ``serve-journal.jsonl`` beside the
    #: pool's cubin cache (journaling is disabled when the pool has no cache
    #: directory and no explicit path is given).
    journal_path: str | Path | None = None
    #: Compact the journal (rewrite it from live state, dropping superseded
    #: and GC'd entries) after this many appended lines.
    compact_every: int = 2048
    #: Token-bucket capacity per tenant; every submission spends ``cost``
    #: tokens and an empty bucket means HTTP 429 + a ``rejected`` event.
    #: ``None`` disables quotas.
    tenant_tokens: float | None = None
    #: Bucket refill rate in tokens/second (0 never refills).
    tenant_refill_per_s: float = 0.0
    #: Tenant accounted when a request carries no ``X-Tenant`` header.
    default_tenant: str = "anonymous"
    #: Longest server-side block of one ``GET /v1/jobs/<id>/result`` call;
    #: clients long-poll in slices of at most this many seconds.
    result_timeout_s: float = 60.0

    def replace(self, **overrides) -> "RemoteConfig":
        """A copy of this config with the given fields replaced."""
        return replace(self, **overrides)


@dataclass(frozen=True, slots=True)
class OptimizationConfig:
    """Everything that shapes one optimization run, for every strategy.

    Strategy-specific fields are simply ignored by strategies that do not
    use them (``train_timesteps`` by the training-free searches,
    ``population`` by PPO, and so on), so one config drives any strategy.
    """

    #: Default search strategy; any name in the strategy registry.
    strategy: str = "ppo"
    #: Shape set used when none is passed explicitly: paper / bench / test.
    scale: str = "bench"
    #: Moves per assembly-game episode (§3.5).
    episode_length: int = 32
    #: Total environment steps for the RL strategy.
    train_timesteps: int = 512
    #: Evaluation budget for the training-free searches (§7).
    search_budget: int = 64
    #: Evolutionary strategy population size.
    population: int = 8
    #: Evolutionary strategy generations.
    generations: int = 4
    #: Evolutionary strategy genome length (moves per individual).
    moves_per_individual: int = 8
    #: Grid-search the kernel configuration space first (stage 1 of §3.1).
    autotune: bool = True
    #: Verification mode, one stage list walked in order and falling back to
    #: -O3 on the first rejection: ``"off"`` skips it; ``"final"`` statically
    #: verifies the best schedule against the seed's dependence graph, then
    #: runs the output check: outputs against the numpy reference within fp16
    #: tolerance (probabilistic testing, §4.1; rule ``V703``);
    #: ``"functional"`` makes the output check bit-exact against the -O3
    #: seed's outputs on the same inputs too (rule ``V701``); ``"paranoid"``
    #: also lints the seed listing first and ends with the splice audit: it
    #: re-verifies the schedule disassembled back out of the spliced cubin and
    #: checks every control code for an exact encode/decode round-trip (rule
    #: ``V702``).  Booleans are accepted for compatibility: ``True`` means
    #: ``"final"``, ``False`` means ``"off"``.
    verify: str | bool = "final"
    #: Random-input trials of the output check.
    verify_trials: int = 1
    #: Seed for strategy randomness (PPO init, random/evolutionary search).
    seed: int = 0
    #: Replay one deterministic inference episode after PPO training and
    #: attach the discovered moves to the report (§5.7).
    trace: bool = False
    #: Full PPO hyperparameter override; defaults are derived from
    #: ``episode_length`` and ``seed`` when left unset.
    ppo: PPOConfig | None = field(default=None, repr=False)

    def replace(self, **overrides) -> "OptimizationConfig":
        """A copy of this config with the given fields replaced."""
        return replace(self, **overrides)

    def ppo_config(self) -> PPOConfig:
        """The PPO hyperparameters this config implies."""
        if self.ppo is not None:
            return self.ppo
        return PPOConfig(num_steps=self.episode_length, seed=self.seed)
