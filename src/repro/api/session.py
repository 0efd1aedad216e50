"""The :class:`Session` facade: one object that owns the whole §4 workflow.

A session binds a GPU backend, a cubin cache and a measurement policy, and
exposes the paper's lifecycle as four verbs::

    session = Session(gpu="A100-sim", cache_dir="./cache",
                      config=OptimizationConfig(scale="test"))
    compiled = session.compile("softmax")            # stage 1: autotune + -O3
    report   = session.optimize("softmax")           # stage 2: schedule search
    deployed = session.deploy("softmax")             # §4.2: cached cubin lookup
    reports  = session.optimize_many(["bmm", "softmax"])

``strategy="ppo"`` (the paper's RL agent) and the §7 baselines
(``"greedy"``, ``"random"``, ``"evolutionary"``) are interchangeable and all
return the same :class:`~repro.api.report.RunReport` shape.
"""

from __future__ import annotations

import dataclasses
import time
from pathlib import Path
from typing import Callable, Iterable, Sequence

from repro.analysis.funcdiff import OutputCheck, OutputCheckResult, audit_control_roundtrip
from repro.analysis.verify import ScheduleVerifier, VerificationResult, seed_verifier
from repro.api.backends import resolve_backend
from repro.api.config import CacheConfig, MeasurementPolicy, OptimizationConfig
from repro.api.report import RunReport
from repro.api.strategies import StrategyContext, StrategyOutcome, get_strategy
from repro.arch.ampere import AmpereConfig
from repro.core.optimizer import OptimizedKernel
from repro.core.trainer import OptimizationResult
from repro.rl.ppo import TrainingHistory
from repro.errors import OptimizationError, SessionClosed
from repro.sass.assembler import splice_kernel
from repro.sass.cubin import Cubin
from repro.sass.disassembler import disassemble
from repro.sass.kernel import SassKernel
from repro.sim.gpu import GPUSimulator, KernelRun, KernelTiming
from repro.triton.autotuner import Autotuner
from repro.triton.compiler import CompiledKernel, compile_spec
from repro.triton.spec import SCALES, KernelSpec, get_spec
from repro.utils.logging import get_logger

_LOG = get_logger("api.session")

#: Recognized verification modes, in increasing strictness.
VERIFY_MODES = ("off", "final", "functional", "paranoid")


def normalize_verify_mode(value: "str | bool | None", default: "str | bool" = "final") -> str:
    """Normalize a ``verify=`` argument to one of :data:`VERIFY_MODES`.

    ``"final"`` statically verifies the best schedule and checks its outputs
    against the numpy reference; ``"functional"`` makes that output check
    bit-exact against the seed schedule too (rule ``V701``); ``"paranoid"``
    adds the seed lint and the splice audit (rule ``V702``).  The stages are
    listed in ``_VERIFY_STAGES``.

    Booleans are accepted for backwards compatibility: ``True`` is
    ``"final"``, ``False`` is ``"off"``.  ``None`` falls through to
    ``default``.
    """
    if value is None:
        value = default
    if isinstance(value, bool):
        return "final" if value else "off"
    mode = str(value).lower()
    if mode not in VERIFY_MODES:
        raise ValueError(f"verify must be one of {VERIFY_MODES} or a bool, got {value!r}")
    return mode


@dataclasses.dataclass
class _Candidate:
    """The best schedule of one run, on its way through the verify cascade."""

    session: "Session"
    compiled: CompiledKernel
    kernel: SassKernel
    mode: str
    #: The spliced cubin, once the splice audit has made it; the artifact
    #: ships it when the candidate is kept.
    cubin: Cubin | None = None

    @property
    def name(self) -> str:
        return self.compiled.kernel.metadata.name

    @property
    def verifier(self) -> ScheduleVerifier:
        """The seed listing's shared verifier, the one the search's env used."""
        return seed_verifier(self.compiled.kernel)


def _lint_seed(candidate: _Candidate) -> VerificationResult:
    lint = candidate.verifier.lint_seed()
    if lint.diagnostics:
        _LOG.warning(
            "%s: seed listing lint found %d finding(s):\n%s",
            candidate.name,
            len(lint.diagnostics),
            lint.render(candidate.name),
        )
    return lint


def _verify_static(candidate: _Candidate) -> VerificationResult:
    return candidate.verifier.verify(candidate.kernel)


def _check_outputs(candidate: _Candidate) -> VerificationResult:
    seed = candidate.compiled.kernel
    bit_exact = candidate.mode in ("functional", "paranoid") and candidate.kernel is not seed
    result = candidate.session.verify_kernel(
        candidate.compiled, candidate.kernel, seed_kernel=seed if bit_exact else None
    )
    return VerificationResult(result.diagnostics)


def _audit_splice(candidate: _Candidate) -> VerificationResult:
    """Re-verify the schedule disassembled back out of the spliced cubin.

    Reports findings only when it rejects: a faithful read-back repeats the
    static stage's warnings.  A cubin that cannot be disassembled is logged
    and passes; the splice format is exercised by its own tests.
    """
    candidate.cubin = splice_kernel(candidate.compiled.cubin, candidate.kernel)
    try:
        respliced = disassemble(candidate.cubin, kernel_name=candidate.name)
    except Exception as exc:
        _LOG.warning(
            "%s: could not disassemble the spliced cubin for paranoid re-verification: %s",
            candidate.name,
            exc,
        )
        return VerificationResult(())
    found = candidate.verifier.verify(respliced).diagnostics
    result = VerificationResult(found + tuple(audit_control_roundtrip(respliced)))
    return result if not result.ok else VerificationResult(())


@dataclasses.dataclass(frozen=True)
class _Stage:
    """One stage of the verify cascade."""

    name: str
    #: The least strict of :data:`VERIFY_MODES` that runs this stage.
    since: str
    check: Callable[[_Candidate], VerificationResult]
    #: Whether an error finding sends the run back to the -O3 seed.
    rejects: bool = True


#: The verify cascade, in order: each mode runs every stage it reaches.
_VERIFY_STAGES = (
    _Stage("seed lint", "paranoid", _lint_seed, rejects=False),
    _Stage("static verification", "final", _verify_static),
    _Stage("output check", "final", _check_outputs),
    _Stage("splice audit", "paranoid", _audit_splice),
)


@dataclasses.dataclass(frozen=True)
class SessionHooks:
    """Per-run hooks threaded into the strategy's measurement service.

    ``checkpoint`` is a zero-argument cooperative cancellation gate invoked
    between candidate submissions and batches — raising from it (typically
    :class:`repro.errors.JobCancelled`) aborts the search within one
    measurement batch.  ``progress(submitted)`` is invoked after every
    candidate submission with the cumulative submission count; the serve
    layer streams these as ``measured(n)`` events.  Hooks cover both stages:
    the schedule search (stage 2) and stage-1 autotuning, whose per-config
    measurement loop also polls ``checkpoint``.

    ``save_state(state)`` receives opaque JSON-able search-state snapshots
    from strategies that support resumption (best schedule so far,
    evaluations consumed, RNG stream position); ``resume_state`` hands the
    last such snapshot back to the strategy so an interrupted search
    continues where it stopped instead of restarting.
    """

    checkpoint: "object | None" = None
    progress: "object | None" = None
    save_state: "object | None" = None
    resume_state: "object | None" = None

    def any_set(self) -> bool:
        """True when at least one hook is installed."""
        return any(
            value is not None
            for value in (self.checkpoint, self.progress, self.save_state, self.resume_state)
        )


class Session:
    """Facade over compilation, schedule search, verification and deployment.

    An unknown ``config.strategy`` (``KeyError``), ``config.scale`` or
    ``config.verify`` (``ValueError``) fails at construction, not on the
    first job.
    """

    def __init__(
        self,
        gpu: str | GPUSimulator | AmpereConfig | None = "A100-sim",
        *,
        cache_dir: str | Path | None = None,
        config: OptimizationConfig | None = None,
        measurement: MeasurementPolicy | None = None,
        cache: CacheConfig | None = None,
    ):
        self.simulator = resolve_backend(gpu)
        self.config = config or OptimizationConfig()
        get_strategy(self.config.strategy)  # fail fast on unknown names
        if self.config.scale not in SCALES:
            raise ValueError(f"unknown scale {self.config.scale!r}; expected one of {SCALES}")
        normalize_verify_mode(self.config.verify)
        self.measurement = measurement or MeasurementPolicy()
        cache_config = cache or CacheConfig()
        if cache_dir is not None:
            cache_config = dataclasses.replace(cache_config, directory=cache_dir)
        self.cache_config = cache_config
        self.cache = self._make_cache(cache_config)
        self.autotuner = Autotuner(
            self.simulator, measurement=self.measurement.to_measurement_config()
        )
        self._closed = False

    @staticmethod
    def _make_cache(cache_config: CacheConfig):
        from repro.core.jit import CubinCache

        if not cache_config.enabled:
            return None
        return CubinCache(cache_config.directory, max_entries=cache_config.max_entries)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Tear the session down; it must not be used afterwards.  Idempotent.

        Releases everything the session holds beyond its constructor
        arguments — today the autotuner's compiled-kernel cache; measurement
        executors are already env-scoped and closed by the strategies that
        open them.  :class:`repro.pool.SessionPool` relies on this for
        deterministic worker teardown, and ``with Session(...) as session:``
        closes on exit.
        """
        if self._closed:
            return
        self._closed = True
        self.autotuner.clear()

    def __enter__(self) -> "Session":
        self._ensure_open()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def _ensure_open(self) -> None:
        if self._closed:
            raise SessionClosed("session is closed")

    # ------------------------------------------------------------------
    # Derived sessions and small helpers
    # ------------------------------------------------------------------
    @property
    def gpu_name(self) -> str:
        return self.simulator.config.name

    def with_config(self, config: OptimizationConfig) -> "Session":
        """A sibling session sharing this session's backend and cache config."""
        return Session(
            gpu=self.simulator,
            config=config,
            measurement=self.measurement,
            cache=self.cache_config,
        )

    def _resolve_spec(self, spec: str | KernelSpec) -> KernelSpec:
        return get_spec(spec) if isinstance(spec, str) else spec

    def _resolve_shapes(self, spec: KernelSpec, shapes: dict | None) -> dict:
        return dict(shapes) if shapes is not None else dict(spec.shapes(self.config.scale))

    def key_for(self, spec: str | KernelSpec, shapes: dict | None = None) -> str:
        """The §4.2 cache key of a workload on this session's GPU."""
        from repro.core.jit import cache_key

        spec = self._resolve_spec(spec)
        return cache_key(self.gpu_name, spec.name, self._resolve_shapes(spec, shapes))

    # ------------------------------------------------------------------
    # compile / optimize / deploy / run
    # ------------------------------------------------------------------
    def compile(
        self,
        spec: str | KernelSpec,
        *,
        shapes: dict | None = None,
        config: dict | None = None,
        hooks: "SessionHooks | None" = None,
    ) -> CompiledKernel:
        """Stage 1 of the hierarchical search (§3.1): kernel-config autotuning
        plus compilation to the ``-O3`` SASS schedule.

        An explicit kernel ``config`` skips autotuning.  ``hooks.checkpoint``
        (when given) is polled before each candidate config is measured, so
        stage-1 autotuning is cancellable too.
        """
        self._ensure_open()
        spec = self._resolve_spec(spec)
        shapes = self._resolve_shapes(spec, shapes)
        if config is None and self.config.autotune:
            checkpoint = hooks.checkpoint if hooks is not None else None
            return self.autotuner.compile_best(spec, shapes=shapes, checkpoint=checkpoint)
        return compile_spec(spec, shapes=shapes, config=config)

    def optimize(
        self,
        spec: str | KernelSpec,
        *,
        shapes: dict | None = None,
        strategy: str | None = None,
        verify: str | bool | None = None,
        store: bool = True,
        hooks: "SessionHooks | None" = None,
    ) -> RunReport:
        """Full hierarchical optimization of one workload, cached on success.

        ``verify`` selects the verification mode (``"off"``, ``"final"``,
        ``"functional"`` or ``"paranoid"``; bools are accepted as
        ``"off"``/``"final"``) and defaults to the session config's mode.
        """
        self._ensure_open()
        spec = self._resolve_spec(spec)
        shapes = self._resolve_shapes(spec, shapes)
        compiled = self.compile(spec, shapes=shapes, hooks=hooks)
        return self.optimize_compiled(
            compiled, strategy=strategy, verify=verify, store=store, hooks=hooks
        )

    def optimize_compiled(
        self,
        compiled: CompiledKernel,
        *,
        strategy: str | None = None,
        verify: str | bool | None = None,
        store: bool = True,
        hooks: "SessionHooks | None" = None,
    ) -> RunReport:
        """Stage 2 (§3): schedule search on an already-compiled kernel.

        ``hooks`` installs per-run cancellation/progress callbacks into the
        strategy's measurement service (see :class:`SessionHooks`).
        """
        self._ensure_open()
        search = get_strategy(strategy or self.config.strategy)
        strategy_name = search.name
        verify_mode = normalize_verify_mode(verify, default=self.config.verify)
        policy = self.measurement
        if hooks is not None and hooks.any_set():
            policy = dataclasses.replace(
                policy,
                checkpoint=hooks.checkpoint,
                progress=hooks.progress,
                save_state=hooks.save_state,
                resume_state=hooks.resume_state,
            )
        search_started = time.perf_counter()
        outcome = search.run(
            StrategyContext(
                compiled=compiled, simulator=self.simulator, config=self.config, policy=policy
            )
        )
        search_elapsed = time.perf_counter() - search_started

        best_kernel = outcome.best_kernel
        best_time_ms = outcome.best_time_ms
        diagnostics: list[dict] = []
        verified: bool | None = None if verify_mode == "off" else True
        candidate = _Candidate(self, compiled, best_kernel, verify_mode)
        for stage in _VERIFY_STAGES:
            if VERIFY_MODES.index(verify_mode) < VERIFY_MODES.index(stage.since):
                continue
            result = stage.check(candidate)
            diagnostics.extend(d.as_dict() for d in result.diagnostics)
            if stage.rejects and not result.ok:
                _LOG.warning(
                    "%s/%s: best schedule failed the %s; falling back to -O3\n%s",
                    candidate.name,
                    strategy_name,
                    stage.name,
                    result.render(candidate.name),
                )
                best_kernel = compiled.kernel
                best_time_ms = outcome.baseline_time_ms
                verified = False
                candidate.cubin = None
                break
        artifact = self._make_artifact(
            compiled, outcome, best_kernel, best_time_ms, candidate.cubin
        )
        key = self.key_for(compiled.spec, compiled.shapes)
        cached = False
        if store and self.cache is not None and not self.cache_config.readonly:
            self.cache.store(key, artifact)
            cached = True
        _LOG.info(
            "%s [%s on %s]: %.4f ms -> %.4f ms (%.2fx)",
            compiled.kernel.metadata.name,
            strategy_name,
            self.gpu_name,
            outcome.baseline_time_ms,
            best_time_ms,
            outcome.baseline_time_ms / best_time_ms if best_time_ms else 1.0,
        )
        details = dict(outcome.details)
        details["elapsed_s"] = search_elapsed
        details["evaluations_per_sec"] = (
            outcome.evaluations / search_elapsed if search_elapsed > 0 else float("inf")
        )
        details["verify_mode"] = verify_mode
        return RunReport(
            kernel=compiled.spec.name,
            gpu=self.gpu_name,
            strategy=strategy_name,
            shapes=dict(compiled.shapes),
            config=dict(compiled.config),
            baseline_time_ms=outcome.baseline_time_ms,
            best_time_ms=best_time_ms,
            evaluations=outcome.evaluations,
            verified=verified,
            diagnostics=tuple(diagnostics),
            cache_key=key,
            cached=cached,
            details=details,
            artifact=artifact,
        )

    def _make_artifact(
        self,
        compiled: CompiledKernel,
        outcome: StrategyOutcome,
        best_kernel: SassKernel,
        best_time_ms: float,
        cubin: Cubin | None,
    ) -> OptimizedKernel:
        history = outcome.details.get("history")
        result = OptimizationResult(
            kernel_name=compiled.kernel.metadata.name,
            baseline_time_ms=outcome.baseline_time_ms,
            best_time_ms=best_time_ms,
            best_kernel=best_kernel,
            history=history if isinstance(history, TrainingHistory) else None,
            episodes=list(outcome.details.get("episodes", [])),
        )
        return OptimizedKernel(
            compiled=compiled,
            optimized=compiled.with_kernel(best_kernel),
            cubin=cubin if cubin is not None else splice_kernel(compiled.cubin, best_kernel),
            result=result,
        )

    def deploy(
        self,
        spec: str | KernelSpec,
        *,
        shapes: dict | None = None,
        cache_dir: str | Path | None = None,
    ) -> CompiledKernel:
        """Deploy-time lookup (§4.2): load the cached optimized schedule."""
        self._ensure_open()
        from repro.core.jit import CubinCache

        spec = self._resolve_spec(spec)
        shapes = self._resolve_shapes(spec, shapes)
        cache = CubinCache(cache_dir) if cache_dir is not None else self.cache
        if cache is None:
            raise OptimizationError(
                "session has no cubin cache (CacheConfig.enabled=False) and no cache_dir was given"
            )
        entry = cache.load(self.key_for(spec, shapes))
        meta = entry.load_meta()
        compiled = compile_spec(spec, shapes=shapes, config=meta["config"])
        kernel = disassemble(entry.load_cubin(), kernel_name=compiled.kernel.metadata.name)
        return compiled.with_kernel(kernel)

    def run(
        self,
        spec: str | KernelSpec,
        inputs: dict | None = None,
        *,
        shapes: dict | None = None,
    ) -> KernelRun:
        """Execute a workload: from the cache when available, else the -O3 build."""
        self._ensure_open()
        spec = self._resolve_spec(spec)
        shapes = self._resolve_shapes(spec, shapes)
        if self.cache is not None and self.cache.has(self.key_for(spec, shapes)):
            compiled = self.deploy(spec, shapes=shapes)
        else:
            compiled = compile_spec(spec, shapes=shapes)
        return compiled.run(self.simulator, inputs)

    def measure(
        self,
        compiled: CompiledKernel,
        inputs: dict | None = None,
    ) -> KernelTiming:
        """Measure a compiled kernel under this session's measurement policy."""
        return compiled.measure(
            self.simulator, inputs, measurement=self.measurement.to_measurement_config()
        )

    # ------------------------------------------------------------------
    # Verification (§4.1)
    # ------------------------------------------------------------------
    def verify_kernel(
        self,
        compiled: CompiledKernel,
        kernel: SassKernel,
        *,
        seed_kernel: SassKernel | None = None,
    ) -> OutputCheckResult:
        """The output check of ``kernel``: probabilistic testing against the
        numpy reference (``V703``) and, given ``seed_kernel``, a bit-exact
        comparison with the seed schedule's outputs on the same inputs
        (``V701``), over ``config.verify_trials`` trials."""
        return OutputCheck.from_compiled(compiled, self.simulator).run(
            kernel,
            seed_kernel=seed_kernel,
            trials=self.config.verify_trials,
            seed=self.config.seed,
        )

    # ------------------------------------------------------------------
    # Batched optimization
    # ------------------------------------------------------------------
    def optimize_many(
        self,
        specs: Iterable[str | KernelSpec],
        *,
        strategy: str | None = None,
        verify: str | bool | None = None,
        store: bool = True,
        on_error: str = "report",
    ) -> list[RunReport]:
        """Run one optimization over many workloads, one after another.

        Reports come back in input order; each workload compiles, searches
        and verifies independently.  To spread workloads over several
        backends, use a :class:`~repro.pool.SessionPool`.

        A failing workload no longer discards the rest of the batch.  With
        ``on_error="report"`` (the default) it yields a failed
        :class:`RunReport` (``report.failed`` true, ``report.error`` set) in
        its input-order slot; with ``on_error="raise"`` every job still runs
        to completion, then one :class:`OptimizationError` is raised carrying
        the successful reports on its ``reports`` attribute.
        """
        self._ensure_open()
        if on_error not in ("report", "raise"):
            raise ValueError(f"on_error must be 'report' or 'raise', got {on_error!r}")
        resolved: Sequence[KernelSpec] = [self._resolve_spec(spec) for spec in specs]

        def one(spec: KernelSpec) -> RunReport:
            try:
                return self.optimize(spec, strategy=strategy, verify=verify, store=store)
            except Exception as exc:
                _LOG.warning("optimize_many: %s failed: %s", spec.name, exc)
                return RunReport.from_error(
                    kernel=spec.name,
                    gpu=self.gpu_name,
                    strategy=strategy or self.config.strategy,
                    error=f"{type(exc).__name__}: {exc}",
                )

        reports = [one(spec) for spec in resolved]

        failures = [report for report in reports if report.failed]
        if failures and on_error == "raise":
            error = OptimizationError(
                f"{len(failures)}/{len(reports)} workloads failed: "
                + "; ".join(f"{report.kernel}: {report.error}" for report in failures)
            )
            error.reports = [report for report in reports if not report.failed]
            raise error
        return reports
