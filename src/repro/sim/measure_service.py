"""Batched measurement service configured by one :class:`MeasurementPolicy` (§3.6).

Every search strategy bottoms out in "measure this mutated schedule on the
(simulated) GPU".  The service layer decouples *how* those measurements are
issued from the search loop.  A :class:`MeasurementPolicy` says how, and it
travels unchanged from :class:`repro.api.Session` through the strategies,
searches and :class:`repro.core.env.AssemblyGame` to
:func:`create_measurement_service`:

* ``inline`` — the historical behavior: one synchronous
  :meth:`~repro.sim.gpu.GPUSimulator.measure` call per candidate;
* ``process`` — fan candidates out over a *process* pool, sidestepping the
  GIL for the cycle-accurate timing loop (which is pure Python and therefore
  does not parallelize on threads); the workload ships to each worker process
  once via the pool initializer, individual submissions only ship the
  candidate's rendered lines, and each worker parses a line once;
* memoization — an orthogonal wrapper that dedups repeated schedules by a
  content digest of the instruction sequence.  Greedy and evolutionary search
  re-measure identical schedules constantly (the committing step, reverted
  swaps, shared prefixes), so the wrapper trades a dictionary lookup for a
  full timing simulation.  The memo table is private per service by default;
  a :class:`repro.pool.shared_memo.SharedMemoTable` can be plugged in so
  several sessions (e.g. the workers of a ``SessionPool``) share one table,
  with entries namespaced by a workload *scope* key.

A service instance is bound to one workload (kernel launch geometry, input
tensors, measurement protocol) and measures *candidate schedules* of that
workload — exactly the shape of the assembly game's reward query.  Both
backends are deterministic for a fixed workload, so ``process`` returns
bit-identical timings to ``inline``, and the
per-``(seed, schedule)`` noise streams of :meth:`GPUSimulator.measure` make
memoization semantics-preserving even under synthetic measurement noise.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import threading
from concurrent.futures import Future, ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Protocol, Sequence, runtime_checkable

from repro.sass.kernel import KernelMetadata, SassKernel
from repro.sass.parser import parse_line
from repro.sim.gpu import GPUSimulator, KernelTiming, MeasurementConfig
from repro.sim.launch import GridConfig


@dataclass(frozen=True, slots=True)
class MeasurementPolicy:
    """How kernel runtimes are measured (the §3.6 CUDA-events protocol)."""

    #: Warm-up launches before timing starts.
    warmup_iterations: int = 100
    #: Timed launches averaged into the reported runtime.
    measure_iterations: int = 100
    #: Relative Gaussian measurement noise; the paper reports run-to-run
    #: standard deviation within 1%, 0 keeps the simulator deterministic.
    noise_std: float = 0.0
    #: Seed of the synthetic measurement noise; each schedule derives its own
    #: noise stream from ``(seed, schedule digest)``.
    seed: int = 0
    #: Measurement-service backend: ``"inline"`` (synchronous, the default)
    #: or ``"process"`` (a process pool — the GIL-free choice for the
    #: pure-Python timing loop; bit-identical timings to ``"inline"`` for a
    #: fixed seed).  Any other name is rejected at construction.
    backend: str = "inline"
    #: Workers of the ``"process"`` backend; ``None`` picks a default.
    max_workers: int | None = None
    #: Dedup repeated schedules by content digest before hitting the simulator.
    memoize: bool = False
    #: Cross-session memo table (see :class:`repro.pool.SharedMemoTable`);
    #: set by :class:`~repro.pool.SessionPool` so workers share measurements.
    #: Implies memoization for the workloads it covers.
    shared_memo: "object | None" = field(default=None, repr=False, compare=False)
    #: This session's identity in the shared table (cross-worker-hit
    #: accounting); meaningless without ``shared_memo``.
    memo_owner: str = ""
    #: Cooperative cancellation checkpoint: a zero-argument callable the
    #: measurement service invokes before issuing candidate (batches); raise
    #: from it (e.g. :class:`repro.errors.JobCancelled`) to abort the search.
    #: Installed per-run via :class:`~repro.api.session.SessionHooks`.
    checkpoint: "object | None" = field(default=None, repr=False, compare=False)
    #: Per-step progress callback ``progress(submitted: int)`` invoked after
    #: every candidate submission with the cumulative submission count; the
    #: serve layer turns these into streamed ``measured(n)`` events.
    progress: "object | None" = field(default=None, repr=False, compare=False)
    #: Checkpoint-state exporter ``save_state(state: dict)``: strategies that
    #: support resumption call it with an opaque JSON-able snapshot of their
    #: search state (best schedule so far, evaluations consumed, RNG stream
    #: position) after every committed step; the serve layer persists the
    #: latest snapshot in the job journal so a killed server can resume the
    #: search instead of restarting it.
    save_state: "object | None" = field(default=None, repr=False, compare=False)
    #: A previously exported checkpoint to resume from (the dict handed to
    #: ``save_state``); ``None`` (or an unrecognised payload) starts fresh.
    resume_state: "object | None" = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        # Fail at configuration time, not on every job that measures.
        if self.backend not in _MEASUREMENT_BACKENDS:
            raise ValueError(
                f"unknown measurement backend {self.backend!r}; "
                f"available: {list(available_measurement_backends())}"
            )

    def to_measurement_config(self) -> MeasurementConfig:
        """Lower to the :mod:`repro.sim` measurement record."""
        return MeasurementConfig(
            warmup_iterations=self.warmup_iterations,
            measure_iterations=self.measure_iterations,
            noise_std=self.noise_std,
            seed=self.seed,
        )


@dataclass
class MeasurementStats:
    """Counters shared by a backend stack (wrapper and wrapped see one object)."""

    #: Candidate measurements requested through the service.
    submitted: int = 0
    #: Raw simulator measurements actually issued.
    measured: int = 0
    #: Requests answered from the memoization table instead of the simulator.
    memo_hits: int = 0
    #: Candidates rejected by the static schedule verifier before measurement
    #: (counted by the searches, not the service itself).
    pruned: int = 0

    def count_pruned(self, n: int = 1) -> None:
        """Record ``n`` candidates statically pruned ahead of measurement."""
        self.pruned += n

    def as_dict(self) -> dict:
        return {
            "submitted": self.submitted,
            "measured": self.measured,
            "memo_hits": self.memo_hits,
            "pruned": self.pruned,
        }


@runtime_checkable
class MeasurementBackend(Protocol):
    """How candidate schedules of one workload get measured."""

    stats: MeasurementStats

    def submit(self, candidate: SassKernel) -> "Future[KernelTiming]":
        """Queue one candidate; the future resolves to its timing."""
        ...  # pragma: no cover - protocol

    def measure_batch(self, candidates: Sequence[SassKernel]) -> list[KernelTiming]:
        """Measure a batch of candidates, results in input order."""
        ...  # pragma: no cover - protocol

    def close(self) -> None:
        """Release any workers; the service must not be used afterwards."""
        ...  # pragma: no cover - protocol


class _WorkloadMeasurer:
    """Shared base: one workload's launch geometry plus measurement counters."""

    def __init__(
        self,
        simulator: GPUSimulator,
        grid: GridConfig,
        tensors: dict,
        param_order: list[str],
        policy: MeasurementPolicy,
    ):
        self.simulator = simulator
        self.grid = grid
        self.tensors = tensors
        self.param_order = param_order
        #: The lowered protocol record; all a process worker receives, since
        #: the policy's hooks and shared memo table do not pickle.
        self.measurement = policy.to_measurement_config()
        self.stats = MeasurementStats()
        #: Cooperative cancellation checkpoint, run before every candidate
        #: submission and batch; raising from it aborts the search between
        #: measurements (see :class:`repro.errors.JobCancelled`).
        self.checkpoint = policy.checkpoint
        #: ``progress(submitted)`` callback, run after every submission with
        #: the cumulative submission count (memo hits included by wrappers).
        self.progress = policy.progress
        self._lock = threading.Lock()
        # The workload's tensors are bound into a launch context once per
        # measuring thread and reused across every candidate: timing
        # simulation restores the simulated memory snapshot instead of
        # re-uploading all inputs per measurement.  Launches are thread-local
        # because a launch's memory is mutated during a run.
        self._thread_launches = threading.local()

    def _workload_launch(self):
        launch = getattr(self._thread_launches, "launch", None)
        if launch is None:
            launch = self.simulator.build_launch(self.grid, self.tensors, self.param_order)
            self._thread_launches.launch = launch
        return launch

    def _measure(self, candidate: SassKernel) -> KernelTiming:
        with self._lock:
            self.stats.measured += 1
        return self.simulator.measure_with_launch(
            candidate, self._workload_launch(), measurement=self.measurement
        )

    def _tick(self) -> None:
        """Per-submission hooks: cancellation checkpoint, then progress."""
        if self.checkpoint is not None:
            self.checkpoint()
        with self._lock:
            self.stats.submitted += 1
            submitted = self.stats.submitted
        if self.progress is not None:
            self.progress(submitted)

    def measure_batch(self, candidates: Sequence[SassKernel]) -> list[KernelTiming]:
        if self.checkpoint is not None:
            self.checkpoint()
        futures = [self.submit(candidate) for candidate in candidates]
        return [future.result() for future in futures]

    def close(self) -> None:
        pass


class InlineMeasurementBackend(_WorkloadMeasurer):
    """Synchronous measurement, one simulator call per candidate (the default)."""

    def submit(self, candidate: SassKernel) -> "Future[KernelTiming]":
        self._tick()
        future: Future[KernelTiming] = Future()
        try:
            future.set_result(self._measure(candidate))
        except BaseException as exc:  # noqa: BLE001 - future carries the error
            future.set_exception(exc)
        return future


#: Workload bound to each process-pool worker by the pool initializer, so a
#: submission only ships the candidate schedule, not the input tensors.
_PROCESS_WORKLOAD: tuple | None = None
#: The worker's reusable launch, bound lazily from the workload on the first
#: measurement and reused (memory restored) for every later candidate.
_PROCESS_LAUNCH = None
#: The worker's parsed lines by rendered text.  A search's candidates reorder
#: the same lines, so each line is parsed once and its instruction object,
#: with its compiled handlers, serves every later candidate.
_PROCESS_LINES: dict = {}


def _process_worker_init(workload: tuple) -> None:
    global _PROCESS_WORKLOAD, _PROCESS_LAUNCH
    _PROCESS_WORKLOAD = workload
    _PROCESS_LAUNCH = None
    _PROCESS_LINES.clear()


def _process_measure(metadata: KernelMetadata, texts: tuple[str, ...]) -> KernelTiming:
    """Measure the schedule whose lines render as ``texts``.

    The rendered listing is a schedule's identity (its content digest), and
    parsing a rendered line gives back an equal line, so the rebuilt kernel
    times exactly like the one submitted.
    """
    global _PROCESS_LAUNCH
    simulator, grid, tensors, param_order, measurement = _PROCESS_WORKLOAD
    if _PROCESS_LAUNCH is None:
        _PROCESS_LAUNCH = simulator.build_launch(grid, tensors, param_order)
    lines = []
    for text in texts:
        line = _PROCESS_LINES.get(text)
        if line is None:
            line = _PROCESS_LINES[text] = parse_line(text)
        lines.append(line)
    return simulator.measure_with_launch(
        SassKernel(lines, metadata), _PROCESS_LAUNCH, measurement=measurement
    )


def _resolve_mp_context():
    """A multiprocessing context for the process backend's workers.

    ``fork`` is preferred where available because the worker processes inherit
    the imported package instead of re-importing it on every pool start — but
    only while the parent is single-threaded: forking a multithreaded process
    (e.g. a ``SessionPool`` running shards on worker threads) can clone locks
    in a held state and deadlock the child.  With threads live we fall back to
    ``forkserver`` (workers fork from a clean single-threaded server, at the
    cost of re-importing the package when the workload unpickles).
    """
    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods and threading.active_count() == 1:
        return multiprocessing.get_context("fork")
    if "forkserver" in methods:
        return multiprocessing.get_context("forkserver")
    return multiprocessing.get_context()


class ProcessMeasurementBackend(_WorkloadMeasurer):
    """Process-pool fan-out: parallel timing simulation without the GIL.

    The timing loop is pure Python, so only worker processes run candidates
    in parallel on multi-core hosts.  The simulation is deterministic, so the
    timings are bit-identical to ``inline`` for a fixed measurement seed.

    ``stats.measured`` is counted on submission (worker processes cannot
    update the parent's counters); a submission that errors still counts as
    an issued measurement.
    """

    def __init__(self, simulator, grid, tensors, param_order, policy: MeasurementPolicy):
        super().__init__(simulator, grid, tensors, param_order, policy)
        self.max_workers = int(policy.max_workers or min(8, os.cpu_count() or 1))
        workload = (self.simulator, self.grid, self.tensors, self.param_order, self.measurement)
        self._pool = ProcessPoolExecutor(
            max_workers=self.max_workers,
            mp_context=_resolve_mp_context(),
            initializer=_process_worker_init,
            initargs=(workload,),
        )

    def submit(self, candidate: SassKernel) -> "Future[KernelTiming]":
        self._tick()
        with self._lock:
            self.stats.measured += 1
        texts = tuple(line.render() for line in candidate.lines)
        return self._pool.submit(_process_measure, candidate.metadata, texts)

    def close(self) -> None:
        self._pool.shutdown(wait=True)


class MemoizedMeasurementBackend:
    """Wrapper that dedups repeated schedules by their content digest.

    The first submission of a schedule goes to the wrapped backend; repeats
    share the same future (and therefore the exact same timing object).  The
    wrapped backend's :class:`MeasurementStats` is shared, so ``measured``
    counts raw simulator work and ``memo_hits`` counts deduped requests.

    The table is bounded (``max_entries``, FIFO eviction): a long search over
    mostly unique schedules — e.g. a PPO run under a memoizing policy — must not
    retain a timing object per schedule ever measured.  An evicted schedule
    simply re-measures on its next submission.

    With ``table`` set (any object with the ``get(key, owner=...)`` /
    ``put(key, future, owner=...)`` shape of
    :class:`repro.pool.shared_memo.SharedMemoTable`), the memo lives *outside*
    the service and is shared across sessions: a schedule measured by one pool
    worker is a hit for every sibling measuring the same workload.  Keys are
    then prefixed with ``scope`` (the workload identity, so unrelated
    workloads never alias) and lookups carry ``owner`` so the table can
    account cross-worker hits.  Two workers racing on the same unmeasured
    schedule may both issue a raw measurement; the table keeps the first
    future and the race costs one redundant (deterministic) simulation.
    """

    def __init__(
        self,
        inner: MeasurementBackend,
        max_entries: int = 4096,
        *,
        table=None,
        scope: str = "",
        owner: str = "",
    ):
        self.inner = inner
        self.stats = inner.stats
        self.max_entries = int(max_entries)
        self.table = table
        self.scope = scope
        self.owner = owner
        # Memo hits never reach the inner backend, so the wrapper runs the
        # same per-submission hooks itself: a cancelled job must stop even
        # when every remaining candidate would be answered from the table.
        self.checkpoint = getattr(inner, "checkpoint", None)
        self.progress = getattr(inner, "progress", None)
        self._futures: dict[str, Future[KernelTiming]] = {}
        self._lock = threading.Lock()

    def _key(self, candidate: SassKernel) -> str:
        digest = candidate.content_digest()
        return f"{self.scope}|{digest}" if self.scope else digest

    def _tick_hit(self) -> None:
        with self._lock:
            self.stats.submitted += 1
            self.stats.memo_hits += 1
            submitted = self.stats.submitted
        if self.progress is not None:
            self.progress(submitted)

    def submit(self, candidate: SassKernel) -> "Future[KernelTiming]":
        if self.checkpoint is not None:
            self.checkpoint()
        key = self._key(candidate)
        if self.table is not None:
            cached = self.table.get(key, owner=self.owner)
            if cached is not None:
                self._tick_hit()
                return cached
            future = self.inner.submit(candidate)
            return self.table.put(key, future, owner=self.owner)
        with self._lock:
            cached = self._futures.get(key)
        if cached is not None:
            self._tick_hit()
            return cached
        future = self.inner.submit(candidate)
        with self._lock:
            while len(self._futures) >= self.max_entries:
                self._futures.pop(next(iter(self._futures)))
            self._futures[key] = future
        return future

    def measure_batch(self, candidates: Sequence[SassKernel]) -> list[KernelTiming]:
        futures = [self.submit(candidate) for candidate in candidates]
        return [future.result() for future in futures]

    def close(self) -> None:
        self.inner.close()


#: Registered backend constructors, keyed by :attr:`MeasurementPolicy.backend` name.
_MEASUREMENT_BACKENDS = {
    "inline": InlineMeasurementBackend,
    "process": ProcessMeasurementBackend,
}


def available_measurement_backends() -> tuple[str, ...]:
    return tuple(sorted(_MEASUREMENT_BACKENDS))


def workload_memo_scope(
    gpu_name: str,
    kernel_name: str,
    shapes: dict,
    config: dict,
    measurement: MeasurementConfig | None = None,
    input_seed: int = 0,
) -> str:
    """Scope key namespacing one workload's entries in a shared memo table.

    Two sessions may share a memoized timing only when it would be
    bit-identical for both, so the scope covers everything the measurement
    depends on besides the candidate schedule itself: the GPU target, the
    workload and its shapes/config (they determine the input tensors together
    with ``input_seed``) and the measurement protocol.
    """
    measurement = measurement or MeasurementConfig()
    canonical = repr(
        (
            str(gpu_name),
            str(kernel_name),
            sorted((str(key), str(value)) for key, value in shapes.items()),
            sorted((str(key), str(value)) for key, value in config.items()),
            measurement.warmup_iterations,
            measurement.measure_iterations,
            measurement.noise_std,
            measurement.seed,
            int(input_seed),
        )
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def create_measurement_service(
    simulator: GPUSimulator,
    grid: GridConfig,
    tensors: dict,
    param_order: list[str],
    policy: MeasurementPolicy | None = None,
    *,
    memo_scope: str = "",
) -> MeasurementBackend:
    """Build the measurement backend stack for one workload under ``policy``.

    ``policy.backend`` selects the execution style; ``policy.memoize`` wraps
    it in schedule-digest deduplication.  A ``policy.shared_memo`` (a
    cross-session table; see :class:`~repro.pool.shared_memo.SharedMemoTable`)
    implies memoization and requires ``memo_scope`` to namespace this
    workload's entries.  The policy's ``checkpoint`` (cooperative
    cancellation between candidate submissions and batches) and ``progress``
    (cumulative submission counts) hooks survive memo wrapping.
    """
    policy = policy or MeasurementPolicy()
    if policy.shared_memo is not None and not memo_scope:
        raise ValueError("shared_memo requires a memo_scope identifying the workload")
    service: MeasurementBackend = _MEASUREMENT_BACKENDS[policy.backend](
        simulator, grid, tensors, param_order, policy
    )
    if policy.shared_memo is not None:
        service = MemoizedMeasurementBackend(
            service, table=policy.shared_memo, scope=memo_scope, owner=policy.memo_owner
        )
    elif policy.memoize:
        service = MemoizedMeasurementBackend(service)
    return service
