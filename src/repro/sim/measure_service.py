"""Candidate measurement configured by one :class:`MeasurementPolicy` (§3.6).

Every search strategy bottoms out in "measure this mutated schedule on the
(simulated) GPU".  A :class:`MeasurementPolicy` says how, and it travels
unchanged from :class:`repro.api.Session` through the strategies, searches
and :class:`repro.core.env.AssemblyGame` to :func:`create_measurement_service`.

A :class:`MeasurementService` is bound to one workload (kernel launch
geometry, input tensors, measurement protocol) and measures *candidate
schedules* of that workload, one synchronous simulator call per candidate —
exactly the shape of the assembly game's reward query.

Memoization dedups repeated schedules by a content digest of the instruction
sequence.  Greedy and evolutionary search re-measure identical schedules
constantly (the committing step, reverted swaps, shared prefixes), so a
table lookup replaces a full timing simulation.  ``memoize=True`` gives the
service a private :class:`SharedMemoTable`; a :class:`~repro.pool.SessionPool`
hands every worker one shared table instead, with entries namespaced by a
*scope* key.  A candidate the seed's verifier admits is stored under the
*listing* scope (:func:`listing_memo_scope`), which every workload compiling
to the same SASS listing shares: shapes are baked into the listing, so keys
that differ only in their launch grid time the same schedules alike.  Any
other candidate is stored under its *workload* scope
(:func:`workload_memo_scope`).  The per-``(seed, schedule)`` noise streams of
:meth:`GPUSimulator.measure` keep memoization semantics-preserving even under
synthetic measurement noise.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.sass.kernel import SassKernel
from repro.sass.operands import ConstantMemoryOperand
from repro.sim.gpu import GPUSimulator, KernelTiming, MeasurementConfig
from repro.sim.launch import PARAM_BASE_OFFSET, GridConfig
from repro.sim.program import decode_program
from repro.utils.serialization import fields_to_json


@dataclass(frozen=True, slots=True)
class MeasurementPolicy:
    """How kernel runtimes are measured (the §3.6 CUDA-events protocol)."""

    #: Timed launches averaged into the reported runtime.
    measure_iterations: int = 100
    #: Relative Gaussian measurement noise; the paper reports run-to-run
    #: standard deviation within 1%, 0 keeps the simulator deterministic.
    noise_std: float = 0.0
    #: Seed of the synthetic measurement noise; each schedule derives its own
    #: noise stream from ``(seed, schedule digest)``.
    seed: int = 0
    #: Dedup repeated schedules by content digest before hitting the simulator.
    memoize: bool = False
    #: Cross-session memo table (see :class:`SharedMemoTable`); set by
    #: :class:`~repro.pool.SessionPool` so workers share measurements.
    #: Implies memoization for the workloads it covers.
    shared_memo: "SharedMemoTable | None" = field(default=None, repr=False, compare=False)
    #: This session's identity in the shared table (cross-worker-hit
    #: accounting); meaningless without ``shared_memo``.
    memo_owner: str = ""
    #: Cooperative cancellation checkpoint: a zero-argument callable the
    #: measurement service invokes before every candidate and batch; raise
    #: from it (e.g. :class:`repro.errors.JobCancelled`) to abort the search.
    #: Installed per-run via :class:`~repro.api.session.SessionHooks`.
    checkpoint: "object | None" = field(default=None, repr=False, compare=False)
    #: Per-step progress callback ``progress(submitted: int)`` invoked after
    #: every measured candidate with the cumulative count; the serve layer
    #: turns these into streamed ``measured(n)`` events.
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

    def to_measurement_config(self) -> MeasurementConfig:
        """Lower to the :mod:`repro.sim` measurement record."""
        return MeasurementConfig(
            measure_iterations=self.measure_iterations,
            noise_std=self.noise_std,
            seed=self.seed,
        )


@dataclass
class MeasurementStats:
    """Counters of one measurement service."""

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
        return fields_to_json(self)


@dataclass
class SharedMemoStats:
    """Counters of one memo table, aggregated across every service using it."""

    #: Lookups issued against the table.
    lookups: int = 0
    #: Lookups answered from the table.
    hits: int = 0
    #: Hits on entries stored by a *different* owner — the measurements a
    #: pool saved that per-session memoization could not have.
    cross_worker_hits: int = 0
    #: Entries written.
    stores: int = 0
    #: Entries dropped by the LRU bound.
    evictions: int = 0

    def as_dict(self) -> dict:
        return fields_to_json(self)


class SharedMemoTable:
    """Thread-safe, size-bounded (LRU) table of measured timings.

    A service with ``memoize=True`` owns a private one; a
    :class:`~repro.pool.SessionPool` hands all its workers one table, so a
    schedule measured by one worker is a hit for every sibling measuring the
    same listing.  Keys are ``scope | schedule-digest``, where the scope is
    the listing's (see :func:`listing_memo_scope`) for a verifier-legal
    candidate and the workload's (see :func:`workload_memo_scope`) for any
    other: a hit is only possible when the memoized timing would be
    bit-identical for the requester.

    Two owners racing on the same unmeasured schedule may both simulate it;
    :meth:`put` keeps the first timing, so every requester converges on one
    timing object.
    """

    def __init__(self, max_entries: int = 65536):
        self.max_entries = int(max_entries)
        self.stats = SharedMemoStats()
        self._entries: "OrderedDict[str, tuple[KernelTiming, str]]" = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key: str, *, owner: str = "") -> KernelTiming | None:
        """The memoized timing for ``key``, or ``None`` on a miss."""
        with self._lock:
            self.stats.lookups += 1
            item = self._entries.get(key)
            if item is None:
                return None
            self._entries.move_to_end(key)
            timing, stored_by = item
            self.stats.hits += 1
            if stored_by != owner:
                self.stats.cross_worker_hits += 1
            return timing

    def put(self, key: str, timing: KernelTiming, *, owner: str = "") -> KernelTiming:
        """Store ``timing`` under ``key`` and return the table's entry.

        If another owner won the race for this key, its timing is returned
        instead, so every caller hands out the same timing object.
        """
        with self._lock:
            existing = self._entries.get(key)
            if existing is not None:
                self._entries.move_to_end(key)
                return existing[0]
            while len(self._entries) >= self.max_entries:
                self._entries.popitem(last=False)
                self.stats.evictions += 1
            self._entries[key] = (timing, owner)
            self.stats.stores += 1
            return timing

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def snapshot(self) -> dict:
        """JSON-able view: the counters plus the current table size."""
        with self._lock:
            return {**self.stats.as_dict(), "entries": len(self._entries)}


class MeasurementService:
    """Measures candidate schedules of one workload, one at a time.

    The policy's ``checkpoint`` runs at the start of every batch and before
    every candidate, memo hits included, so a cancelled job stops even when
    every remaining answer would come from the table; ``progress`` runs
    after every candidate with the cumulative count.  A candidate whose
    simulation raises is counted as submitted and measured, leaves no memo
    entry and raises again on its next measurement.

    With a ``listing_scope``, a candidate that ``is_legal`` (the seed
    verifier's pre-filter) admits is memoized under the listing scope, and
    any other candidate under ``memo_scope``.
    """

    def __init__(
        self,
        simulator: GPUSimulator,
        grid: GridConfig,
        tensors: dict,
        param_order: list[str],
        policy: MeasurementPolicy | None = None,
        *,
        memo_scope: str = "",
        listing_scope: str = "",
        is_legal: Callable[[SassKernel], bool] | None = None,
    ):
        policy = policy or MeasurementPolicy()
        if policy.shared_memo is not None and not memo_scope:
            raise ValueError("shared_memo requires a memo_scope identifying the workload")
        if listing_scope and is_legal is None:
            raise ValueError("a listing_scope requires the seed verifier's is_legal")
        self.simulator = simulator
        self.grid = grid
        self.tensors = tensors
        self.param_order = param_order
        self.measurement = policy.to_measurement_config()
        self.stats = MeasurementStats()
        self.checkpoint = policy.checkpoint
        self.progress = policy.progress
        #: The memo table, ``None`` without memoization.
        self.table: SharedMemoTable | None = policy.shared_memo
        if self.table is None and policy.memoize:
            self.table = SharedMemoTable(max_entries=4096)
        self.scope = memo_scope
        self.listing_scope = listing_scope
        self.is_legal = is_legal
        self.owner = policy.memo_owner
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

    def _key(self, candidate: SassKernel) -> str:
        digest = candidate.content_digest()
        if self.listing_scope and self.is_legal(candidate):
            return f"{self.listing_scope}|{digest}"
        return f"{self.scope}|{digest}" if self.scope else digest

    def measure(self, candidate: SassKernel) -> KernelTiming:
        """The timing of one candidate schedule."""
        if self.checkpoint is not None:
            self.checkpoint()
        timing = None
        if self.table is not None:
            key = self._key(candidate)
            timing = self.table.get(key, owner=self.owner)
        with self._lock:
            self.stats.submitted += 1
            if timing is None:
                self.stats.measured += 1
            else:
                self.stats.memo_hits += 1
            submitted = self.stats.submitted
        if timing is None:
            timing = self.simulator.measure_with_launch(
                candidate, self._workload_launch(), measurement=self.measurement
            )
            if self.table is not None:
                timing = self.table.put(key, timing, owner=self.owner)
        if self.progress is not None:
            self.progress(submitted)
        return timing

    def measure_batch(self, candidates: Sequence[SassKernel]) -> list[KernelTiming]:
        """Timings of a batch of candidates, in input order."""
        if self.checkpoint is not None:
            self.checkpoint()
        return [self.measure(candidate) for candidate in candidates]


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
    with ``input_seed``) and the measurement protocol.  It keys the
    candidates the seed's verifier rejects; legal ones share the wider
    :func:`listing_memo_scope`.
    """
    measurement = measurement or MeasurementConfig()
    canonical = repr(
        (
            str(gpu_name),
            str(kernel_name),
            sorted((str(key), str(value)) for key, value in shapes.items()),
            sorted((str(key), str(value)) for key, value in config.items()),
            measurement.measure_iterations,
            measurement.noise_std,
            measurement.seed,
            int(input_seed),
        )
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def listing_memo_scope(
    simulator: GPUSimulator,
    seed: SassKernel,
    grid: GridConfig,
    tensors: dict,
    param_order: list[str],
    measurement: MeasurementConfig | None = None,
) -> str:
    """Scope key shared by every workload that compiles to ``seed``'s listing.

    It keys the timings of the candidates the seed's verifier admits, which
    compute the seed's in-bounds addresses in some order.  Such a timing
    reads a tensor's address only through its 128-byte line
    (:meth:`~repro.sim.memory.MemoryTimingModel.request_latency`), and
    allocations are 256-byte aligned and disjoint, so where the tensors sit
    cannot move it.  The scope covers what can: the GPU target and the
    measurement protocol, as :func:`workload_memo_scope` does; the listing,
    its block size and shared-memory bytes; the launch's wave count; which
    parameter slots hold pointers (the service binds no scalars); the grid,
    but only when the listing reads a launch dimension from constant bank 0;
    and the input tensors, but only when loaded values reach the timing
    (:attr:`~repro.sim.program.TimingSlice.load_fed`).
    """
    measurement = measurement or MeasurementConfig()
    reads_launch_dims = any(
        isinstance(operand, ConstantMemoryOperand)
        and operand.bank == 0
        and operand.offset < PARAM_BASE_OFFSET
        for instr in seed.instructions
        for operand in instr.operands
    )
    inputs = None
    if decode_program(seed).timing_slice.load_fed:
        hasher = hashlib.sha256()
        for name in sorted(tensors):
            array = np.ascontiguousarray(tensors[name])
            hasher.update(repr((name, array.dtype.str, array.shape)).encode("utf-8"))
            hasher.update(array.tobytes())
        inputs = hasher.hexdigest()
    canonical = repr(
        (
            str(simulator.config.name),
            seed.content_digest(),
            grid.num_warps,
            seed.metadata.shared_memory_bytes,
            simulator.occupancy_waves(seed, grid),
            tuple(name in tensors for name in param_order),
            grid.grid if reads_launch_dims else None,
            inputs,
            measurement.measure_iterations,
            measurement.noise_std,
            measurement.seed,
        )
    )
    return "listing:" + hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def create_measurement_service(
    simulator: GPUSimulator,
    grid: GridConfig,
    tensors: dict,
    param_order: list[str],
    policy: MeasurementPolicy | None = None,
    *,
    memo_scope: str = "",
    listing_scope: str = "",
    is_legal: Callable[[SassKernel], bool] | None = None,
) -> MeasurementService:
    """Build the measurement service for one workload under ``policy``.

    ``policy.memoize`` gives the service a private memo table.  A
    ``policy.shared_memo`` implies memoization and requires ``memo_scope``
    to namespace this workload's entries; a ``listing_scope`` (with the seed
    verifier's ``is_legal``) shares the legal candidates' entries across
    workloads of one listing.
    """
    return MeasurementService(
        simulator,
        grid,
        tensors,
        param_order,
        policy,
        memo_scope=memo_scope,
        listing_scope=listing_scope,
        is_legal=is_legal,
    )
