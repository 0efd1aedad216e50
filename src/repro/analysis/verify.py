"""Independent whole-schedule semantic verifier (and SASS lint rules).

:class:`ScheduleVerifier` is built once from a seed listing and can then
audit any candidate schedule: it checks that the candidate is a
block-preserving permutation of the seed, that every dependence edge of the
seed (:mod:`repro.analysis.deps`) keeps its orientation, that Algorithm 1's
stall-count budget still holds, and that the scoreboard set/wait protocol is
race-free.  Findings come back as structured
:class:`~repro.analysis.diagnostics.Diagnostic` records rather than a bool.

The verifier is intentionally a *second implementation* of the legality
rules in :mod:`repro.core.masking`, sharing only the low-level instruction
model.  Its contract with masking is the differential guarantee tested in
``tests/test_verify_differential.py``:

* every schedule reachable through mask-permitted moves verifies **clean**
  (no error-severity diagnostics), and
* every error the verifier raises corresponds to a reordering the mask would
  never have produced.

Checks the mask cannot see (conservative address aliasing, stall slack lost
in front of denylisted instructions, never-consumed write barriers) are
warning severity so the guarantee holds both ways.

The fast path :meth:`ScheduleVerifier.is_legal` runs only the
error-severity order/stall checks on vectorized edge tables; it is cheap
enough to pre-filter candidates ahead of simulator measurement.

Each seed listing has one verifier: :func:`seed_verifier` builds it on first
use, pins it on the kernel object and shares it, by
:meth:`~repro.sass.kernel.SassKernel.content_digest`, with every live kernel
of the same listing.  The env's pre-game analysis and ``is_legal``
pre-filter, the verify cascade, the lint CLI and every serving-store hit
audit (:func:`verify_schedule`) read that one object.  A verifier is
read-only once built: its tables are non-writeable arrays and every call
allocates its own working arrays, so threads may share it.
"""

from __future__ import annotations

import copy
import threading
import weakref
from collections import deque
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.analysis.cfg import ControlFlowInfo, build_cfg
from repro.analysis.deps import DependenceGraph, build_dependence_graph
from repro.analysis.diagnostics import RULES, Diagnostic, Severity, make_diagnostic
from repro.sass.instruction import Instruction, Label
from repro.sass.kernel import SassKernel


@dataclass(frozen=True)
class VerificationResult:
    """Outcome of one schedule audit."""

    diagnostics: tuple[Diagnostic, ...]
    checked_edges: int = 0
    checked_constraints: int = 0

    @property
    def ok(self) -> bool:
        """Clean means no error-severity findings; warnings do not fail."""
        return all(diag.severity < Severity.ERROR for diag in self.diagnostics)

    @property
    def errors(self) -> tuple[Diagnostic, ...]:
        return tuple(d for d in self.diagnostics if d.severity >= Severity.ERROR)

    @property
    def warnings(self) -> tuple[Diagnostic, ...]:
        return tuple(d for d in self.diagnostics if d.severity == Severity.WARNING)

    def summary(self) -> dict[str, Any]:
        return {
            "ok": self.ok,
            "errors": len(self.errors),
            "warnings": len(self.warnings),
            "checked_edges": self.checked_edges,
            "checked_constraints": self.checked_constraints,
            "diagnostics": [d.as_dict() for d in self.diagnostics],
        }

    def render(self, source: str = "<schedule>") -> str:
        """Linter-style report: one line per finding plus a summary line."""
        lines = [diag.render(source) for diag in self.diagnostics]
        status = "clean" if self.ok else "FAILED"
        lines.append(
            f"{source}: {status} — {len(self.errors)} error(s), "
            f"{len(self.warnings)} warning(s), {self.checked_edges} edge(s) checked"
        )
        return "\n".join(lines)


def _describe(line: Instruction | Label) -> str:
    if isinstance(line, Label):
        return f"label {line.name}"
    return line.opcode


def _read_only(values: list[int] | np.ndarray) -> np.ndarray:
    array = np.asarray(values, dtype=np.int64)
    array.flags.writeable = False
    return array


class ScheduleVerifier:
    """Audits candidate schedules against a seed listing's dependence graph.

    ``ScheduleVerifier(seed)`` builds a graph of its own for ``alias_mode``,
    and ``graph`` supplies one instead; callers auditing a seed's schedules
    read the listing's shared verifier through :func:`seed_verifier`.  The
    verifier keeps the seed's ``lines`` and ``metadata`` but not the kernel,
    so pinning it on that kernel makes no reference cycle.  It is read-only
    once built, so threads may share it.
    """

    # Slots keep the shared verifier and the per-kernel copies
    # ``seed_verifier`` makes in one attribute layout: without them
    # ``copy.copy`` leaves both dict-backed, and mixing those with fresh
    # instances made every ``is_legal`` call slower.
    __slots__ = (
        "graph", "cfg", "stalls", "lines", "metadata", "_num_lines", "_seed_id_to_index",
        "_boundary_indices", "_boundary_renders", "_boundary_set", "_block_of_seed",
        "_seed_stalls", "_identity_pos", "_error_edges", "_warning_edges", "_err_src",
        "_err_dst", "_warn_src", "_warn_dst", "_constraints", "_con_prod", "_con_cons",
        "_con_min", "__weakref__",
    )

    def __init__(
        self,
        seed: SassKernel,
        *,
        graph: DependenceGraph | None = None,
        alias_mode: str = "precise",
    ):
        if graph is None:
            graph = build_dependence_graph(seed, alias_mode=alias_mode)
        self.graph = graph
        self.cfg = graph.cfg
        self.stalls = graph.stalls

        lines = seed.lines
        self._num_lines = len(lines)
        #: Lines that must not move: labels and synchronizing instructions.
        self._boundary_indices = [
            i
            for i, line in enumerate(lines)
            if isinstance(line, Label) or (isinstance(line, Instruction) and line.is_sync)
        ]
        self._boundary_renders = [lines[i].render() for i in self._boundary_indices]
        self._boundary_set = frozenset(self._boundary_indices)
        #: Block index per seed line (-1 for labels), for cross-block detection.
        block_of_seed = np.full(self._num_lines, -1, dtype=np.int64)
        for line_index, block_index in self.cfg.block_of_line.items():
            block_of_seed[line_index] = block_index
        self._block_of_seed = _read_only(block_of_seed)
        self._seed_stalls = _read_only(
            [line.control.stall if isinstance(line, Instruction) else 0 for line in lines]
        )
        self._identity_pos = _read_only(np.arange(self._num_lines))

        # Vectorized edge tables, split by severity.
        error_edges = []
        warning_edges = []
        for edge in graph.edges.values():
            (error_edges if RULES[edge.rule].severity >= Severity.ERROR else warning_edges).append(
                edge
            )
        self._error_edges = error_edges
        self._warning_edges = warning_edges
        self._err_src = _read_only([e.src for e in error_edges])
        self._err_dst = _read_only([e.dst for e in error_edges])
        self._warn_src = _read_only([e.src for e in warning_edges])
        self._warn_dst = _read_only([e.dst for e in warning_edges])

        # Vectorized stall-constraint tables (Algorithm 1).
        constraints = graph.stall_constraints
        self._constraints = constraints
        self._con_prod = _read_only([c.producer for c in constraints])
        self._con_cons = _read_only([c.consumer for c in constraints])
        self._con_min = _read_only([c.min_stall for c in constraints])
        self._bind(seed)

    def _bind(self, seed: SassKernel) -> None:
        #: The seed's lines, which candidates are matched against by identity.
        self.lines = seed.lines
        self.metadata = seed.metadata
        self._seed_id_to_index = {id(line): i for i, line in enumerate(self.lines)}

    # ------------------------------------------------------------------
    # Structural mapping
    # ------------------------------------------------------------------
    def _map_candidate(
        self, candidate: SassKernel, diagnostics: list[Diagnostic]
    ) -> np.ndarray | None:
        """Map seed line index -> candidate position, or ``None`` on failure.

        Matching is by object identity first (swapped schedules share line
        objects with the seed), falling back to stable per-block matching by
        rendered text: the i-th occurrence of a rendering in the candidate
        block pairs with the i-th occurrence in the seed block.
        """
        seed_lines = self.lines
        cand_lines = candidate.lines
        if len(cand_lines) != len(seed_lines):
            diagnostics.append(
                make_diagnostic(
                    "V001",
                    f"candidate has {len(cand_lines)} lines, seed has {len(seed_lines)}",
                    line=0,
                    hint="a schedule must be a permutation of the seed listing",
                )
            )
            return None

        boundary_ok = True
        for index, render in zip(self._boundary_indices, self._boundary_renders):
            # Swapped candidates share line objects with the seed, so identity
            # settles the common search path without re-rendering.
            if cand_lines[index] is seed_lines[index]:
                continue
            if cand_lines[index].render() != render:
                diagnostics.append(
                    make_diagnostic(
                        "V002",
                        f"expected immovable line {render!r} at index {index}, "
                        f"found {cand_lines[index].render()!r}",
                        line=index,
                        hint="labels and synchronizing instructions never move",
                    )
                )
                boundary_ok = False
        if not boundary_ok:
            return None

        pos = np.full(self._num_lines, -1, dtype=np.int64)
        # Boundary lines were just render-verified at their seed positions.
        for index in self._boundary_indices:
            pos[index] = index
        boundary_set = self._boundary_set
        id_map = self._seed_id_to_index
        block_of = self._block_of_seed
        structural_failure = False

        for block in self.cfg.blocks:
            unmatched: list[int] = []
            seed_queues: dict[str, deque[int]] | None = None
            for cand_index in range(block.start, block.end):
                line = cand_lines[cand_index]
                if line is seed_lines[cand_index]:
                    # Unmoved line — the common case for single-swap search
                    # candidates, settled without the id-map lookup.
                    pos[cand_index] = cand_index
                    continue
                if cand_index in boundary_set:
                    continue
                seed_index = id_map.get(id(line))
                if seed_index is not None and block_of[seed_index] == block.index:
                    pos[seed_index] = cand_index
                    continue
                if seed_index is not None:
                    diagnostics.append(
                        make_diagnostic(
                            "V003",
                            f"{_describe(line)} moved from seed block "
                            f"{block_of[seed_index]} (line {seed_index}) into block "
                            f"{block.index}",
                            line=cand_index,
                            hint="instructions never cross label or sync boundaries",
                        )
                    )
                    structural_failure = True
                    continue
                unmatched.append(cand_index)
            if not unmatched:
                continue
            # Fall back to stable text matching for re-parsed candidates.
            if seed_queues is None:
                seed_queues = {}
                for seed_index in range(block.start, block.end):
                    if pos[seed_index] == -1:
                        seed_queues.setdefault(seed_lines[seed_index].render(), deque()).append(
                            seed_index
                        )
            for cand_index in unmatched:
                render = cand_lines[cand_index].render()
                queue = seed_queues.get(render)
                if queue:
                    pos[queue.popleft()] = cand_index
                    continue
                rule = "V003" if self._render_exists_elsewhere(render, block.index) else "V001"
                diagnostics.append(
                    make_diagnostic(
                        rule,
                        f"{render!r} at index {cand_index} does not belong to "
                        f"seed block {block.index}",
                        line=cand_index,
                        hint="instructions never cross label or sync boundaries"
                        if rule == "V003"
                        else "a schedule must be a permutation of the seed listing",
                    )
                )
                structural_failure = True
        if structural_failure or bool(np.any(pos < 0)):
            if not diagnostics:
                diagnostics.append(
                    make_diagnostic(
                        "V001",
                        "candidate could not be matched to the seed listing",
                        line=0,
                    )
                )
            return None
        return pos

    def _render_exists_elsewhere(self, render: str, block_index: int) -> bool:
        for i, line in enumerate(self.lines):
            if self._block_of_seed[i] != block_index and line.render() == render:
                return True
        return False

    # ------------------------------------------------------------------
    # Fast legality pre-filter
    # ------------------------------------------------------------------
    def _fast_pos(self, candidate: SassKernel) -> np.ndarray | None:
        """Seed→candidate position map for swap-search candidates, else ``None``.

        Candidates produced by :meth:`SassKernel.swap` share every line object
        with the seed, so the mapping reduces to an identity scan plus the
        handful of relocated lines.  Returns ``None`` (caller falls back to
        the full diagnostic mapper) whenever anything is unusual: unknown
        line objects, relocated boundaries, cross-block moves, or a
        non-bijective move set.
        """
        seed_lines = self.lines
        cand_lines = candidate.lines
        if len(cand_lines) != self._num_lines:
            return None
        moved = [k for k, line in enumerate(cand_lines) if line is not seed_lines[k]]
        if not moved:
            return self._identity_pos
        id_map = self._seed_id_to_index
        block_of = self._block_of_seed
        boundary = self._boundary_set
        pos = self._identity_pos.copy()
        sources = []
        for k in moved:
            seed_index = id_map.get(id(cand_lines[k]))
            if (
                seed_index is None
                or seed_index in boundary
                or k in boundary
                or block_of[seed_index] != block_of[k]
            ):
                return None
            pos[seed_index] = k
            sources.append(seed_index)
        if set(sources) != set(moved):
            return None
        return pos

    def is_legal(self, candidate: SassKernel) -> bool:
        """Error-severity checks only, no diagnostics: the search pre-filter.

        Equivalent to ``verify(candidate).ok`` for schedules reachable by
        in-block permutation (the scoreboard protocol checks it skips are
        invariant under permutations that preserve set/wait edge order).
        """
        pos = self._fast_pos(candidate)
        if pos is None:
            scratch: list[Diagnostic] = []
            pos = self._map_candidate(candidate, scratch)
            if pos is None:
                return False
        if self._err_src.size and bool((pos[self._err_src] > pos[self._err_dst]).any()):
            return False
        if self._con_prod.size:
            prefix = self._stall_prefix(pos)
            produced = pos[self._con_prod]
            consumed = pos[self._con_cons]
            budgets = prefix[consumed] - prefix[produced]
            if bool(((produced < consumed) & (budgets < self._con_min)).any()):
                return False
        return True

    def _stall_prefix(self, pos: np.ndarray) -> np.ndarray:
        """``prefix[k]`` = total stall of candidate lines ``[0, k)``."""
        stalls = np.empty(self._num_lines + 1, dtype=np.int64)
        stalls[0] = 0
        stalls[1:][pos] = self._seed_stalls
        return stalls.cumsum()

    # ------------------------------------------------------------------
    # Full audit
    # ------------------------------------------------------------------
    def verify(
        self, candidate: SassKernel, *, include_warnings: bool = True
    ) -> VerificationResult:
        """Full audit of ``candidate`` against the seed dependence graph."""
        diagnostics: list[Diagnostic] = []
        pos = self._map_candidate(candidate, diagnostics)
        checked_edges = 0
        checked_constraints = 0
        if pos is not None:
            checked_edges = len(self._error_edges)
            self._check_edges(self._error_edges, self._err_src, self._err_dst, pos, diagnostics)
            if include_warnings:
                checked_edges += len(self._warning_edges)
                self._check_edges(
                    self._warning_edges, self._warn_src, self._warn_dst, pos, diagnostics
                )
            checked_constraints = len(self._constraints)
            self._check_stalls(pos, diagnostics)
            if include_warnings:
                self._check_denylist_slack(pos, diagnostics)
            # A mapped candidate keeps every label and sync instruction (all
            # branches and exits among them) at its seed index, so its blocks
            # and successors are the seed's: no need to rebuild the CFG.
            diagnostics.extend(check_scoreboard_protocol(candidate, self.cfg))
        diagnostics.sort(key=lambda d: (d.line, d.rule))
        return VerificationResult(
            diagnostics=tuple(diagnostics),
            checked_edges=checked_edges,
            checked_constraints=checked_constraints,
        )

    def lint_seed(self, *, include_warnings: bool = True) -> VerificationResult:
        """Audit the seed against itself (protocol + self-consistency checks)."""
        seed = SassKernel(self.lines, self.metadata)
        return self.verify(seed, include_warnings=include_warnings)

    def _check_edges(self, edges, src, dst, pos: np.ndarray, out: list[Diagnostic]) -> None:
        if not len(edges):
            return
        violated = np.flatnonzero(pos[src] > pos[dst])
        for index in violated:
            edge = edges[int(index)]
            src_pos = int(pos[edge.src])
            dst_pos = int(pos[edge.dst])
            src_line = self.lines[edge.src]
            dst_line = self.lines[edge.dst]
            out.append(
                make_diagnostic(
                    edge.rule,
                    f"{_describe(dst_line)} (now line {dst_pos}) must stay after "
                    f"{_describe(src_line)} (now line {src_pos}): {edge.detail}",
                    line=dst_pos,
                    end_line=src_pos,
                    hint=f"restore the seed order of lines {edge.src} and {edge.dst}",
                    details={"seed_src": edge.src, "seed_dst": edge.dst},
                )
            )

    def _check_stalls(self, pos: np.ndarray, out: list[Diagnostic]) -> None:
        if not self._con_prod.size:
            return
        prefix = self._stall_prefix(pos)
        produced = pos[self._con_prod]
        consumed = pos[self._con_cons]
        budgets = prefix[consumed] - prefix[produced]
        violated = np.flatnonzero((produced < consumed) & (budgets < self._con_min))
        for index in violated:
            constraint = self._constraints[int(index)]
            producer = self.lines[constraint.producer]
            consumer = self.lines[constraint.consumer]
            out.append(
                make_diagnostic(
                    "V301",
                    f"{_describe(consumer)} (line {int(consumed[index])}) is "
                    f"{int(budgets[index])} stall cycle(s) after its producer "
                    f"{_describe(producer)} (line {int(produced[index])}) via "
                    f"R{constraint.register}; needs >= {constraint.min_stall}",
                    line=int(consumed[index]),
                    end_line=int(produced[index]),
                    hint="move the consumer later or restore intervening stall slack",
                    details={
                        "register": constraint.register,
                        "required": constraint.min_stall,
                        "actual": int(budgets[index]),
                    },
                )
            )

    def _check_denylist_slack(self, pos: np.ndarray, out: list[Diagnostic]) -> None:
        if not self.graph.denylist_slack:
            return
        prefix = self._stall_prefix(pos)
        for seed_index, seed_slack in sorted(self.graph.denylist_slack.items()):
            block = self.cfg.block_of(seed_index)
            if block is None:
                continue
            cand_index = int(pos[seed_index])
            slack = int(prefix[cand_index] - prefix[block.start])
            if slack < seed_slack:
                line = self.lines[seed_index]
                out.append(
                    make_diagnostic(
                        "V501",
                        f"denylisted {_describe(line)} (line {cand_index}) has "
                        f"{slack} stall cycle(s) of slack, down from {seed_slack} "
                        "in the seed; its producer is outside the block",
                        line=cand_index,
                        hint="avoid displacing denylisted instructions toward "
                        "their block start",
                        details={"seed_slack": seed_slack, "slack": slack},
                    )
                )


# ---------------------------------------------------------------------------
# Scoreboard protocol checker (standalone: works on any listing)
# ---------------------------------------------------------------------------
def check_scoreboard_protocol(
    kernel: SassKernel, cfg: ControlFlowInfo | None = None
) -> list[Diagnostic]:
    """Static race detector for the SASS scoreboard set/wait protocol.

    * ``V202`` — a wait on a slot that no control-flow path has armed (waits
      on idle slots complete immediately, so a wait is only flagged when the
      slot *is* armed somewhere, just never before the wait; loop-carried
      arming through back edges counts as covering).
    * ``V203`` — a slot re-armed in the same block with no intervening wait:
      the first operation's completion signal is lost.
    * ``V204`` (warning) — a write barrier armed but never waited on anywhere
      in the listing: its result is never safely consumed.  Read barriers
      are exempt (WAR protection is drained implicitly at exit).
    """
    cfg = cfg or build_cfg(kernel)
    lines = kernel.lines
    diagnostics: list[Diagnostic] = []

    sets_anywhere: set[int] = set()
    waited_anywhere: set[int] = set()
    for line in lines:
        if isinstance(line, Instruction):
            sets_anywhere |= line.control.set_barriers
            waited_anywhere |= line.control.wait_mask

    # Forward dataflow: which slots may be armed on entry to each block.
    # Once a slot is armed on some path it stays "available": waiting again on
    # a drained slot is a benign no-op, so availability is never cleared.
    predecessors: dict[int, list[int]] = {b.index: [] for b in cfg.blocks}
    for block_index, successors in cfg.successors.items():
        for successor in successors:
            predecessors[successor].append(block_index)
    armed_out: dict[int, frozenset[int]] = {b.index: frozenset() for b in cfg.blocks}
    changed = True
    while changed:
        changed = False
        for block in cfg.blocks:
            armed = frozenset().union(*(armed_out[p] for p in predecessors[block.index])) \
                if predecessors[block.index] else frozenset()
            for i in range(block.start, block.end):
                line = lines[i]
                if isinstance(line, Instruction):
                    armed |= line.control.set_barriers
            if armed != armed_out[block.index]:
                armed_out[block.index] = armed
                changed = True

    for block in cfg.blocks:
        armed_in = frozenset().union(*(armed_out[p] for p in predecessors[block.index])) \
            if predecessors[block.index] else frozenset()
        available = set(armed_in)
        armed_here: set[int] = set()
        for i in range(block.start, block.end):
            line = lines[i]
            if not isinstance(line, Instruction):
                continue
            for slot in sorted(line.control.wait_mask):
                if slot not in available and slot in sets_anywhere:
                    diagnostics.append(
                        make_diagnostic(
                            "V202",
                            f"{_describe(line)} waits on scoreboard slot {slot}, "
                            "which no path has armed at this point",
                            line=i,
                            hint="the wait must come after the instruction that "
                            f"sets slot {slot}",
                            details={"slot": slot},
                        )
                    )
                armed_here.discard(slot)
            for slot in sorted(line.control.set_barriers):
                if slot in armed_here:
                    diagnostics.append(
                        make_diagnostic(
                            "V203",
                            f"{_describe(line)} re-arms scoreboard slot {slot} "
                            "with no intervening wait; the earlier completion "
                            "signal is lost",
                            line=i,
                            hint=f"wait on slot {slot} before re-arming it",
                            details={"slot": slot},
                        )
                    )
                armed_here.add(slot)
                available.add(slot)

    for i, line in enumerate(lines):
        if not isinstance(line, Instruction):
            continue
        write_barrier = line.control.write_barrier
        if write_barrier is not None and write_barrier not in waited_anywhere:
            diagnostics.append(
                make_diagnostic(
                    "V204",
                    f"{_describe(line)} arms write barrier slot {write_barrier}, "
                    "but nothing in the listing ever waits on it",
                    line=i,
                    hint="dead barrier: the result is never safely consumed",
                    details={"slot": write_barrier},
                )
            )
    return diagnostics


# ---------------------------------------------------------------------------
# The shared verifier of a seed listing
# ---------------------------------------------------------------------------
#: Digest of a listing -> the verifier every live kernel with that listing shares.
_SHARED_VERIFIERS: weakref.WeakValueDictionary[str, ScheduleVerifier] = (
    weakref.WeakValueDictionary()
)
_SHARED_VERIFIERS_LOCK = threading.Lock()


def seed_verifier(kernel: SassKernel) -> ScheduleVerifier:
    """The default (precise) verifier of ``kernel``'s listing, built once.

    The verifier is pinned on the kernel object, like the simulator's
    decoded program, so one attribute read settles every later call.  On a
    miss the listing is looked up by
    :meth:`~repro.sass.kernel.SassKernel.content_digest` among the verifiers
    of live kernels, so every kernel of the listing shares one graph and one
    set of tables for as long as the kernel that built them lives (no LRU,
    no size bound).  Pickling a kernel drops the pin.  Two racing first
    builds keep whichever verifier is registered first.
    """
    verifier: ScheduleVerifier | None = kernel.__dict__.get("_seed_verifier")
    if verifier is None:
        digest = kernel.content_digest()
        with _SHARED_VERIFIERS_LOCK:
            shared = _SHARED_VERIFIERS.get(digest)
        if shared is None:
            built = ScheduleVerifier(kernel)
            with _SHARED_VERIFIERS_LOCK:
                shared = _SHARED_VERIFIERS.setdefault(digest, built)
        verifier = shared
        if shared.lines is not kernel.lines:
            # Another kernel object of the listing (a second compile, an
            # unpickled copy): a copy bound to its line objects shares every
            # table and keeps the identity fast path for its swaps.
            verifier = copy.copy(shared)
            verifier._bind(kernel)
        kernel.__dict__["_seed_verifier"] = verifier
    return verifier


# ---------------------------------------------------------------------------
# Convenience entry point
# ---------------------------------------------------------------------------
def verify_schedule(
    seed: SassKernel,
    candidate: SassKernel | None = None,
    *,
    include_warnings: bool = True,
) -> VerificationResult:
    """One-shot audit of ``candidate`` (or the seed itself) against ``seed``.

    The audit reads the seed listing's shared verifier
    (:func:`seed_verifier`): the first audit of a listing no live kernel
    holds builds it, and later audits reuse it.  Every audit still maps the
    candidate and checks every edge, every stall constraint and the
    scoreboard protocol.
    """
    target = candidate if candidate is not None else seed
    return seed_verifier(seed).verify(target, include_warnings=include_warnings)
