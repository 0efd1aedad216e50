"""Stall-count resolution for memory instructions (§3.2 of the paper).

For every memory instruction that consumes the output of a *fixed-latency*
instruction in the same basic block, the action-masking logic needs to know
the minimum stall count that must separate the producer from the consumer
(Algorithm 1).  The paper resolves these dependencies three ways, and Figure 7
reports the fraction handled by each:

* **db** — the producer opcode is in the built-in stall-count table (Table 1,
  measured by microbenchmarks);
* **infer-only** — the opcode is not in the table, but because the original
  ``-O3`` schedule is always valid, the stall accumulated between producer
  and consumer in that schedule is a safe (over-)estimate; the pass records
  the minimum such value seen;
* **denylist** — the producer cannot be found inside the block (a label is
  hit while scanning backwards), so the dependence would require control-flow
  analysis; the memory instruction is deny-listed and never moved.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from repro.analysis.cfg import ControlFlowInfo, build_cfg
from repro.arch.latency_table import StallCountTable, default_stall_table
from repro.sass.instruction import Instruction
from repro.sass.kernel import SassKernel


class Resolution(Enum):
    """How a stall-count dependence was resolved (Figure 7 categories)."""

    TABLE = "db"
    INFERRED = "infer-only"
    DENYLIST = "denylist"


@dataclass(frozen=True)
class StallDependence:
    """One producer/consumer pair that must respect a minimum stall count."""

    producer_index: int
    consumer_index: int
    register: int
    opcode: str
    min_stall: int | None
    resolution: Resolution


@dataclass
class StallInferenceResult:
    """Output of :func:`infer_stall_counts`.

    Attributes
    ----------
    dependences:
        Every producer→consumer fixed-latency dependence found.
    denylist:
        Listing indices of memory instructions that must never be moved.
    inferred_table:
        Stall counts inferred from the original schedule, merged with the
        built-in table into ``effective_table``.
    """

    dependences: list[StallDependence] = field(default_factory=list)
    denylist: set[int] = field(default_factory=set)
    inferred_table: StallCountTable = field(default_factory=StallCountTable)
    effective_table: StallCountTable = field(default_factory=StallCountTable)

    # ------------------------------------------------------------------
    # Figure 7 summary
    # ------------------------------------------------------------------
    def resolution_counts(self) -> dict[str, int]:
        counts = {r.value: 0 for r in Resolution}
        for dep in self.dependences:
            counts[dep.resolution.value] += 1
        return counts

    def resolution_fractions(self) -> dict[str, float]:
        counts = self.resolution_counts()
        total = sum(counts.values())
        if total == 0:
            return {key: 0.0 for key in counts}
        return {key: value / total for key, value in counts.items()}


def infer_stall_counts(
    kernel: SassKernel,
    *,
    table: StallCountTable | None = None,
    cfg: ControlFlowInfo | None = None,
) -> StallInferenceResult:
    """Run the stall-count analysis pass over ``kernel``.

    Parameters
    ----------
    kernel:
        The SASS kernel to analyse.
    table:
        Built-in stall-count table; defaults to Table 1.
    cfg:
        Optional pre-computed control-flow info.
    """
    builtin = table if table is not None else default_stall_table()
    cfg = cfg or build_cfg(kernel)
    result = StallInferenceResult()

    lines = kernel.lines
    for consumer_index, line in enumerate(lines):
        if not isinstance(line, Instruction) or not line.is_actionable_memory:
            continue
        block = cfg.block_of(consumer_index)
        if block is None:
            result.denylist.add(consumer_index)
            continue
        needed = set(line.read_registers())
        if not needed:
            continue

        # Scan backwards through the block looking for the defining instruction
        # of each source register; accumulate stall counts along the way.
        accumulated = 0
        remaining = set(needed)
        scan = consumer_index - 1
        while remaining and scan >= block.start:
            candidate = lines[scan]
            if not isinstance(candidate, Instruction):
                break
            accumulated += candidate.control.stall
            defined = candidate.written_registers() & remaining
            if defined:
                remaining -= defined
                if candidate.is_fixed_latency:
                    _record_dependence(
                        result,
                        builtin,
                        producer_index=scan,
                        consumer_index=consumer_index,
                        producer=candidate,
                        registers=defined,
                        accumulated=accumulated,
                    )
                # Variable-latency producers are handled by scoreboard
                # barriers, not stall counts; nothing to record.
            scan -= 1

        if remaining:
            # Some source register is defined outside the block (or by a
            # label boundary): the paper deny-lists the memory instruction.
            result.denylist.add(consumer_index)
            for reg in sorted(remaining):
                result.dependences.append(
                    StallDependence(
                        producer_index=-1,
                        consumer_index=consumer_index,
                        register=reg,
                        opcode="<live-in>",
                        min_stall=None,
                        resolution=Resolution.DENYLIST,
                    )
                )

    result.effective_table = builtin.merge(result.inferred_table)
    return result


def _record_dependence(
    result: StallInferenceResult,
    builtin: StallCountTable,
    *,
    producer_index: int,
    consumer_index: int,
    producer: Instruction,
    registers,
    accumulated: int,
) -> None:
    table_value = builtin.lookup(producer.opcode)
    if table_value is not None:
        resolution = Resolution.TABLE
        min_stall = table_value
    else:
        # Inferred from the original (always valid) schedule: the accumulated
        # stall observed is a safe over-estimate; keep the minimum seen.
        resolution = Resolution.INFERRED
        min_stall = accumulated
        result.inferred_table.record(producer.opcode, accumulated)
    for reg in sorted(registers):
        result.dependences.append(
            StallDependence(
                producer_index=producer_index,
                consumer_index=consumer_index,
                register=reg,
                opcode=producer.opcode,
                min_stall=min_stall,
                resolution=resolution,
            )
        )
