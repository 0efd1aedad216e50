"""Pass manager bundling the pre-game static analyses (§3.2).

``run_pre_game_analysis`` gathers, in order:

1. control-flow / basic-block construction and stall-count resolution
   (built-in table, inference, denylist), read from the dependence graph of
   the listing's shared verifier (:func:`repro.analysis.verify.seed_verifier`);
2. embedding-table construction;
3. memory-instruction (action candidate) enumeration.

The result object is what the assembly-game environment consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.cfg import ControlFlowInfo
from repro.analysis.memory_table import EmbeddingTables, build_embedding_tables
from repro.analysis.stall_inference import StallInferenceResult
from repro.analysis.verify import seed_verifier
from repro.sass.kernel import SassKernel
from repro.utils.logging import get_logger

_LOG = get_logger("analysis")


@dataclass
class PreGameAnalysis:
    """Aggregated result of every pre-game pass for one kernel."""

    kernel: SassKernel
    #: ``cfg`` and ``stalls`` are read-only: every kernel of the listing shares them.
    cfg: ControlFlowInfo
    stalls: StallInferenceResult
    embedding: EmbeddingTables
    #: Listing indices of actionable memory instructions not on the denylist.
    candidate_indices: list[int] = field(default_factory=list)

    @property
    def num_candidates(self) -> int:
        return len(self.candidate_indices)

    def summary(self) -> dict:
        """A JSON-friendly summary used by logs and the experiment harness."""
        fractions = self.stalls.resolution_fractions()
        return {
            "kernel": self.kernel.metadata.name,
            "lines": len(self.kernel.lines),
            "instructions": len(self.kernel.instructions),
            "basic_blocks": len(self.cfg.blocks),
            "memory_instructions": len(self.kernel.memory_instruction_indices()),
            "candidates": self.num_candidates,
            "denylisted": len(self.stalls.denylist),
            "stall_resolution": fractions,
            "max_operands": self.embedding.max_operands,
            "operand_table_size": self.embedding.num_operands,
        }


def run_pre_game_analysis(kernel: SassKernel) -> PreGameAnalysis:
    """Run every pre-game pass and assemble the result."""
    graph = seed_verifier(kernel).graph
    cfg, stalls = graph.cfg, graph.stalls
    embedding = build_embedding_tables(kernel)
    candidates = [
        index
        for index in kernel.memory_instruction_indices()
        if index not in stalls.denylist
    ]
    analysis = PreGameAnalysis(
        kernel=kernel,
        cfg=cfg,
        stalls=stalls,
        embedding=embedding,
        candidate_indices=candidates,
    )
    _LOG.debug("pre-game analysis: %s", analysis.summary())
    return analysis
