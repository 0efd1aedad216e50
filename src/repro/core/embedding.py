"""State embedding of a SASS schedule (§3.4, Figure 4 of the paper).

Every instruction becomes one row of the state matrix.  Fields are embedded
individually and concatenated:

* the six wait-barrier bits, the read barrier, the write barrier, the yield
  flag and the stall count from the control code (``-1`` when absent);
* the opcode channel, which only distinguishes memory instructions (their
  index among the actionable memory instructions) from non-memory ones (-1);
* the operand channels: each operand's index in the memory/operand table
  normalized by the table size, padded with ``-1`` up to the maximum operand
  count found in the file.

A move only reorders lines, and :meth:`SassKernel.swap` keeps the same
:class:`Instruction` objects, so every field except the memory rank belongs
to the instruction, not to its position.  The embedder therefore builds each
seed instruction's row once, keyed by object identity, and :meth:`embed`
only gathers the rows in listing order and writes the rank column.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.memory_table import EmbeddingTables, build_embedding_tables
from repro.sass.control import NUM_BARRIERS
from repro.sass.instruction import Instruction
from repro.sass.kernel import SassKernel

#: Column of the opcode channel (the memory rank, or -1).
_RANK_COLUMN = NUM_BARRIERS + 4


class StateEmbedder:
    """Embeds a kernel's instructions into a fixed-width float matrix.

    The embedder is built once per assembly game from the initial kernel so
    the feature width (operand-table size, maximum operand count) stays fixed
    while the schedule mutates.  It embeds reorderings of that kernel: every
    schedule :meth:`SassKernel.swap` derives from it.
    """

    def __init__(self, kernel: SassKernel, tables: EmbeddingTables | None = None):
        self.tables = tables or build_embedding_tables(kernel)
        # Holding the seed instructions keeps the identity keys below valid.
        self._instructions = kernel.instructions
        self.num_instructions = len(self._instructions)
        # 6 wait bits + read + write + yield + stall + opcode channel + operands
        self.num_features = NUM_BARRIERS + 5 + self.tables.max_operands
        self._row_of = {id(instr): row for row, instr in enumerate(self._instructions)}
        self._rows = np.array(
            [self.embed_instruction(instr, None) for instr in self._instructions],
            dtype=np.float64,
        ).reshape(self.shape)
        self._is_memory = np.array(
            [instr.is_actionable_memory for instr in self._instructions], dtype=bool
        )
        self._ranks = np.arange(int(self._is_memory.sum()), dtype=np.float64)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.num_instructions, self.num_features)

    def embed_instruction(self, instr: Instruction, memory_rank: int | None) -> np.ndarray:
        row = np.full(self.num_features, -1.0, dtype=np.float64)
        control = instr.control
        for slot in range(NUM_BARRIERS):
            row[slot] = 1.0 if slot in control.wait_mask else -1.0
        row[NUM_BARRIERS] = control.read_barrier if control.read_barrier is not None else -1.0
        row[NUM_BARRIERS + 1] = control.write_barrier if control.write_barrier is not None else -1.0
        row[NUM_BARRIERS + 2] = 1.0 if control.yield_flag else -1.0
        row[NUM_BARRIERS + 3] = control.stall / 15.0
        row[_RANK_COLUMN] = float(memory_rank) if memory_rank is not None else -1.0
        base = NUM_BARRIERS + 5
        for i, operand in enumerate(instr.operands[: self.tables.max_operands]):
            row[base + i] = self.tables.normalized_index(operand)
        return row

    def embed(self, kernel: SassKernel) -> np.ndarray:
        """The full state matrix: one row per instruction in listing order."""
        row_of = self._row_of
        try:
            order = [row_of[id(line)] for line in kernel.lines if isinstance(line, Instruction)]
        except KeyError:
            raise ValueError(
                "kernel is not a reordering of the embedder's seed listing"
            ) from None
        if len(order) != self.num_instructions:
            # The game only reorders, so the instruction count is invariant;
            # guard against accidental insertion/removal.
            raise ValueError(
                f"instruction count changed: {len(order)} != {self.num_instructions}"
            )
        index = np.array(order, dtype=np.intp)
        matrix = self._rows[index]
        matrix[self._is_memory[index], _RANK_COLUMN] = self._ranks
        return matrix
