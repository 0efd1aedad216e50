"""Register def-use chains within basic blocks.

Action masking needs to know, for every instruction, which preceding
instruction last assigned each of its source registers (§3.5 "Register
dependencies") and which following instructions consume its destinations.
The analysis is intentionally block-local — the game never moves across
blocks, so cross-block dependencies are irrelevant to masking (they are what
puts instructions on the denylist in :mod:`repro.analysis.stall_inference`).

Registers are identified by the same space-tagged keys the liveness and
dependence analyses use (:data:`repro.analysis.liveness.RegKey` — ``("r",
index)`` / ``("p", index)`` / ``("ur", index)``, zero registers excluded,
vector/pair operands expanded to every covered index), so the three passes
can never disagree on what a "register" is: a predicate and a general
register with the same index are distinct keys, and a ``.64`` pair def
reaches a use of either half.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.cfg import ControlFlowInfo, build_cfg
from repro.analysis.liveness import RegKey, line_defs, line_uses
from repro.sass.instruction import Instruction
from repro.sass.kernel import SassKernel

_SPACE_GENERAL = "r"


def _as_key(register: "int | RegKey") -> RegKey:
    """Accept a bare index (historic API: general space) or a tagged key."""
    if isinstance(register, tuple):
        return register
    return (_SPACE_GENERAL, register)


@dataclass
class DefUseChains:
    """Def-use information for one kernel.

    Attributes
    ----------
    reaching_def:
        ``(line_index, key) -> line_index of the block-local definition``
        that reaches this use, or ``None`` recorded as absent when the value
        is defined outside the block (live-in).  Keys are space-tagged
        :data:`~repro.analysis.liveness.RegKey` tuples covering general,
        predicate and uniform registers alike.
    uses_of:
        ``line_index -> set of line indices`` that use any register defined by
        that line (block-local).
    live_in_uses:
        Line indices that use at least one general register not defined
        earlier in their own block.
    """

    reaching_def: dict[tuple[int, RegKey], int] = field(default_factory=dict)
    uses_of: dict[int, set[int]] = field(default_factory=dict)
    live_in_uses: set[int] = field(default_factory=set)

    def definition_of(self, line_index: int, register: "int | RegKey") -> int | None:
        """Block-local defining line of ``register`` at ``line_index``.

        ``register`` may be a bare index (interpreted in the general space,
        the historic API) or a space-tagged key.
        """
        return self.reaching_def.get((line_index, _as_key(register)))

    def is_user(self, def_index: int, use_index: int) -> bool:
        """Whether ``use_index`` consumes a register defined at ``def_index``."""
        return use_index in self.uses_of.get(def_index, set())


def build_def_use(kernel: SassKernel, cfg: ControlFlowInfo | None = None) -> DefUseChains:
    """Compute block-local def-use chains for ``kernel``."""
    cfg = cfg or build_cfg(kernel)
    chains = DefUseChains()

    for block in cfg.blocks:
        # key -> line index of the most recent definition in this block
        last_def: dict[RegKey, int] = {}
        for line_index in range(block.start, block.end):
            line = kernel.lines[line_index]
            if not isinstance(line, Instruction):
                continue

            used_live_in = False
            for key in line_uses(line):
                def_index = last_def.get(key)
                if def_index is None:
                    # Only general-register live-ins matter to the denylist
                    # heuristic (predicates/uniforms are grid constants in
                    # the kernels the game plays).
                    if key[0] == _SPACE_GENERAL:
                        used_live_in = True
                else:
                    chains.reaching_def[(line_index, key)] = def_index
                    chains.uses_of.setdefault(def_index, set()).add(line_index)
            if used_live_in:
                chains.live_in_uses.add(line_index)

            for key in line_defs(line):
                last_def[key] = line_index
    return chains
