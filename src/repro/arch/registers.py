"""Register-file bank model and the operand reuse cache.

On Volta/Turing/Ampere the register file of each SM sub-partition is split
into banks; an instruction that reads two operands living in the same bank in
the same cycle suffers a *bank conflict* and stalls for an extra cycle.  The
``.reuse`` flag tells the operand collector to keep a source operand latched
so the next instruction can read it without touching the register file —
MaxAs documents this as the main tool for avoiding conflicts, and §5.7.1 of
the paper attributes the discovered HMMA/LDGSTS reordering win to keeping the
reuse cache valid.

This module gives the simulator a simple but faithful model of both effects.
The production issue loop keeps one reuse cache (a set of register indices)
per sub-partition and calls :func:`bank_conflicts` and :func:`fetch_stalls`;
:class:`RegisterBankModel` holds the same state for the frozen reference
engine.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

#: Register-file banks per sub-partition on every shipped backend.
REGISTER_BANKS = 4


def bank_conflicts(reads: Sequence[int], num_banks: int) -> int:
    """Extra cycles to fetch the distinct registers ``reads`` in one cycle.

    A register lives in bank ``index % num_banks``; every read beyond the
    first in a bank costs a cycle.
    """
    return len(reads) - len({reg % num_banks for reg in reads})


def fetch_stalls(
    cache: set[int], reads: Sequence[int], reuse_reads: Sequence[int], num_banks: int, slots: int
) -> int:
    """Operand-fetch stall of one issue against a partition's reuse ``cache``.

    Registers the cache holds skip the register file; the rest pay
    :func:`bank_conflicts`.  Then the ``.reuse``-flagged reads are latched,
    evicting the lowest cached index while the cache holds ``slots``
    registers.  ``reads`` are sorted and distinct, ``reuse_reads`` the
    flagged ones among them in the same order.
    """
    stall = bank_conflicts([reg for reg in reads if reg not in cache], num_banks)
    for reg in reuse_reads:
        if len(cache) >= slots and reg not in cache:
            cache.discard(min(cache))
        cache.add(reg)
    return stall


@dataclass
class RegisterBankModel:
    """Operand-collector state of one sub-partition (reference engine).

    It keeps a small reuse cache keyed by register index; entries are
    installed by ``.reuse`` flags and invalidated whenever the owning warp is
    switched out (the hypothesis of §5.7.1) or the register is overwritten.
    """

    num_banks: int = REGISTER_BANKS
    reuse_slots: int = 8
    _reuse_cache: set[int] = field(default_factory=set)

    def invalidate(self) -> None:
        """Invalidate the reuse cache (warp switch or barrier)."""
        self._reuse_cache.clear()

    def invalidate_register(self, reg_index: int) -> None:
        """Drop a register from the cache when it is overwritten."""
        self._reuse_cache.discard(reg_index)

    def notify_write(self, written_registers) -> None:
        """Invalidate cache entries clobbered by an instruction's writes."""
        for reg in written_registers:
            self.invalidate_register(reg)
