"""The SASS kernel container.

A :class:`SassKernel` is an ordered list of instructions and labels together
with kernel metadata (name, register usage, shared-memory usage, launch
bounds).  It is what the disassembler produces from a cubin kernel section,
what the analysis passes consume and what the assembly game mutates.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from typing import Iterable, Iterator

from repro.errors import SassError
from repro.sass.instruction import Instruction, Label
from repro.sass.parser import parse_listing


@dataclass(frozen=True)
class KernelMetadata:
    """Metadata preserved alongside the SASS listing (symbol-table level info)."""

    name: str = "kernel"
    num_registers: int = 32
    shared_memory_bytes: int = 0
    num_warps: int = 4
    arch: str = "sm_80"
    #: Number of kernel parameters (pointers / scalars) in constant bank 0.
    num_params: int = 0


class SassKernel:
    """An ordered SASS listing plus metadata.

    The container is *mutable by replacement*: mutation helpers return new
    ``SassKernel`` objects, which keeps episode rollbacks in the assembly game
    trivial and makes accidental aliasing bugs impossible.
    """

    def __init__(self, lines: Iterable[Instruction | Label], metadata: KernelMetadata | None = None):
        self._lines: tuple[Instruction | Label, ...] = tuple(lines)
        self.metadata = metadata or KernelMetadata()

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_text(cls, text: str, metadata: KernelMetadata | None = None) -> "SassKernel":
        """Parse a SASS listing into a kernel."""
        return cls(parse_listing(text), metadata=metadata)

    # ------------------------------------------------------------------
    # Sequence protocol
    # ------------------------------------------------------------------
    @property
    def lines(self) -> tuple[Instruction | Label, ...]:
        return self._lines

    def __len__(self) -> int:
        return len(self._lines)

    def __iter__(self) -> Iterator[Instruction | Label]:
        return iter(self._lines)

    def __getitem__(self, index):
        return self._lines[index]

    def __eq__(self, other) -> bool:
        if not isinstance(other, SassKernel):
            return NotImplemented
        return self._lines == other._lines and self.metadata == other.metadata

    def __hash__(self) -> int:
        return hash((self._lines, self.metadata))

    def __getstate__(self):
        """Pickle the kernel's own state: its lines, metadata and digest.

        Whatever other modules pin on a kernel object (the simulator's
        decoded program, the listing's verifier, the multiset cache) stays
        behind and is rebuilt or re-shared on first use after unpickling.
        The content digest is kept: it is small, deterministic and saves a
        re-hash."""
        own = ("_lines", "metadata", "_content_digest")
        return {key: value for key, value in self.__dict__.items() if key in own}

    def __setstate__(self, state):
        self.__dict__.update(state)

    def multiset_cache(self) -> dict:
        """A dict shared by this kernel and every kernel :meth:`swap` derives from it.

        A swap only reorders instructions, so facts that depend on the
        instruction multiset but not on its order (the simulator's timing
        slice) hold for the whole family and are computed once.  Not pickled.
        """
        cache: dict | None = self.__dict__.get("_multiset_cache")
        if cache is None:
            cache = {}
            self._multiset_cache = cache
        return cache

    def content_digest(self) -> str:
        """Stable hex digest of the instruction sequence (the schedule identity).

        Two kernels with the same listing (same instructions, control codes and
        labels in the same order) share a digest regardless of object identity,
        which is what measurement memoization and per-schedule noise streams
        key on.  The digest is cached: kernels are immutable by construction.
        """
        digest = getattr(self, "_content_digest", None)
        if digest is None:
            text = "\n".join([self.metadata.name, *(line.render() for line in self._lines)])
            digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
            self._content_digest = digest
        return digest

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    @property
    def instructions(self) -> tuple[Instruction, ...]:
        """All instructions, labels excluded, in listing order."""
        return tuple(line for line in self._lines if isinstance(line, Instruction))

    def instruction_indices(self) -> list[int]:
        """Listing indices of instruction lines."""
        return [i for i, line in enumerate(self._lines) if isinstance(line, Instruction)]

    def labels(self) -> dict[str, int]:
        """Mapping of label name to listing index."""
        return {line.name: i for i, line in enumerate(self._lines) if isinstance(line, Label)}

    def memory_instruction_indices(self) -> list[int]:
        """Listing indices of actionable memory load/store instructions (§3.5)."""
        return [
            i
            for i, line in enumerate(self._lines)
            if isinstance(line, Instruction) and line.is_actionable_memory
        ]

    def basic_blocks(self) -> list[tuple[int, int]]:
        """Half-open ``(start, end)`` listing-index ranges of basic blocks.

        A block ends before every label and after every synchronizing /
        control-flow instruction; the assembly game only reorders within a
        block (§3.5).
        """
        blocks: list[tuple[int, int]] = []
        start = 0
        for i, line in enumerate(self._lines):
            if isinstance(line, Label):
                if i > start:
                    blocks.append((start, i))
                start = i + 1
            elif isinstance(line, Instruction) and line.is_sync:
                blocks.append((start, i + 1))
                start = i + 1
        if start < len(self._lines):
            blocks.append((start, len(self._lines)))
        return [b for b in blocks if b[1] > b[0]]

    def block_of(self, index: int) -> tuple[int, int]:
        """The basic block containing listing index ``index``."""
        for start, end in self.basic_blocks():
            if start <= index < end:
                return (start, end)
        raise SassError(f"index {index} is not inside any basic block")

    # ------------------------------------------------------------------
    # Mutation (by replacement)
    # ------------------------------------------------------------------
    def swap(self, index_a: int, index_b: int) -> "SassKernel":
        """Return a new kernel with the lines at the two indices swapped.

        This is the primitive the RL action applies (§3.5, Figure 5): the
        *instructions* trade places while each keeps its own control code's
        barriers; the paper swaps whole lines, which is what we do here.
        """
        lines = list(self._lines)
        if not (0 <= index_a < len(lines)) or not (0 <= index_b < len(lines)):
            raise SassError(f"swap indices out of range: {index_a}, {index_b}")
        if not isinstance(lines[index_a], Instruction) or not isinstance(lines[index_b], Instruction):
            raise SassError("can only swap instruction lines, not labels")
        lines[index_a], lines[index_b] = lines[index_b], lines[index_a]
        swapped = SassKernel(lines, metadata=self.metadata)
        swapped._multiset_cache = self.multiset_cache()
        return swapped

    def insert_line(self, index: int, line: Instruction | Label) -> "SassKernel":
        lines = list(self._lines)
        lines.insert(index, line)
        return SassKernel(lines, metadata=self.metadata)

    def without_reuse_flags(self) -> "SassKernel":
        """Strip all ``.reuse`` flags (used by the §5.7.1 study)."""
        lines = [
            line.without_reuse_flags() if isinstance(line, Instruction) else line
            for line in self._lines
        ]
        return SassKernel(lines, metadata=self.metadata)

    def with_metadata(self, **kwargs) -> "SassKernel":
        return SassKernel(self._lines, metadata=replace(self.metadata, **kwargs))

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def render(self) -> str:
        """Render the kernel back to SASS text (round-trips through the parser)."""
        out: list[str] = [f"// kernel: {self.metadata.name} ({self.metadata.arch})"]
        for line in self._lines:
            if isinstance(line, Label):
                out.append(line.render())
            else:
                out.append("    " + line.render())
        return "\n".join(out) + "\n"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SassKernel(name={self.metadata.name!r}, lines={len(self._lines)}, "
            f"instructions={len(self.instructions)})"
        )
