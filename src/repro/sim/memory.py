"""Memory system of the simulated GPU.

Two concerns live here:

* **Functional storage** — :class:`GlobalMemory` owns flat byte-addressed
  device memory backed by numpy, with tensor allocation and dtype-aware
  views; :class:`SharedMemory` is the per-thread-block scratchpad used by the
  LDGSTS / LDS / STS path.
* **Timing** — :class:`MemoryTimingModel` converts a memory request (bytes
  moved, space, whether the line was recently touched) into a completion
  latency, modelling L1/L2/DRAM hit levels, a limited number of in-flight
  requests (MSHRs) and a DRAM bandwidth budget.  These are exactly the
  effects that make SASS instruction placement matter: issuing loads earlier
  and spreading them out overlaps their latency with compute (§2.4).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.arch.ampere import AmpereConfig, MemoryTimings
from repro.errors import ExecutionError

#: Device addresses start here so that 0 is never a valid pointer.
_BASE_ADDRESS = 0x1000_0000
#: Allocation alignment in bytes.
_ALIGNMENT = 256


def _rows_view(buffer: np.ndarray, offset: int, row_bytes: int, stride: int, rows: int) -> np.ndarray:
    """A ``(rows, row_bytes)`` view of a byte buffer whose rows start ``stride`` bytes apart."""
    return np.ndarray((rows, row_bytes), np.uint8, buffer, offset, (stride, 1))


@dataclass
class TensorAllocation:
    """One device tensor: a base address plus a dtype/shape view."""

    name: str
    address: int
    nbytes: int
    dtype: np.dtype
    shape: tuple[int, ...]


class GlobalMemory:
    """Byte-addressed device global memory with tensor allocations."""

    def __init__(self) -> None:
        self._allocations: list[TensorAllocation] = []
        self._buffers: dict[int, np.ndarray] = {}
        self._next_address = _BASE_ADDRESS
        #: Pristine copy of every buffer taken by :meth:`snapshot`, plus the
        #: set of buffers written since — :meth:`restore` only copies those
        #: back, which is what lets one bound launch serve many measurements.
        self._snapshot: dict[int, np.ndarray] | None = None
        self._dirty: set[int] = set()
        #: Last allocation hit by :meth:`_locate`; warp accesses are heavily
        #: local, so this turns the per-access allocation scan into one check.
        self._last_alloc: TensorAllocation | None = None

    # ------------------------------------------------------------------
    # Allocation / host transfer
    # ------------------------------------------------------------------
    def allocate(self, name: str, shape, dtype=np.float16) -> TensorAllocation:
        """Allocate a device tensor and return its allocation record."""
        dtype = np.dtype(dtype)
        shape = tuple(int(s) for s in shape)
        nbytes = int(np.prod(shape)) * dtype.itemsize if shape else dtype.itemsize
        address = self._next_address
        self._next_address += (nbytes + _ALIGNMENT - 1) // _ALIGNMENT * _ALIGNMENT
        alloc = TensorAllocation(name=name, address=address, nbytes=nbytes, dtype=dtype, shape=shape)
        self._allocations.append(alloc)
        self._buffers[address] = np.zeros(nbytes, dtype=np.uint8)
        return alloc

    def upload(self, alloc: TensorAllocation, array: np.ndarray) -> None:
        """Copy a host array into a device tensor."""
        array = np.ascontiguousarray(array, dtype=alloc.dtype)
        if array.nbytes != alloc.nbytes:
            raise ExecutionError(
                f"upload size mismatch for {alloc.name}: {array.nbytes} != {alloc.nbytes}"
            )
        self._preserve(alloc.address)
        self._buffers[alloc.address][:] = array.view(np.uint8).reshape(-1)

    def download(self, alloc: TensorAllocation) -> np.ndarray:
        """Copy a device tensor back to a host array."""
        raw = self._buffers[alloc.address]
        return raw.view(alloc.dtype).reshape(alloc.shape).copy()

    def allocations(self) -> list[TensorAllocation]:
        return list(self._allocations)

    # ------------------------------------------------------------------
    # Measurement reuse: snapshot / restore of tensor contents
    # ------------------------------------------------------------------
    def snapshot(self) -> None:
        """Arm copy-on-write preservation of the current contents.

        No bytes are copied here: the first write to each buffer after arming
        saves that buffer's pristine contents, so a launch that is measured
        once (the one-shot ``measure()`` path) only ever copies the tensors a
        kernel actually stores to — never the full input set.
        """
        self._snapshot = {}
        self._dirty.clear()

    def restore(self) -> None:
        """Reset every buffer written since :meth:`snapshot` to the snapshot.

        No-op without a snapshot.  This makes repeated measurements of
        candidate schedules bit-identical to measuring each on a freshly
        bound launch, at the cost of copying only the dirtied output tensors.
        """
        if self._snapshot is None:
            return
        for address in self._dirty:
            self._buffers[address][:] = self._snapshot[address]
        self._dirty.clear()

    def _preserve(self, address: int) -> None:
        """Copy-on-write hook: save a buffer's pristine bytes before a write."""
        if self._snapshot is not None and address not in self._snapshot:
            self._snapshot[address] = self._buffers[address].copy()
        self._dirty.add(address)

    # ------------------------------------------------------------------
    # Byte-level access used by the executor
    # ------------------------------------------------------------------
    def _find(self, address: int, nbytes: int) -> TensorAllocation | None:
        alloc = self._last_alloc
        if (
            alloc is not None
            and alloc.address <= address
            and address + nbytes <= alloc.address + alloc.nbytes
        ):
            return alloc
        for alloc in self._allocations:
            if alloc.address <= address and address + nbytes <= alloc.address + alloc.nbytes:
                self._last_alloc = alloc
                return alloc
        return None

    def _locate(self, address: int, nbytes: int) -> TensorAllocation:
        alloc = self._find(address, nbytes)
        if alloc is None:
            raise ExecutionError(
                f"out-of-bounds device access: address=0x{address:x} nbytes={nbytes}"
            )
        return alloc

    def in_bounds(self, address: int, nbytes: int) -> bool:
        """Whether the range lies inside one allocation (what every access needs)."""
        return self._find(address, nbytes) is not None

    def check_range(self, address: int, nbytes: int) -> None:
        """Raise exactly as :meth:`read_bytes` / :meth:`write_bytes` would; move nothing."""
        self._locate(address, nbytes)

    def read_bytes(self, address: int, nbytes: int) -> np.ndarray:
        alloc = self._locate(address, nbytes)
        offset = address - alloc.address
        return self._buffers[alloc.address][offset : offset + nbytes].copy()

    def write_bytes(self, address: int, data: np.ndarray) -> None:
        data = np.ascontiguousarray(data).view(np.uint8).reshape(-1)
        alloc = self._locate(address, len(data))
        self._preserve(alloc.address)
        offset = address - alloc.address
        self._buffers[alloc.address][offset : offset + len(data)] = data

    def read_rows(self, address: int, row_bytes: int, stride: int, rows: int) -> np.ndarray:
        """``rows`` rows of ``row_bytes`` bytes, ``stride`` bytes apart, as one flat copy.

        The bytes of one :meth:`read_bytes` per row, concatenated, moved by a
        single strided copy.  The extent from the first row's start to the
        last row's end must lie inside one allocation, or this raises as
        :meth:`read_bytes` of that extent would; a caller that must report
        the first out-of-bounds row checks :meth:`in_bounds` and reads row
        by row instead.
        """
        alloc = self._locate(address, (rows - 1) * stride + row_bytes)
        buffer = self._buffers[alloc.address]
        return _rows_view(buffer, address - alloc.address, row_bytes, stride, rows).flatten()

    def write_rows(self, address: int, data: np.ndarray, row_bytes: int, stride: int) -> None:
        """Write ``data`` as rows of ``row_bytes`` bytes, ``stride`` bytes apart, in one copy.

        The counterpart of :meth:`read_rows`: the rows must not overlap
        (``stride >= row_bytes``), ``data`` must fill whole rows, and the
        extent must lie inside one allocation.
        """
        data = np.ascontiguousarray(data).view(np.uint8).reshape(-1)
        rows = len(data) // row_bytes
        alloc = self._locate(address, (rows - 1) * stride + row_bytes)
        self._preserve(alloc.address)
        view = _rows_view(self._buffers[alloc.address], address - alloc.address, row_bytes, stride, rows)
        view[...] = data.reshape(rows, row_bytes)

    def read_values(self, address: int, count: int, dtype=np.float16) -> np.ndarray:
        dtype = np.dtype(dtype)
        raw = self.read_bytes(address, count * dtype.itemsize)
        return raw.view(dtype).copy()

    def write_values(self, address: int, values: np.ndarray) -> None:
        self.write_bytes(address, np.ascontiguousarray(values))

    def dtype_at(self, address: int) -> np.dtype:
        """The dtype of the tensor containing ``address`` (fp16 by default)."""
        # Allocations never overlap, so the last one hit answers when it
        # contains the address.
        alloc = self._last_alloc
        if alloc is not None and alloc.address <= address < alloc.address + alloc.nbytes:
            return alloc.dtype
        for alloc in self._allocations:
            if alloc.address <= address < alloc.address + alloc.nbytes:
                return alloc.dtype
        return np.dtype(np.float16)


class SharedMemory:
    """Per-thread-block shared memory scratchpad."""

    def __init__(self, size_bytes: int) -> None:
        self.size_bytes = int(size_bytes)
        self._data = np.zeros(self.size_bytes, dtype=np.uint8)

    def in_bounds(self, offset: int, nbytes: int) -> bool:
        return 0 <= offset and offset + nbytes <= self.size_bytes

    def check_range(self, offset: int, nbytes: int) -> None:
        """Raise exactly as :meth:`read_bytes` / :meth:`write_bytes` would; move nothing."""
        if not self.in_bounds(offset, nbytes):
            raise ExecutionError(
                f"shared-memory access out of range: offset={offset} nbytes={nbytes} "
                f"(size={self.size_bytes})"
            )

    def read_bytes(self, offset: int, nbytes: int) -> np.ndarray:
        self.check_range(offset, nbytes)
        return self._data[offset : offset + nbytes].copy()

    def write_bytes(self, offset: int, data: np.ndarray) -> None:
        data = np.ascontiguousarray(data).view(np.uint8).reshape(-1)
        self.check_range(offset, len(data))
        self._data[offset : offset + len(data)] = data

    def read_rows(self, offset: int, row_bytes: int, stride: int, rows: int) -> np.ndarray:
        """Strided rows in one copy, as :meth:`GlobalMemory.read_rows`."""
        self.check_range(offset, (rows - 1) * stride + row_bytes)
        return _rows_view(self._data, offset, row_bytes, stride, rows).flatten()

    def write_rows(self, offset: int, data: np.ndarray, row_bytes: int, stride: int) -> None:
        """Non-overlapping rows in one copy, as :meth:`GlobalMemory.write_rows`."""
        data = np.ascontiguousarray(data).view(np.uint8).reshape(-1)
        rows = len(data) // row_bytes
        self.check_range(offset, (rows - 1) * stride + row_bytes)
        _rows_view(self._data, offset, row_bytes, stride, rows)[...] = data.reshape(rows, row_bytes)

    def read_values(self, offset: int, count: int, dtype=np.float16) -> np.ndarray:
        dtype = np.dtype(dtype)
        raw = self.read_bytes(offset, count * dtype.itemsize)
        return raw.view(dtype).copy()

    def write_values(self, offset: int, values: np.ndarray) -> None:
        self.write_bytes(offset, np.ascontiguousarray(values))

    def clear(self) -> None:
        self._data[:] = 0


# ---------------------------------------------------------------------------
# Timing
# ---------------------------------------------------------------------------
@dataclass
class MemoryRequest:
    """A single memory transaction issued by one warp."""

    space: str  # "global", "shared", "async_copy"
    address: int
    nbytes: int
    is_store: bool = False


@dataclass
class MemoryTimingStats:
    """Counters the profiler reads out after a run."""

    global_load_bytes: int = 0
    global_store_bytes: int = 0
    async_copy_bytes: int = 0
    shared_load_bytes: int = 0
    shared_store_bytes: int = 0
    transactions: int = 0
    l1_hits: int = 0
    l2_hits: int = 0
    dram_accesses: int = 0
    #: Sum of the in-flight spans (issue to completion) of every global and
    #: async-copy request.  Overlapping requests each add their full span, so
    #: this can exceed the run's cycle count; ``build_profile`` divides it by
    #: ``cycles * mshr_per_sm``, the share of MSHR slot-cycles in use.
    busy_cycles: int = 0


class MemoryTimingModel:
    """Latency / bandwidth model for one SM's view of the memory system.

    The model captures three first-order effects:

    * a *cache line reuse* effect: the first access to a 128-byte line pays
      L2/DRAM latency, later accesses to the same line pay L1 latency;
    * a *bandwidth* limit: DRAM can deliver only so many bytes per cycle, so
      bursts of requests queue behind each other;
    * an *MSHR* limit: only a bounded number of requests can be outstanding;
      beyond that, new requests stall until a slot frees up.
    """

    LINE_BYTES = 128

    def __init__(self, config: AmpereConfig):
        self.config = config
        self.timings: MemoryTimings = config.memory
        self.stats = MemoryTimingStats()
        self._touched_lines: set[int] = set()
        #: completion times of in-flight requests (for the MSHR limit).
        self._inflight: list[int] = []
        #: cycle at which DRAM is next free (bandwidth serialisation).
        self._dram_free_at: float = 0.0

    def reset(self) -> None:
        self.stats = MemoryTimingStats()
        self._touched_lines.clear()
        self._inflight.clear()
        self._dram_free_at = 0.0

    # ------------------------------------------------------------------
    def request_latency(self, request: MemoryRequest, issue_cycle: int) -> int:
        """Completion latency (cycles after issue) of a memory request."""
        t = self.timings
        self.stats.transactions += 1

        if request.space == "shared":
            if request.is_store:
                self.stats.shared_store_bytes += request.nbytes
            else:
                self.stats.shared_load_bytes += request.nbytes
            return t.shared_latency

        # Global or async-copy traffic.
        if request.space == "async_copy":
            self.stats.async_copy_bytes += request.nbytes
        elif request.is_store:
            self.stats.global_store_bytes += request.nbytes
        else:
            self.stats.global_load_bytes += request.nbytes

        # Cache-line locality: a line touched before hits in L1.
        line = request.address // self.LINE_BYTES
        lines = range(line, (request.address + max(request.nbytes, 1) - 1) // self.LINE_BYTES + 1)
        new_lines = [ln for ln in lines if ln not in self._touched_lines]
        if not new_lines:
            base_latency = t.l1_latency
            self.stats.l1_hits += 1
        else:
            base_latency = t.l2_latency if len(new_lines) <= 1 else t.dram_latency
            if len(new_lines) <= 1:
                self.stats.l2_hits += 1
            else:
                self.stats.dram_accesses += 1
            self._touched_lines.update(new_lines)

        if request.space == "async_copy":
            base_latency += t.async_copy_extra

        # MSHR pressure: drop completed requests, then queue if full.
        self._inflight = [c for c in self._inflight if c > issue_cycle]
        mshr_penalty = 0
        if len(self._inflight) >= t.mshr_per_sm:
            # Must wait for the oldest outstanding request to retire.
            mshr_penalty = max(0, min(self._inflight) - issue_cycle)

        # DRAM bandwidth: the request occupies the pipe for bytes / bandwidth.
        service = request.nbytes / max(t.dram_bytes_per_cycle_per_sm, 1e-9)
        start = max(issue_cycle + mshr_penalty, self._dram_free_at)
        self._dram_free_at = start + service
        completion = int(start + base_latency + service)

        self._inflight.append(completion)
        self.stats.busy_cycles += int(completion - issue_cycle)
        return completion - issue_cycle
