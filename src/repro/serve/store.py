"""Pool-level result store: finished reports keyed by §4.2 cache key.

The cubin cache already persists deployable *artifacts* per backend; the
result store keeps the finished :class:`~repro.api.report.RunReport`\\ s
themselves for the lifetime of the pool, so a re-submitted
``(workload, backend)`` pair resolves instantly — no compilation, no search,
no measurement — from the same cache key the deploy path uses.  Distinct GPU
targets never alias because the cache key embeds the backend name.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

from repro.api.report import RunReport
from repro.utils.serialization import fields_to_json


@dataclass
class ResultStoreStats:
    """Counters of one result store."""

    lookups: int = 0
    hits: int = 0
    stores: int = 0
    evictions: int = 0
    invalidations: int = 0

    def as_dict(self) -> dict:
        return fields_to_json(self)


class ResultStore:
    """Thread-safe, size-bounded (LRU) map of cache key → finished report."""

    def __init__(self, max_entries: int | None = None):
        self.max_entries = max_entries
        self.stats = ResultStoreStats()
        self._entries: "OrderedDict[str, RunReport]" = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key: str) -> RunReport | None:
        """The stored report for ``key``, or ``None``; hits refresh LRU age."""
        with self._lock:
            self.stats.lookups += 1
            report = self._entries.get(key)
            if report is None:
                return None
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return report

    def put(self, key: str, report: RunReport) -> None:
        """Store (or refresh) the finished report for ``key``."""
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = report
            self.stats.stores += 1
            if self.max_entries is not None:
                while len(self._entries) > self.max_entries:
                    self._entries.popitem(last=False)
                    self.stats.evictions += 1

    def invalidate(self, key: str) -> bool:
        """Drop the entry for ``key`` (e.g. a hit that failed re-verification).

        Returns whether an entry was actually removed; invalidating an absent
        key is a no-op so concurrent invalidators cannot double-count.
        """
        with self._lock:
            if self._entries.pop(key, None) is None:
                return False
            self.stats.invalidations += 1
            return True

    def items(self) -> list[tuple[str, RunReport]]:
        """Snapshot of every ``(key, report)`` entry, LRU order (oldest first).

        Used by the durable serving layer to persist the store into the job
        journal; taking the snapshot does not refresh LRU ages.
        """
        with self._lock:
            return list(self._entries.items())

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def snapshot(self) -> dict:
        """JSON-able view: the counters plus the current store size."""
        with self._lock:
            return {**self.stats.as_dict(), "entries": len(self._entries)}
