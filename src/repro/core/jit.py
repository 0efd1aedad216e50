"""The deploy-time cubin cache (§4.2).

The paper's workflow is: change one line (``@triton.jit`` → ``@cuasmrl.jit``),
invoke the kernel once to trigger the hierarchical optimization, and at
deployment look the cached optimized cubin up instead of retraining.  Here
that workflow is the :class:`repro.api.Session` facade::

    from repro.api import Session, OptimizationConfig

    session = Session(gpu="A100-sim", cache_dir="./cache",
                      config=OptimizationConfig(scale="test"))
    session.optimize("softmax")          # offline, one-time cost
    deployed = session.deploy("softmax")  # cached-cubin lookup

This module holds the filesystem cache a session owns (:class:`CubinCache`)
and its key (:func:`cache_key`).
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import os
import re
from dataclasses import dataclass
from pathlib import Path

from repro.errors import OptimizationError
from repro.sass.cubin import Cubin
from repro.utils.logging import get_logger
from repro.utils.serialization import from_json_file, to_json_file, to_json_str

_LOG = get_logger("core.jit")

#: Version of the cache-entry metadata schema.  Bump when the stored metadata
#: *layout* changes; entries written under a different (or missing) version
#: are treated as cache misses.  Timing-model changes no longer need a bump:
#: compatibility with the simulator is derived from a content digest of the
#: latency table (:func:`timing_model_digest`), so retuning the table
#: automatically invalidates schedules optimized against the old model.
CACHE_SCHEMA_VERSION = 2


@functools.lru_cache(maxsize=1)
def timing_model_digest() -> str:
    """Content digest of the timing model backing the simulator's rewards.

    Covers the microbenchmarked stall-count table (Table 1), which is what
    optimized schedules were ranked by.  Cached cubins store this digest and
    read as misses when it drifts — no hand-bumped constant to forget.
    """
    from repro.arch.latency_table import default_stall_table

    rows = sorted(default_stall_table().as_rows())
    canonical = to_json_str({"stall_table": [[opcode, stall] for opcode, stall in rows]})
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]

#: Characters allowed verbatim in a cache-key token; everything else folds to "-".
_UNSAFE_CHARS = re.compile(r"[^A-Za-z0-9._\-]+")
#: Length cap of the human-readable part, keeping keys well under the common
#: 255-byte filename limit (the hash suffix carries the full identity).
_READABLE_KEY_LIMIT = 160


def _sanitize_token(value) -> str:
    """Fold an arbitrary key/value into a filesystem-safe token."""
    token = _UNSAFE_CHARS.sub("-", str(value))
    token = re.sub(r"\.{2,}", ".", token).strip("-.")
    return token or "x"


def cache_key(gpu_name: str, kernel_name: str, shapes: dict) -> str:
    """Cache key: GPU type + workload + shapes, as §4.2 prescribes.

    The readable prefix is sanitized (shape values may be tuples, nested
    dicts or contain path separators) and a short digest of the canonical
    ``(gpu, kernel, shapes)`` identity is appended, so distinct shape dicts
    that sanitize to the same prefix still get distinct keys.
    """
    shape_part = "_".join(
        f"{_sanitize_token(key)}{_sanitize_token(value)}" for key, value in sorted(shapes.items())
    )
    readable = (
        f"{_sanitize_token(gpu_name)}__{_sanitize_token(kernel_name)}__{shape_part}"
    )[:_READABLE_KEY_LIMIT].rstrip("_-")
    canonical = to_json_str(
        {
            "gpu": str(gpu_name),
            "kernel": str(kernel_name),
            # str(), not repr(): keys must be insensitive to the value's exact
            # numeric type (128 vs np.int64(128)) across optimize and deploy.
            "shapes": {str(key): str(value) for key, value in sorted(shapes.items())},
        }
    )
    digest = hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:10]
    return f"{readable}__{digest}"


@dataclass
class CacheEntry:
    """One cached optimized kernel."""

    key: str
    cubin_path: Path
    meta_path: Path
    _meta: "dict | None" = dataclasses.field(default=None, repr=False, compare=False)

    def load_cubin(self) -> Cubin:
        return Cubin.unpack(self.cubin_path.read_bytes())

    def load_meta(self) -> dict:
        """Parsed metadata; cached on the entry so validation and deploy share one parse."""
        if self._meta is None:
            self._meta = from_json_file(self.meta_path)
        return self._meta


class CubinCache:
    """Filesystem cache of optimized cubins.

    With ``max_entries`` set the cache is size-bounded: every store evicts the
    least-recently-used entries (by metadata-file mtime; loads touch their
    entry) beyond the bound.  The bound is per-directory, so the namespaced
    per-backend caches of a :class:`repro.pool.SessionPool` are bounded
    independently.
    """

    def __init__(self, directory: str | Path, *, max_entries: int | None = None):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        if max_entries is not None and max_entries < 1:
            raise ValueError(f"max_entries must be at least 1, got {max_entries}")
        self.max_entries = max_entries

    def entry(self, key: str) -> CacheEntry:
        return CacheEntry(
            key=key,
            cubin_path=self.directory / f"{key}.cubin",
            meta_path=self.directory / f"{key}.json",
        )

    def has(self, key: str) -> bool:
        return self._valid_entry(key) is not None

    def _valid_entry(self, key: str) -> "CacheEntry | None":
        """The entry for ``key`` if present and schema-compatible, else ``None``."""
        entry = self.entry(key)
        if not (entry.cubin_path.exists() and entry.meta_path.exists()):
            return None
        return entry if self._schema_compatible(entry) else None

    @staticmethod
    def _schema_compatible(entry: CacheEntry) -> bool:
        """Whether the entry matches the current schema and timing model."""
        try:
            meta = entry.load_meta()
        except Exception:
            return False
        if meta.get("schema_version") != CACHE_SCHEMA_VERSION:
            _LOG.debug(
                "cache entry %s has schema %r (current %d); treating as miss",
                entry.key,
                meta.get("schema_version"),
                CACHE_SCHEMA_VERSION,
            )
            return False
        if meta.get("timing_model") != timing_model_digest():
            _LOG.debug(
                "cache entry %s was optimized under timing model %r (current %s); "
                "treating as miss",
                entry.key,
                meta.get("timing_model"),
                timing_model_digest(),
            )
            return False
        return True

    def store(self, key: str, optimized) -> CacheEntry:
        entry = self.entry(key)
        entry.cubin_path.write_bytes(optimized.cubin.pack())
        to_json_file(entry.meta_path, {
            "key": key,
            "schema_version": CACHE_SCHEMA_VERSION,
            "timing_model": timing_model_digest(),
            "kernel": optimized.compiled.kernel.metadata.name,
            "shapes": optimized.compiled.shapes,
            "config": optimized.compiled.config,
            "baseline_time_ms": optimized.result.baseline_time_ms,
            "best_time_ms": optimized.result.best_time_ms,
            "speedup": optimized.result.speedup,
        })
        if self.max_entries is not None:
            self._evict_lru()
        return entry

    def _evict_lru(self) -> None:
        """Drop the least-recently-used entries beyond ``max_entries``.

        Recency is the metadata file's mtime: stores write it and loads touch
        it.  Ties (filesystems with coarse timestamps) break by key so the
        eviction order stays deterministic.  Concurrent writers may share one
        directory (duplicate-backend pool workers), so files that vanish
        between listing and stat/unlink are skipped, not errors.
        """
        metas = []
        for meta_path in self.directory.glob("*.json"):
            try:
                metas.append(((meta_path.stat().st_mtime_ns, meta_path.name), meta_path))
            except OSError:  # evicted by a concurrent writer mid-listing
                continue
        metas.sort()
        for _, meta_path in metas[: max(len(metas) - self.max_entries, 0)]:
            _LOG.debug("evicting cache entry %s (max_entries=%d)", meta_path.stem, self.max_entries)
            meta_path.with_suffix(".cubin").unlink(missing_ok=True)
            meta_path.unlink(missing_ok=True)

    def load(self, key: str) -> CacheEntry:
        entry = self._valid_entry(key)
        if entry is None:
            raise OptimizationError(f"no cached cubin for key {key!r} in {self.directory}")
        # A load is a use: refresh the entry's mtime so LRU eviction keeps
        # frequently deployed kernels resident.  Best effort only — the cache
        # may live on read-only media (deploy-only sessions) or the entry may
        # be racing a concurrent eviction.
        try:
            os.utime(entry.meta_path)
        except OSError:
            pass
        # The entry carries the metadata parsed during validation, so callers'
        # load_meta() does not re-read the file.
        return entry
