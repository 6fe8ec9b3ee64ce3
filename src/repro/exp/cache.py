"""The content-addressed on-disk result cache.

Every simulation the orchestration layer runs is identified by a stable
SHA-256 key derived from the full machine configuration, the workload
parameters, the trace length and the seed (see
:func:`repro.exp.runner.job_key`).  :class:`ResultCache` stores one JSON file
per key under ``<root>/<key[:2]>/<key>.json``; because the key is a content
address, a cached entry is valid forever -- changing any input produces a
different key, so there is no invalidation logic and no staleness.

Writes are atomic (temporary file + ``os.replace``) so concurrent runs and
interrupted sweeps can share a cache directory safely; a corrupt or
truncated entry is treated as a miss and overwritten on the next run.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterator, Optional, Union

from repro.common.errors import ReproError
from repro.faults import get_injector
from repro.obs.metrics import MetricsRegistry
from repro.trace.format import TRACE_FORMAT_VERSION
from repro.uarch.result import CoreResult

#: Bump when the on-disk entry layout changes; mismatched entries are misses.
CACHE_SCHEMA_VERSION = 1

#: A ``.tmp`` file older than this is an orphan of a killed writer and safe
#: for :meth:`ResultCache.clear` to sweep; younger ones may be live writes.
ORPHAN_TEMP_AGE_SECONDS = 3600.0


@dataclass(frozen=True)
class CacheEntry:
    """Metadata of one cached simulation (as shown by ``repro cache list``)."""

    key: str
    path: Path
    machine: str
    workload: str
    num_instructions: int
    seed: Optional[int]
    created: float
    size_bytes: int
    #: Trace-format version the entry was simulated under (0 for entries
    #: written before the field existed; those never match and read as stale).
    trace_format: int = 0

    @property
    def is_stale(self) -> bool:
        """Whether this entry predates the current trace format."""
        return self.trace_format != TRACE_FORMAT_VERSION


@dataclass(frozen=True)
class PruneReport:
    """Outcome of a :meth:`ResultCache.prune` pass."""

    removed: int
    freed_bytes: int
    remaining: int
    remaining_bytes: int


class ResultCache:
    """A directory of content-addressed :class:`CoreResult` records."""

    def __init__(
        self, root: Union[str, Path], metrics: Optional[MetricsRegistry] = None
    ) -> None:
        self.root = Path(root)
        # The service hands in its registry; a cache without one (the CLI's)
        # counts into a private registry, as a JobManager does.
        registry = metrics if metrics is not None else MetricsRegistry()
        requests = registry.counter(
            "repro_cache_requests_total",
            "Result-cache lookups, by outcome",
            labelnames=("result",),
        )
        self._hits = requests.labels("hit")
        self._misses = requests.labels("miss")
        self._corrupt = requests.labels("corrupt")
        io_bytes = registry.counter(
            "repro_cache_io_bytes_total",
            "Bytes moved through the result cache, by direction",
            labelnames=("direction",),
        )
        self._bytes_read = io_bytes.labels("read")
        self._bytes_written = io_bytes.labels("written")

    def path_for(self, key: str) -> Path:
        """Return the file path a key maps to (two-level fan-out layout)."""
        return self.root / key[:2] / f"{key}.json"

    def get(self, key: str) -> Optional[CoreResult]:
        """Return the cached result for ``key``, or ``None`` on a miss.

        Unreadable or schema-mismatched entries are silently treated as
        misses; the next :meth:`put` overwrites them.  Entries recorded
        under a different trace-format version are also misses: the content
        address *should* already differ (the job key folds the version in),
        but the belt-and-braces check here means a stale result can never be
        served even to a caller that computed its key some other way.

        A *corrupt* entry -- truncated mid-write, undecodable, or carrying a
        result payload that no longer parses -- is worse than stale: it
        occupies the key, so without intervention every future lookup would
        re-parse the same wreckage.  Those are quarantined (renamed to
        ``<name>.corrupt``, outside the ``??/*.json`` globs, for post-mortem
        inspection) and counted under a distinct
        ``repro_cache_requests_total{result="corrupt"}`` label, then the
        lookup misses as usual and the next :meth:`put` rewrites the entry.
        """
        path = self.path_for(key)
        try:
            data = path.read_bytes()
        except OSError:
            self._misses.inc()
            return None
        try:
            payload = json.loads(data.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            self._quarantine(path)
            return None
        if not isinstance(payload, dict):
            self._quarantine(path)
            return None
        if payload.get("schema") != CACHE_SCHEMA_VERSION:
            self._misses.inc()
            return None
        if payload.get("trace_format") != TRACE_FORMAT_VERSION:
            self._misses.inc()
            return None
        try:
            result = CoreResult.from_dict(payload["result"])
        except (KeyError, TypeError, ValueError, ReproError):
            self._quarantine(path)
            return None
        self._hits.inc()
        self._bytes_read.inc(len(data))
        return result

    def _quarantine(self, path: Path) -> None:
        """Move a corrupt entry aside and count the corrupt lookup."""
        self._corrupt.inc()
        self._misses.inc()
        try:
            path.replace(path.with_name(path.name + ".corrupt"))
        except OSError:  # pragma: no cover - raced with a concurrent writer
            pass

    def put(
        self, key: str, result: CoreResult, metadata: Optional[Dict[str, Any]] = None
    ) -> Path:
        """Store ``result`` under ``key`` atomically and return the entry path."""
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "schema": CACHE_SCHEMA_VERSION,
            "trace_format": TRACE_FORMAT_VERSION,
            "key": key,
            "created": time.time(),
            "metadata": metadata or {},
            "result": result.to_dict(),
        }
        # The temporary must be unique per writer: the service's worker
        # threads can put() the same key concurrently in one process, so the
        # pid alone would collide (one thread renaming another's torn file).
        temporary = path.with_name(
            f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp"
        )
        document = json.dumps(payload, sort_keys=True)
        injector = get_injector()
        if injector is not None and injector.should("corrupt_cache", key=key):
            # Chaos harness: model a torn write by persisting only half the
            # document (atomically, so this tests the *reader's* quarantine
            # path, not the writer's temp-file handling).
            document = document[: max(1, len(document) // 2)]
        try:
            temporary.write_text(document, encoding="utf-8")
            os.replace(temporary, path)
        except BaseException:
            # Never leave a torn temporary behind: a reader can only ever see
            # the complete old entry or the complete new one.
            try:
                temporary.unlink()
            except OSError:
                pass
            raise
        self._bytes_written.inc(len(document.encode("utf-8")))
        return path

    def __contains__(self, key: str) -> bool:
        return self.path_for(key).is_file()

    def entries(self) -> Iterator[CacheEntry]:
        """Iterate over every readable cache entry, newest first."""
        records = []
        for path in sorted(self.root.glob("??/*.json")):
            try:
                payload = json.loads(path.read_text(encoding="utf-8"))
                # Inside the try: a concurrent clear()/prune() may unlink the
                # entry between the read and the stat.
                size_bytes = path.stat().st_size
            except (OSError, json.JSONDecodeError):
                continue
            if not isinstance(payload, dict) or payload.get("schema") != CACHE_SCHEMA_VERSION:
                continue
            metadata = payload.get("metadata", {})
            records.append(
                CacheEntry(
                    key=payload.get("key", path.stem),
                    path=path,
                    machine=metadata.get("machine", "?"),
                    workload=metadata.get("workload", "?"),
                    num_instructions=metadata.get("num_instructions", 0),
                    seed=metadata.get("seed"),
                    created=payload.get("created", 0.0),
                    size_bytes=size_bytes,
                    trace_format=payload.get("trace_format", 0),
                )
            )
        records.sort(key=lambda entry: entry.created, reverse=True)
        return iter(records)

    def clear(self, stale_only: bool = False) -> int:
        """Delete cache entries and return how many were removed.

        With ``stale_only`` the pass removes only entries recorded under an
        older trace-format version (``repro cache clear --stale``) -- those
        can never be hits again, so sweeping them reclaims space without
        touching live results.
        """
        removed = 0
        if stale_only:
            for entry in self.entries():
                if not entry.is_stale:
                    continue
                try:
                    entry.path.unlink()
                    removed += 1
                except OSError:
                    continue
            return removed
        for path in self.root.glob("??/*.json"):
            try:
                path.unlink()
                removed += 1
            except OSError:
                continue
        # Also sweep temporaries orphaned by killed writers (not counted).
        # Only stale ones: a concurrent put() may be between its write and
        # rename right now, and unlinking its live temp would fail that job.
        cutoff = time.time() - ORPHAN_TEMP_AGE_SECONDS
        for path in self.root.glob("??/.*.tmp"):
            try:
                if path.stat().st_mtime < cutoff:
                    path.unlink()
            except OSError:
                continue
        return removed

    def prune(
        self,
        older_than_seconds: Optional[float] = None,
        max_size_bytes: Optional[int] = None,
        now: Optional[float] = None,
    ) -> PruneReport:
        """Evict entries by age and/or total size so long-lived caches stay bounded.

        Entries older than ``older_than_seconds`` (measured against ``now``,
        default wall clock) are always removed; afterwards, if the surviving
        entries still exceed ``max_size_bytes``, the oldest are evicted first
        until the cache fits.  Content addressing makes eviction always safe:
        a pruned entry is simply re-simulated on its next request.
        """
        now = time.time() if now is None else now
        survivors = sorted(self.entries(), key=lambda entry: entry.created)
        doomed = []
        if older_than_seconds is not None:
            doomed = [e for e in survivors if now - e.created >= older_than_seconds]
            survivors = [e for e in survivors if now - e.created < older_than_seconds]
        if max_size_bytes is not None:
            total = sum(entry.size_bytes for entry in survivors)
            while survivors and total > max_size_bytes:
                oldest = survivors.pop(0)
                total -= oldest.size_bytes
                doomed.append(oldest)
        freed = 0
        removed = 0
        for entry in doomed:
            try:
                entry.path.unlink()
            except OSError:
                continue
            removed += 1
            freed += entry.size_bytes
        return PruneReport(
            removed=removed,
            freed_bytes=freed,
            remaining=len(survivors),
            remaining_bytes=sum(entry.size_bytes for entry in survivors),
        )
