"""The durable job journal: an append-only JSONL write-ahead log.

Every job lifecycle transition the :class:`~repro.service.jobs.JobManager`
makes is appended as one JSON line *before* the server answers the client,
so a crashed or restarted server can reconstruct what it had promised:

* ``admitted`` -- carries the full normalised request payload (plus tenant,
  lane, content-address key, policy and trace ID), enough to
  re-queue the job verbatim;
* ``dispatched`` / ``completed`` / ``failed`` / ``coalesced`` -- the
  subsequent transitions, keyed by job ID;
* ``snapshot`` -- the accounting baseline written at the head of each fresh
  journal generation: every tenant's lifecycle counts, read from the
  metrics registry (see below).

**Replay.** On startup the server replays the previous generation's file
(:func:`replay_journal`): jobs admitted but never completed/failed are
**re-queued** -- idempotent, because requests are content-addressed and the
result cache is shared, so a job that actually finished its simulations
before the crash completes instantly from the cache -- and per-tenant
accounting totals are restored.  The replayed file is then rotated aside
(``journal-s0.jsonl.prev``) and a fresh generation begins with a
``snapshot`` record of the restored counts, which keeps restarts
*composable*: replaying the new file folds the snapshot baseline with the
events after it, so accounting survives any number of restarts without
double counting.  Re-queued admissions are marked ``requeued`` and excluded
from the totals fold for the same reason -- the original admission is
already in the snapshot.

Each shard journals into its own file (``journal-s<index>.jsonl`` under the
cache directory), so sharded servers never interleave writes.

**Durability contract.** Records are flushed to the OS on every append
(surviving a killed *process*); they are not fsynced per record (a host
power loss can drop the tail).  A torn final line -- the process died
mid-append -- is skipped by replay, never fatal.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, TextIO, Union

from repro.exp.request import JobRequest
from repro.obs.logs import get_logger

#: Bump when the record layout changes incompatibly; replay skips records
#: from other schemas rather than guessing at their meaning.
JOURNAL_SCHEMA_VERSION = 1

#: The lifecycle events a journal records (``snapshot`` is the baseline
#: record, not a lifecycle transition).
JOURNAL_EVENTS = ("admitted", "dispatched", "completed", "failed", "coalesced")

#: Events that end a job's life; an admitted job with none of these is
#: re-queued on replay.
_TERMINAL_EVENTS = frozenset({"completed", "failed"})

log = get_logger("service.journal")


def journal_path(cache_dir: Union[str, Path], shard_index: int = 0) -> Path:
    """Where a shard's journal lives under the shared cache directory."""
    return Path(cache_dir) / f"journal-s{shard_index}.jsonl"


@dataclass(frozen=True)
class ReplayedJob:
    """One admitted-but-unfinished job reconstructed from the journal."""

    job_id: str
    key: str
    request: JobRequest
    tenant: Optional[str]
    lane: Optional[str]
    trace_id: Optional[str]


@dataclass
class JournalReplay:
    """What :func:`replay_journal` recovered from one journal file."""

    #: Jobs to re-queue, in original admission order.
    pending: List[ReplayedJob] = field(default_factory=list)
    #: Per-tenant lifecycle counts (tenant -> event -> count), snapshot
    #: baseline folded with the events recorded after it.  Server-wide
    #: totals are their sums (:func:`repro.service.tenancy.job_totals`).
    tenant_events: Dict[str, Dict[str, int]] = field(default_factory=dict)
    #: Well-formed records processed.
    records: int = 0
    #: Malformed or foreign-schema lines skipped (a torn tail is normal).
    skipped: int = 0


def replay_journal(path: Union[str, Path]) -> JournalReplay:
    """Parse one journal file into a :class:`JournalReplay` (pure, no I/O
    beyond reading ``path``; missing file replays empty)."""
    replay = JournalReplay()
    path = Path(path)
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except OSError:
        return replay
    admitted: Dict[str, Dict[str, Any]] = {}
    finished: set = set()
    for line in lines:
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            replay.skipped += 1
            continue
        if not isinstance(record, dict) or record.get("schema") != JOURNAL_SCHEMA_VERSION:
            replay.skipped += 1
            continue
        event = record.get("event")
        replay.records += 1
        if event == "snapshot":
            # A snapshot supersedes everything before it (it *is* the fold
            # of the previous generation), so reset the running state.
            replay.tenant_events = {
                tenant: {
                    event_name: int(count)
                    for event_name, count in events.items()
                    if isinstance(count, (int, float))
                }
                for tenant, events in (record.get("tenants") or {}).items()
                if isinstance(events, dict)
            }
            admitted.clear()
            finished.clear()
            continue
        if event not in JOURNAL_EVENTS:
            replay.skipped += 1
            replay.records -= 1
            continue
        job_id = record.get("job_id")
        tenant = record.get("tenant")
        if event == "admitted":
            if isinstance(job_id, str) and isinstance(record.get("request"), dict):
                admitted[job_id] = record
            if not record.get("requeued"):
                _bump(replay, tenant, "admitted")
        else:
            if event in _TERMINAL_EVENTS and isinstance(job_id, str):
                finished.add(job_id)
            _bump(replay, tenant, event)
    for job_id, record in admitted.items():
        if job_id in finished:
            continue
        try:
            request = JobRequest.from_dict(record["request"])
        except Exception:  # noqa: BLE001 -- a single bad record must not kill replay
            replay.skipped += 1
            continue
        replay.pending.append(
            ReplayedJob(
                job_id=job_id,
                key=str(record.get("key", "")),
                request=request,
                tenant=record.get("tenant"),
                lane=record.get("lane"),
                trace_id=record.get("trace_id"),
            )
        )
    return replay


def _bump(replay: JournalReplay, tenant: Any, event: str) -> None:
    if not isinstance(tenant, str):
        return
    events = replay.tenant_events.setdefault(tenant, {})
    events[event] = events.get(event, 0) + 1


class JobJournal:
    """One shard's append-only journal writer.

    Thread-safe (the event loop owns normal appends, but shutdown paths may
    close from another thread); every append is flushed before returning so
    an acknowledged transition survives a process kill.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._file: Optional[TextIO] = open(self.path, "a", encoding="utf-8")

    # -- writing -------------------------------------------------------

    def append(self, event: str, **fields: Any) -> None:
        """Append one record; a closed journal drops it silently (shutdown
        races must never fail the job transition they trail)."""
        record = {"schema": JOURNAL_SCHEMA_VERSION, "event": event, "ts": time.time()}
        record.update(fields)
        line = json.dumps(record, sort_keys=True)
        with self._lock:
            if self._file is None:
                return
            try:
                self._file.write(line + "\n")
                self._file.flush()
            except OSError as error:  # pragma: no cover - disk full etc.
                log.warning("journal append failed: %s", error)

    def snapshot(self, tenants: Mapping[str, Mapping[str, int]]) -> None:
        """Write the accounting baseline heading a fresh generation: each
        tenant's lifecycle counts, zero counts omitted."""
        counts = {
            tenant: {event: count for event, count in events.items() if count}
            for tenant, events in tenants.items()
        }
        self.append("snapshot", tenants={tenant: c for tenant, c in counts.items() if c})

    def admitted(self, state: Any, requeued: bool = False) -> None:
        request = state.request
        self.append(
            "admitted",
            job_id=state.job_id,
            key=state.key,
            tenant=state.tenant,
            lane=state.lane,
            trace_id=state.trace_id,
            policy=request.policy,
            figure=request.figure,
            requeued=requeued,
            request=request.to_dict(),
        )

    def coalesced(self, state: Any, tenant: str) -> None:
        self.append("coalesced", job_id=state.job_id, key=state.key, tenant=tenant)

    def dispatched(self, state: Any) -> None:
        self.append(
            "dispatched", job_id=state.job_id, key=state.key, tenant=state.tenant
        )

    def completed(self, state: Any) -> None:
        self.append(
            "completed", job_id=state.job_id, key=state.key, tenant=state.tenant
        )

    def failed(self, state: Any) -> None:
        self.append(
            "failed",
            job_id=state.job_id,
            key=state.key,
            tenant=state.tenant,
            error=state.error,
            error_code=state.error_code,
        )

    # -- lifecycle -----------------------------------------------------

    def close(self) -> None:
        with self._lock:
            if self._file is not None:
                try:
                    self._file.flush()
                    self._file.close()
                except OSError:  # pragma: no cover - close race on teardown
                    pass
                self._file = None

    def __enter__(self) -> "JobJournal":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
