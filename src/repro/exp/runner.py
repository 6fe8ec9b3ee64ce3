"""The parallel sweep runner.

The unit of work of every paper figure is one *simulation job*: run one
machine configuration over one workload's trace at a given length and seed.
:class:`SimJob` captures exactly those inputs; because the machine and
workload descriptions are frozen dataclasses of primitives, a job is

* **deterministic** -- the workload generator derives its stream from
  ``(seed, workload.name)`` alone (see
  :func:`repro.workloads.suite.generate_member_trace`) and the timing models
  contain no randomness, so a job's result is a pure function of the job;
* **content-addressed** -- :func:`job_key` hashes the canonical JSON form of
  the job, giving a stable key for the on-disk result cache; and
* **picklable** -- jobs cross process boundaries unchanged, so a
  process pool can execute them in any order on any worker.

:class:`ExperimentRunner` builds on those properties: it deduplicates a
batch of jobs, satisfies what it can from a :class:`~repro.exp.cache.ResultCache`,
fans the misses out over a process pool (or runs them inline for ``jobs=1``;
a runner built with ``children`` runs every miss in its pool)
and reassembles per-suite aggregates.  Wherever a job runs, its trace comes
from one place: :func:`run_job`'s per-process memo, so a pool worker
generates the traces of its chunk itself.  Serial and parallel execution
produce bit-identical results.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import signal
import threading
from dataclasses import dataclass
from functools import partial
from time import perf_counter
from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.common import phases
from repro.common.errors import ConfigurationError
from repro.common.serialize import stable_hash, to_jsonable
from repro.exp.cache import ResultCache
from repro.faults import get_injector
from repro.isa.trace import Trace
from repro.obs import spans
from repro.sim.configs import MachineConfig
from repro.sim.simulator import Simulator, SuiteResult
from repro.trace.format import TRACE_FORMAT_VERSION
from repro.uarch.result import CoreResult
from repro.workloads.base import WorkloadParameters
from repro.workloads.suite import WorkloadSuite, generate_member_trace

if TYPE_CHECKING:
    # Imported only where a pool starts, which `repro serve`'s start-up
    # never does: the executor module costs start-up time.
    from concurrent.futures import ProcessPoolExecutor

#: Bump when the meaning of a job changes (e.g. the runner's aggregation
#: semantics); old cache entries then stop matching automatically.  Changes
#: to the *trace* semantics (generator derivation, record format) are
#: covered separately by :data:`repro.trace.format.TRACE_FORMAT_VERSION`,
#: which every job key also incorporates.  Version 2: ``lines_locked``
#: became a first-lock-transition count (a resident line gaining a second
#: owner no longer double-counts), so cached counters from version 1 no
#: longer mean the same thing.
JOB_SCHEMA_VERSION = 2


@dataclass(frozen=True)
class SimJob:
    """One simulation: a machine, a workload, a trace length and a seed."""

    machine: MachineConfig
    workload: WorkloadParameters
    num_instructions: int
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if self.num_instructions < 0:
            # Refused here, so a submission that could never run is a 400
            # at admission instead of a failed job.
            raise ConfigurationError(
                f"num_instructions must be non-negative, got {self.num_instructions}"
            )

    def key(self) -> str:
        """The job's stable content address (cache key).

        Memoised on the job, not process-wide: the runner asks a job for its
        key several times, and the memo is freed with the job.
        """
        key = self.__dict__.get("_key")
        if key is None:
            key = self.__dict__["_key"] = job_key(self)
        return key


@dataclass(frozen=True)
class SweepCase:
    """One point of a declarative sweep: a machine over a suite.

    A case is its own key.  It is frozen and hashable, equal cases are the
    same point, and :meth:`ExperimentRunner.run_cases` returns results keyed
    by the cases themselves.  The experiment plans in
    :mod:`repro.sim.experiments` declare every figure as cases; the runner
    expands each case into one :class:`SimJob` per suite member.
    """

    machine: MachineConfig
    suite_label: str


def job_key(job: SimJob) -> str:
    """Return the SHA-256 content address of a job.

    The key covers the complete machine configuration, the full workload
    description, the trace length, the seed and the trace-format version
    (:data:`repro.trace.format.TRACE_FORMAT_VERSION`), so any change to any
    of them -- including a bump of the trace semantics -- yields a different
    key.  The machine's display ``name`` is excluded:
    physically identical machines that different figures label differently
    (e.g. ``FMC-Hash`` vs Figure 7's ``ELSQ Hash ERT + SQM``) share one
    simulation and one cache entry; the runner restores the requested label
    when it assembles suite aggregates.  Keys are stable across processes
    and ``PYTHONHASHSEED`` values (see
    :func:`repro.common.serialize.stable_hash`).
    """
    machine = to_jsonable(job.machine)
    machine.pop("name", None)
    return stable_hash(
        {
            "schema": JOB_SCHEMA_VERSION,
            "trace_format": TRACE_FORMAT_VERSION,
            "machine": machine,
            "workload": to_jsonable(job.workload),
            "num_instructions": job.num_instructions,
            "seed": job.seed,
        }
    )


#: Per-process memo of generated traces, keyed by (workload hash, length,
#: seed).  Pool workers persist across jobs, so a worker simulating several
#: machines over the same workload generates its trace only once.
_TRACE_MEMO: Dict[Tuple[str, int, Optional[int]], Trace] = {}
_TRACE_MEMO_LIMIT = 128


def clear_trace_memo() -> None:
    """Drop this process's generated-trace memo.

    Timing harnesses call this between measured runs: a fork-based worker
    pool inherits the parent's memo, so a preceding in-process run would
    otherwise let the pool skip trace generation and skew the comparison.
    """
    _TRACE_MEMO.clear()


def _trace_for(workload: WorkloadParameters, num_instructions: int, seed: Optional[int]) -> Trace:
    memo_key = (stable_hash(workload), num_instructions, seed)
    trace = _TRACE_MEMO.get(memo_key)
    if trace is None:
        if len(_TRACE_MEMO) >= _TRACE_MEMO_LIMIT:
            _TRACE_MEMO.clear()
        started = perf_counter()
        trace = generate_member_trace(workload, num_instructions, seed=seed)
        phases.add("generation", perf_counter() - started)
        _TRACE_MEMO[memo_key] = trace
    return trace


def run_job(job: SimJob) -> CoreResult:
    """Execute one job in this process: generate the trace and simulate it."""
    trace = _trace_for(job.workload, job.num_instructions, job.seed)
    return Simulator(job.machine).run_trace(trace)


def available_cpus() -> int:
    """CPUs this process may actually run on (affinity-aware).

    Capping the worker count here is what fixes the historical parallel
    *slowdown*: forking more CPU-bound workers than there are cores buys no
    concurrency but still pays fork, pickling and scheduling costs.  Tests
    monkeypatch this to exercise the pool path deterministically.
    """
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux hosts
        return os.cpu_count() or 1


def _dispatch_order(job: SimJob) -> Tuple[str, int, int]:
    """Sort key grouping a batch by workload before it is chunked.

    Pool chunks are contiguous slices of the sorted batch, so grouping by
    workload sends all jobs sharing a trace to the same worker -- each worker
    then generates (and memoises) every trace it needs exactly once instead
    of every worker regenerating most of the batch's traces.
    """
    return (job.workload.name, job.num_instructions, -1 if job.seed is None else job.seed)


def _watch_parent() -> None:
    """Pool-child initializer: die with the parent, leave Ctrl-C to it.

    A pool child outlives a parent killed outright (SIGKILL runs no
    clean-up), so each child watches its parent's sentinel on a daemon
    thread and exits the moment the parent is gone.  Ctrl-C reaches the
    whole process group; the parent decides what happens to the pool, so
    a child ignores it instead of dying with a traceback.
    """
    from multiprocessing.connection import wait

    signal.signal(signal.SIGINT, signal.SIG_IGN)
    parent = multiprocessing.parent_process()
    if parent is None:  # pragma: no cover - always set in a pool child
        return

    def watch() -> None:
        wait([parent.sentinel])
        os._exit(1)

    threading.Thread(target=watch, name="repro-parent-watch", daemon=True).start()


def _pool_worker(
    record_spans: bool, doomed: Optional[str], job: SimJob
) -> Tuple[str, Dict[str, Any], Tuple[Dict[str, float], List[Dict[str, Any]]]]:
    """Pool entry point: run a job and ship the result back as plain JSON types.

    The worker generates the job's trace itself through :func:`run_job`'s
    per-process memo; the parent hands each worker one contiguous,
    workload-sorted chunk, so a worker generates each trace of its chunk
    once.

    Beside the result, the task returns what it observed in *this*
    process: its phase seconds (for :func:`repro.common.phases.merge`) and,
    when ``record_spans`` says the parent was recording at dispatch, its
    spans (for :func:`repro.obs.spans.merge`); otherwise it records none.
    Bracketing the task (totals before, spans drained after, recording
    restored) keeps the delta exact in a long-lived worker and leaves
    global state untouched when the "pool" is an in-process test double.

    ``doomed`` is the key of the job the chaos harness's ``kill_worker``
    fault picked (see :meth:`ExperimentRunner._execute`): the child that
    receives it SIGKILLs itself before simulating, a real process death.
    """
    key = job.key()
    if key == doomed:
        os.kill(os.getpid(), getattr(signal, "SIGKILL", signal.SIGTERM))
    totals_before = phases.snapshot()
    mark = spans.span_count()
    was_recording = spans.recording()
    spans.set_recording(record_spans)
    try:
        payload = run_job(job).to_dict()
    finally:
        spans.set_recording(was_recording)
    phase_delta = {
        phase: seconds - totals_before.get(phase, 0.0)
        for phase, seconds in phases.snapshot().items()
        if seconds > totals_before.get(phase, 0.0)
    }
    return key, payload, (phase_delta, spans.drain_after(mark))


def _kill_pool(pool: ProcessPoolExecutor, wait: bool) -> None:
    """SIGKILL an executor's children, then shut it down.

    The executor has no public way to kill its children before Python 3.14
    (``kill_workers``), so this reaches for its process table.
    """
    for process in list((pool._processes or {}).values()):
        process.kill()
    pool.shutdown(wait=wait, cancel_futures=True)


def _relabel(result: CoreResult, machine_name: str) -> CoreResult:
    """Restore a machine's display name on a shared (name-agnostic) result.

    Jobs are deduplicated and cached without the machine name, so the result
    may carry the label of whichever identically-configured machine ran
    first; the suite aggregates must report the requested name.
    """
    if result.config_name == machine_name:
        return result
    return dataclasses.replace(result, config_name=machine_name)


def _job_metadata(job: SimJob) -> Dict[str, Any]:
    return {
        "machine": job.machine.name,
        "workload": job.workload.name,
        "num_instructions": job.num_instructions,
        "seed": job.seed,
    }


class ExperimentRunner:
    """Executes batches of simulation jobs with caching and parallelism.

    The pool (a :class:`~concurrent.futures.ProcessPoolExecutor`) is
    created lazily, capped at the host's available CPUs
    (:meth:`effective_workers`), fed workload-grouped contiguous chunks and
    reused across batches until :meth:`close` -- the combination that makes
    parallel sweeps actually faster than serial ones instead of paying
    process start-up and pickling costs per batch.  A child that dies
    mid-batch breaks the pool: the batch raises
    :class:`~concurrent.futures.process.BrokenProcessPool` at once and the
    next batch starts a fresh pool.  Every child watches its parent and
    exits when the parent dies, however it dies.  :meth:`close` may be
    called from any thread; ``close(final=True)`` also retires the runner,
    which then starts no children again.

    Parameters
    ----------
    jobs:
        Maximum number of worker processes.  ``1`` (the default) runs every
        job inline in the calling process -- no pool, no pickling.  Values
        above the available CPU count are clamped; when the clamp leaves a
        single worker the batch runs inline as well.
    cache:
        Optional on-disk result cache consulted before executing and updated
        after; ``None`` disables caching.
    children:
        The start method (``"spawn"``, ``"fork"``) of child processes that
        run *every* miss, one-job batches and ``jobs=1`` included, so this
        process never simulates.  ``None`` (the default) keeps misses
        inline unless a batch has several of them and several workers,
        whose pool then uses the platform's default start method.  The
        service passes ``"spawn"``: its worker threads make the process
        multithreaded, and a forked child could inherit a lock a sibling
        thread holds.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache: Optional[ResultCache] = None,
        children: Optional[str] = None,
    ) -> None:
        if jobs < 1:
            raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self.cache = cache
        self.children = children
        #: Number of simulations actually executed by this runner.
        self.executed_jobs = 0
        #: Number of simulations satisfied from the cache.
        self.cache_hits = 0
        #: Lazily created worker pool, reused across batches until close().
        self._pool: Optional[ProcessPoolExecutor] = None
        self._pool_workers = 0
        #: Held while a pool starts, takes a batch or closes, so a close
        #: from another thread kills every child the pool has started.
        self._pool_lock = threading.Lock()
        #: Set by ``close(final=True)``: no pool starts after it.
        self._retired = False

    # ------------------------------------------------------------------
    # Pool lifecycle
    # ------------------------------------------------------------------

    def effective_workers(self) -> int:
        """Worker processes a parallel batch would actually use.

        ``jobs`` is capped at the CPUs this process may run on: CPU-bound
        simulations gain nothing from oversubscription, and the fork/pickle
        overhead of surplus workers is precisely what made parallel sweeps
        *slower* than serial ones on small hosts.
        """
        return min(self.jobs, available_cpus())

    def _ensure_pool(self, workers: int) -> ProcessPoolExecutor:
        """The pool, started on first use; call with ``_pool_lock`` held."""
        if self._retired:
            raise RuntimeError("this runner was closed for good; it starts no children")
        if self._pool is not None and self._pool_workers != workers:
            _kill_pool(self._pool, wait=True)
            self._pool = None
        if self._pool is None:
            from concurrent.futures import ProcessPoolExecutor

            self._pool = ProcessPoolExecutor(
                max_workers=workers,
                mp_context=multiprocessing.get_context(self.children),
                initializer=_watch_parent,
            )
            self._pool_workers = workers
        return self._pool

    def close(self, wait: bool = True, *, final: bool = False) -> None:
        """SIGKILL the reusable pool's children and drop the pool (idempotent).

        Any thread may call it while another is blocked on the pool: that
        batch raises ``BrokenProcessPool`` at once, and the next batch
        starts a fresh pool -- unless ``final`` retired the runner, when a
        batch that needs children raises :class:`RuntimeError` instead.
        ``wait=False`` returns without joining the dead children.  This is
        how a timed-out or shut-down service job stops: its simulation dies
        with its child instead of running on unobserved, and it can start
        no other.
        """
        with self._pool_lock:
            self._retired = self._retired or final
            pool, self._pool = self._pool, None
            if pool is not None:
                _kill_pool(pool, wait)

    def __enter__(self) -> "ExperimentRunner":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def run_batch(
        self,
        sim_jobs: Sequence[SimJob],
        probed: Optional[Mapping[str, Optional[CoreResult]]] = None,
    ) -> Dict[str, CoreResult]:
        """Execute a batch of jobs and return ``{job key: result}``.

        Duplicate jobs (same content address) are executed once.  Cache hits
        never reach the pool; a warm cache therefore completes a batch with
        zero simulations.  ``probed`` holds lookups the caller already
        made in this runner's cache (key -> result, ``None`` for a miss);
        those keys are not looked up again.
        """
        unique: Dict[str, SimJob] = {}
        for job in sim_jobs:
            unique.setdefault(job.key(), job)
        results: Dict[str, CoreResult] = {}
        misses: Dict[str, SimJob] = {}
        for key, job in unique.items():
            if probed is not None and key in probed:
                cached = probed[key]
            else:
                cached = self.cache.get(key) if self.cache is not None else None
            if cached is not None:
                self.cache_hits += 1
                results[key] = cached
            else:
                misses[key] = job
        if misses:
            executed = self._execute(misses)
            self.executed_jobs += len(executed)
            for key, result in executed.items():
                if self.cache is not None:
                    self.cache.put(key, result, metadata=_job_metadata(misses[key]))
                results[key] = result
        return results

    def _execute(self, misses: Dict[str, SimJob]) -> Dict[str, CoreResult]:
        workers = self.effective_workers()
        if self.children is not None or (workers > 1 and len(misses) > 1):
            # Sort the batch by workload and hand each worker one contiguous
            # chunk: same-trace jobs land on the same worker, which then
            # generates each of its traces once, and the map costs a single
            # task message per worker instead of one per job.  The pool is
            # always sized at the full worker cap -- a small batch merely
            # leaves workers idle -- so a mixed-size batch sequence keeps
            # reusing one pool instead of re-forking it whenever the batch
            # size changes.
            dispatch_started = perf_counter()
            ordered = sorted(misses.values(), key=_dispatch_order)
            # The chaos harness's worker kill (fired at most once per job
            # key, so the supervised retry succeeds): the child that runs
            # the batch's first job SIGKILLs itself.
            injector = get_injector()
            doomed = ordered[0].key()
            if injector is None or not injector.should("kill_worker", key=doomed):
                doomed = None
            try:
                with self._pool_lock:
                    # The map submits every chunk (starting the children
                    # it needs) before it returns; only waiting is unlocked.
                    pool = self._ensure_pool(workers)
                    task = partial(_pool_worker, spans.recording(), doomed)
                    chunks = pool.map(task, ordered, chunksize=-(-len(ordered) // workers))
                pairs = list(chunks)
            except BaseException:
                # A dead child breaks the whole pool (and Ctrl-C leaves it
                # mid-batch); drop it so the next batch -- or a supervised
                # retry -- starts a fresh pool instead of the wreckage.
                self.close()
                raise
            phases.add("dispatch", perf_counter() - dispatch_started)
            results: Dict[str, CoreResult] = {}
            for key, payload, (phase_delta, task_spans) in pairs:
                phases.merge(phase_delta)
                spans.merge(task_spans)
                results[key] = CoreResult.from_dict(payload)
            return results
        return {key: run_job(job) for key, job in misses.items()}

    def run_suite(
        self,
        machine: MachineConfig,
        suite: WorkloadSuite,
        num_instructions: int,
        seed: Optional[int] = None,
    ) -> SuiteResult:
        """Run one machine over one suite (the :class:`Simulator` equivalent)."""
        sim_jobs = [SimJob(machine, member, num_instructions, seed) for member in suite]
        batch = self.run_batch(sim_jobs)
        results = {
            job.workload.name: _relabel(batch[job.key()], machine.name) for job in sim_jobs
        }
        return SuiteResult(machine_name=machine.name, suite_name=suite.name, results=results)

    def run_cases(
        self,
        cases: Iterable[SweepCase],
        suites: Mapping[str, WorkloadSuite],
        num_instructions: int,
        seed: Optional[int] = None,
    ) -> Dict[SweepCase, SuiteResult]:
        """Run sweep cases as one batch; returns ``{case: SuiteResult}``.

        Every distinct case expands into one job per member of the suite its
        label names, and the combined batch runs at once, so the process pool
        stays busy across every figure of an invocation.  Equal cases run
        once, and so does a job two cases share (the same machine under two
        display names).
        """
        expanded = {
            case: [
                SimJob(case.machine, member, num_instructions, seed)
                for member in suites[case.suite_label]
            ]
            for case in cases
        }
        batch = self.run_batch([job for jobs in expanded.values() for job in jobs])
        return {
            case: SuiteResult(
                machine_name=case.machine.name,
                suite_name=suites[case.suite_label].name,
                results={
                    job.workload.name: _relabel(batch[job.key()], case.machine.name)
                    for job in jobs
                },
            )
            for case, jobs in expanded.items()
        }
