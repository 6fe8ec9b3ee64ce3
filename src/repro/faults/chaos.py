"""The ``repro chaos`` harness: offered load, injected faults, invariants.

A chaos run self-serves a (sharded) server with fault injection active,
offers a fixed batch of content-addressed submissions from a thread fleet,
then asserts the fault-tolerance contract end to end:

* **zero lost jobs** -- every *accepted* submission reaches a terminal
  state within its budget (an injected worker crash is retried by the
  supervisor, never silently dropped);
* **bit-identical results** -- every completed payload equals a local
  single-process baseline of the same job (faults may slow the service
  down, never change its answers);
* **keys resolvable** -- after the run (and, by default, after a full
  SIGTERM + restart of the server) every completed key still resolves via
  ``GET /v1/results/{key}``; a key whose cache entry was quarantined by an
  injected corruption is *healed* by one idempotent resubmission;
* **journal replay** -- the restarted shards report
  ``repro_journal_replays_total >= 1``: the durable journal survived the
  restart and was folded back in;
* **bounded error rate** -- injected submission failures (HTTP 500s) stay
  under ``max_error_rate`` of the offered load.

Each submission is pinned to one shard port for both the POST and the
status polls, so a poll never depends on cross-shard proxying -- an
injected ``drop_peer`` fault must surface as a degraded *merge* (partial
stats), not as a false "lost job".  Determinism comes from the fault
spec's seed (see :mod:`repro.faults.injection`): a failing chaos run
reproduces by re-running with the same spec and seed.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.common.errors import (
    ConfigurationError,
    JobNotFoundError,
    ServiceError,
    ServiceOverloadedError,
)
from repro.common.serialize import to_jsonable
from repro.faults.injection import FaultSpec

#: Schema of the chaos artifact (additive changes bump it).
CHAOS_SCHEMA_VERSION = 1

#: The built-in fault spec (used when no ``--faults`` file is given):
#: worker kills on roughly a third of the jobs, a tenth of peer calls
#: dropped or delayed, a capped handful of submission 500s and cache
#: corruptions.  Caps keep the error budget bounded per *shard* (each
#: shard process runs its own injector over the same spec).
DEFAULT_FAULT_SPEC: Dict[str, Any] = {
    "seed": 42,
    "kill_worker": {"rate": 0.35, "max": 10},
    "drop_peer": {"rate": 0.10, "max": 20},
    "delay_peer": {"rate": 0.10, "seconds": 0.05, "max": 20},
    "http_500": {"rate": 0.10, "max": 2},
    "corrupt_cache": {"rate": 0.20, "max": 6},
}

#: How many times one submission retries an injected 500 before giving up.
SUBMIT_ATTEMPTS = 4


@dataclass(frozen=True)
class ChaosConfig:
    """Everything one ``repro chaos`` invocation needs."""

    shards: int = 2
    serve_workers: int = 2
    queue_limit: int = 32
    #: Jobs offered (all distinct content addresses).
    submissions: int = 24
    #: Concurrent submitter threads.
    clients: int = 4
    #: Trace length per submitted simulation.
    instructions: int = 1500
    seed: int = 42
    #: Per-submission budget: admission retries plus the completion wait.
    timeout: float = 60.0
    #: Fault-spec file; ``None`` uses :data:`DEFAULT_FAULT_SPEC`.
    faults: Optional[str] = None
    #: Allowed (errors / submissions) ratio.
    max_error_rate: float = 0.34
    #: SIGTERM + restart the server and re-verify every key afterwards.
    restart: bool = True

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ConfigurationError("--shards must be >= 1")
        if self.submissions <= 0:
            raise ConfigurationError("the run needs at least one submission")
        if self.clients <= 0:
            raise ConfigurationError("the fleet needs at least one client")
        if not (0.0 <= self.max_error_rate <= 1.0):
            raise ConfigurationError("--max-error-rate must be in [0, 1]")


def _jobs_for(config: ChaosConfig) -> List[Any]:
    """The offered batch: distinct seeds give distinct content addresses."""
    from repro.exp.runner import SimJob
    from repro.sim.configs import fmc_hash
    from repro.workloads.suite import quick_fp_suite

    members = quick_fp_suite().members
    return [
        SimJob(
            fmc_hash(),
            members[index % len(members)],
            config.instructions,
            config.seed + index,
        )
        for index in range(config.submissions)
    ]


def _offer(job: Any, url: str, config: ChaosConfig) -> Dict[str, Any]:
    """Submit one job to its pinned shard and wait for the outcome.

    A 429 is flow control (resubmitted inside the budget, honouring the
    server's hint); any other submission failure is an *error sample* and
    retried a bounded number of times.  Once accepted, a wait failure is
    classified by a final status probe: a terminal job is a failure, a
    still-queued or vanished one is **lost** -- the contract violation.
    """
    from repro.service.client import ServiceClient

    client = ServiceClient(url, timeout=min(config.timeout, 30.0))
    deadline = time.monotonic() + config.timeout
    outcome: Dict[str, Any] = {
        "key": job.key(),
        "url": url,
        "errors": 0,
        "accepted": False,
        "completed": False,
        "failed": False,
        "lost": False,
        "payload": None,
    }
    receipt = None
    attempt = 0
    while receipt is None:
        try:
            receipt = client.submit(cases=[job])
        except ServiceOverloadedError as error:
            hint = error.retry_after if error.retry_after else None
            delay = float(hint) if hint else random.uniform(0.1, 0.5)
            if time.monotonic() + delay >= deadline:
                outcome["errors"] += 1
                return outcome
            time.sleep(delay)
        except ServiceError:
            outcome["errors"] += 1
            attempt += 1
            if attempt >= SUBMIT_ATTEMPTS or time.monotonic() >= deadline:
                return outcome
            time.sleep(random.uniform(0.05, 0.25))
    outcome["accepted"] = True
    try:
        view = client.wait(
            receipt.job_id,
            timeout=max(1.0, deadline - time.monotonic()),
            request_key=receipt.request_key,
        )
    except ServiceError:
        outcome["errors"] += 1
        try:
            probe = client.status(receipt.job_id)
            terminal = probe["status"] in ("completed", "failed")
            outcome["failed"] = probe["status"] == "failed"
        except (JobNotFoundError, ServiceError):
            # Trimmed from history: done iff the result made it to the cache.
            try:
                terminal = client.result(job.key()) is not None
            except ServiceError:
                terminal = False
        outcome["lost"] = not terminal
        return outcome
    outcome["completed"] = True
    outcome["payload"] = view.get("result", {}).get(job.key())
    return outcome


def _resolve(job: Any, url: str, config: ChaosConfig) -> Tuple[bool, bool]:
    """Check one completed key resolves; heal a quarantined entry.

    Returns ``(resolvable, healed)``.  An unresolvable key (its cache entry
    was corrupted by injection and quarantined on read) gets one idempotent
    resubmission -- the at-most-once-per-key injector contract guarantees
    the rewrite lands clean -- and counts as healed when that succeeds.
    """
    from repro.service.client import ServiceClient

    client = ServiceClient(url, timeout=min(config.timeout, 30.0))
    try:
        if client.result(job.key()) is not None:
            return True, False
    except ServiceError:
        pass
    for _ in range(2):
        try:
            view = client.run(cases=[job], timeout=config.timeout)
        except ServiceError:
            continue
        if view.get("result", {}).get(job.key()) is not None:
            return True, True
    return False, False


def _baseline(job: Any) -> Any:
    """The job's local single-process ground truth, JSON-normalised."""
    from repro.exp.runner import run_job

    return json.loads(json.dumps(to_jsonable(run_job(job).to_dict())))


def _metric_total(document: Dict[str, Any], name: str) -> float:
    """Sum every sample of one metric family in a metrics JSON document."""
    for family in document.get("metrics", []):
        if family.get("name") == name:
            return sum(
                float(sample.get("value", 0.0))
                for sample in family.get("samples", [])
            )
    return 0.0


def _shard_metrics(urls: List[str], names: Tuple[str, ...]) -> Dict[str, float]:
    """Sum the named metrics over every shard's *local* document."""
    from repro.service.client import ServiceClient

    totals = {name: 0.0 for name in names}
    for url in urls:
        try:
            document = ServiceClient(url, timeout=10.0).metrics(scope="local")
        except ServiceError:
            continue
        for name in names:
            totals[name] += _metric_total(document, name)
    return totals


_METRIC_NAMES = (
    "repro_faults_injected_total",
    "repro_job_retries_total",
    "repro_journal_replays_total",
    "repro_peer_suspect",
)


def _restart_server(server: Any) -> None:
    """SIGTERM the server under test and bring it back on the same ports.

    The scratch directory (cache + journals) survives -- that persistence
    is exactly what the post-restart checks exercise.
    """
    process = server.process
    server.process = None
    process.terminate()
    try:
        process.wait(timeout=30.0)
    except subprocess.TimeoutExpired:  # pragma: no cover - drain wedged
        process.kill()
        process.wait(timeout=10.0)
    server.start()


def run_chaos(config: ChaosConfig, log=print) -> Tuple[bool, Dict[str, Any]]:
    """Run the whole chaos scenario; returns ``(ok, artifact)``."""
    from repro.load.bench import LoadBenchConfig, SelfServedServer

    if config.faults is not None:
        spec = FaultSpec.from_file(config.faults)
        spec_path = Path(config.faults)
        spec_dir: Optional[Path] = None
    else:
        spec = FaultSpec.from_dict(DEFAULT_FAULT_SPEC)
        spec_dir = Path(tempfile.mkdtemp(prefix="repro-chaos-"))
        spec_path = spec_dir / "faults.json"
        spec_path.write_text(json.dumps(spec.to_dict(), sort_keys=True))
    server = SelfServedServer(
        LoadBenchConfig(
            shards=config.shards,
            serve_workers=config.serve_workers,
            queue_limit=config.queue_limit,
            timeout=config.timeout,
            seed=config.seed,
            faults=str(spec_path),
        )
    )
    log(
        f"[repro] chaos: starting fault-injected server: shards={config.shards}, "
        f"workers={config.serve_workers}, port={server.base_port}"
    )
    try:
        server.start()
        artifact = _run_scenario(config, spec, server, log)
    finally:
        server.stop()
        if spec_dir is not None:
            shutil.rmtree(spec_dir, ignore_errors=True)
    ok = all(check["ok"] for check in artifact["checks"].values())
    artifact["ok"] = ok
    return ok, artifact


def _run_scenario(
    config: ChaosConfig, spec: FaultSpec, server: Any, log
) -> Dict[str, Any]:
    from repro.load.bench import _git_revision
    from repro.service.client import ServiceClient

    jobs = _jobs_for(config)
    # Pin each job to one shard port for its whole lifetime (see module doc).
    urls = server.shard_urls
    targets = [urls[index % len(urls)] for index in range(len(jobs))]
    log(
        f"[repro] chaos: offering {len(jobs)} submissions from "
        f"{config.clients} clients over {len(urls)} shard(s)"
    )
    with ThreadPoolExecutor(max_workers=config.clients) as pool:
        outcomes = list(pool.map(_offer, jobs, targets, [config] * len(jobs)))
    # A few merged-stats reads: these fan out to peers, so drop/delay_peer
    # faults land on the suspect-peer accounting rather than the job path.
    for _ in range(4):
        try:
            ServiceClient(urls[0], timeout=10.0).stats()
        except ServiceError:
            pass
    accepted = [o for o in outcomes if o["accepted"]]
    completed = [o for o in outcomes if o["completed"]]
    lost = [o for o in outcomes if o["lost"]]
    failed = [o for o in outcomes if o["failed"]]
    errors = sum(o["errors"] for o in outcomes)
    error_rate = errors / len(jobs)
    log(
        f"[repro] chaos: {len(accepted)}/{len(jobs)} accepted, "
        f"{len(completed)} completed, {len(failed)} failed, "
        f"{len(lost)} lost, {errors} error samples"
    )

    by_key = {job.key(): job for job in jobs}
    mismatched: List[str] = []
    for outcome in completed:
        if outcome["payload"] != _baseline(by_key[outcome["key"]]):
            mismatched.append(outcome["key"])

    metrics_before = _shard_metrics(urls, _METRIC_NAMES)
    if config.restart:
        log("[repro] chaos: SIGTERM + restart of the server under test")
        _restart_server(server)
    metrics_after = _shard_metrics(urls, _METRIC_NAMES) if config.restart else {}

    unresolved: List[str] = []
    healed = 0
    for outcome in completed:
        resolvable, was_healed = _resolve(
            by_key[outcome["key"]], outcome["url"], config
        )
        if not resolvable:
            unresolved.append(outcome["key"])
        elif was_healed:
            healed += 1
    log(
        f"[repro] chaos: {len(completed) - len(unresolved)}/{len(completed)} "
        f"keys resolvable"
        + (" after restart" if config.restart else "")
        + (f" ({healed} healed by resubmission)" if healed else "")
    )

    try:
        stats_after = ServiceClient(urls[0], timeout=10.0).stats()
    except ServiceError:
        stats_after = None

    checks: Dict[str, Dict[str, Any]] = {
        "zero_lost_jobs": {
            "ok": not lost,
            "detail": f"{len(lost)} of {len(accepted)} accepted jobs lost",
        },
        "bit_identical": {
            "ok": not mismatched,
            "detail": (
                f"{len(mismatched)} of {len(completed)} completed payloads "
                "diverge from the local baseline"
            ),
        },
        "keys_resolvable": {
            "ok": not unresolved,
            "detail": (
                f"{len(unresolved)} of {len(completed)} completed keys "
                f"unresolvable ({healed} healed)"
            ),
        },
        "bounded_error_rate": {
            "ok": error_rate <= config.max_error_rate,
            "detail": (
                f"error rate {error_rate:.3f} vs <= "
                f"{config.max_error_rate:.3f} allowed"
            ),
        },
    }
    if config.restart:
        replays = metrics_after.get("repro_journal_replays_total", 0.0)
        checks["journal_replay"] = {
            "ok": replays >= 1.0,
            "detail": f"{replays:.0f} shard journal replays after restart",
        }

    return {
        "artifact": "repro-chaos",
        "schema_version": CHAOS_SCHEMA_VERSION,
        "created_unix": time.time(),
        "python": sys.version.split()[0],
        "git_revision": _git_revision(),
        "config": asdict(config),
        "fault_spec": spec.to_dict(),
        "results": {
            "submissions": len(jobs),
            "accepted": len(accepted),
            "completed": len(completed),
            "failed": len(failed),
            "lost": len(lost),
            "errors": errors,
            "error_rate": error_rate,
            "healed": healed,
        },
        "server_metrics": {
            "before_restart": metrics_before,
            "after_restart": metrics_after,
        },
        "checks": checks,
        "stats_after": stats_after,
    }
