"""The service-latency workload: ``serve-mixed``.

``repro serve`` runs in its own process (one shard, one worker, journal on,
fresh cache directory) and is driven closed-loop by :data:`CLIENTS` client
threads of this process: each waits for its result before sending the next
request.  Requests alternate between the two cache paths:

* **hot** -- one of four FMC-Hash jobs simulated during set-up, so the
  service answers from the result cache (the read path);
* **fresh** -- an FMC-Hash job with a never-used seed, so the service
  simulates, writes the cache and appends to the journal (the write path).

Traced runs time ``ServiceClient.submit(wait=False)`` and ``.wait()``
separately on every other pair of requests and read the server's metrics
document before and after the window.
"""

from __future__ import annotations

import json
import os
import random
import socket
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from statistics import median
from time import perf_counter, sleep, time
from typing import Any, Dict, List, Optional, Tuple

import harness
from repro.common.errors import ServiceError
from repro.exp.runner import SimJob
from repro.service.client import ServiceClient
from repro.sim.configs import fmc_hash
from repro.sim.simulator import Simulator
from repro.workloads.suite import quick_fp_suite, quick_int_suite, spec_fp_suite, spec_int_suite

INSTRUCTIONS = 1_500
CLIENTS = 2
#: Server starts timed for ``setup_s``; the last one serves the run.
SETUP_STARTS = 5
READY_TIMEOUT = 60.0
#: Fresh jobs per client checked against a local simulation.
FRESH_SAMPLE = 3


class Server:
    """One ``python -m repro serve`` child process on a free local port."""

    def __init__(self, cache_dir: Path) -> None:
        self.cache_dir = cache_dir
        self.process: Optional[subprocess.Popen] = None
        self.url = ""

    def start(self) -> float:
        """Spawn the server; return the seconds until it answers healthz."""
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        self.url = f"http://127.0.0.1:{port}"
        source = str(harness.ROOT / "src")
        inherited = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=source + (os.pathsep + inherited if inherited else ""))
        command = [
            sys.executable, "-m", "repro", "serve",
            "--host", "127.0.0.1", "--port", str(port),
            "--workers", "1", "--cache-dir", str(self.cache_dir),
            "--log-level", "warning",
        ]
        started = perf_counter()
        self.process = subprocess.Popen(command, env=env, stdout=subprocess.DEVNULL)
        client = ServiceClient(self.url, timeout=5.0)
        while True:
            if self.process.poll() is not None:
                raise RuntimeError(f"repro serve exited early (code {self.process.returncode})")
            try:
                client.healthz()
                return perf_counter() - started
            except ServiceError:
                if perf_counter() - started > READY_TIMEOUT:
                    raise
                sleep(0.01)

    def stop(self) -> None:
        if self.process is None:
            return
        self.process.terminate()
        try:
            self.process.wait(timeout=20.0)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait(timeout=20.0)
        self.process = None


@dataclass
class Request:
    """One closed-loop request and what the client saw of it."""

    client: int
    index: int
    hot: bool
    traced: bool
    job: SimJob
    latency: float = 0.0
    submit: float = 0.0
    wait: float = 0.0
    view: Optional[Dict[str, Any]] = None
    received_at: float = 0.0
    error: Optional[str] = None

    def result(self) -> Dict[str, Any]:
        return next(iter(self.view["result"].values()))

    def server_times(self) -> Optional[Tuple[float, float, float]]:
        """(queue wait, execution, completion-to-client slack) in seconds."""
        view = self.view or {}
        stamps = [view.get(key) for key in ("submitted_at", "started_at", "finished_at")]
        if None in stamps:  # a view synthesized after history trimming
            return None
        submitted, started, finished = stamps
        return started - submitted, finished - started, self.received_at - finished


class Client:
    """One closed-loop client: its request stream is fixed by the seed."""

    def __init__(self, index: int, seed: int, hot_jobs: List[SimJob]) -> None:
        self.index = index
        self.seed = seed
        # Each client cycles through the hot set and the twelve members in
        # its own seeded order, so every run serves the same balanced mix.
        rng = random.Random(f"{seed}:{index}")
        self.hot_jobs = rng.sample(hot_jobs, len(hot_jobs))
        members = list(spec_fp_suite()) + list(spec_int_suite())
        self.members = rng.sample(members, len(members))
        self.sent = 0

    def next_request(self, trace: bool) -> Request:
        number = self.sent
        self.sent += 1
        hot = (number + self.index) % 2 == 0
        # The rank of this request among its kind (hot or fresh).
        rank = number // 2
        if hot:
            job = self.hot_jobs[rank % len(self.hot_jobs)]
        else:
            member = self.members[rank % len(self.members)]
            # A seed no hot job and no other request of this run uses.
            fresh_seed = (self.seed + 1) * 1_000_000 + self.index * 100_000 + number
            job = SimJob(fmc_hash(), member, INSTRUCTIONS, fresh_seed)
        # Traced and untraced requests alternate by whole cycles through
        # the members, so both see the same mix of jobs.
        traced = trace and (rank // len(self.members)) % 2 == 1
        return Request(self.index, number, hot, traced, job)

    def loop(self, url: str, deadline: float, trace: bool, out: List[Request]) -> None:
        service = ServiceClient(url, timeout=60.0)
        while perf_counter() < deadline:
            request = self.next_request(trace)
            started = perf_counter()
            try:
                if request.traced:
                    receipt = service.submit(cases=[request.job])
                    request.submit = perf_counter() - started
                    request.view = service.wait(receipt.job_id, request_key=receipt.request_key)
                    request.wait = perf_counter() - started - request.submit
                else:
                    request.view = service.run(cases=[request.job])
            except ServiceError as error:
                request.error = f"{type(error).__name__}: {error}"
            request.received_at = time()
            request.latency = perf_counter() - started
            out.append(request)


def _drive(url: str, seed: int, hot_jobs: List[SimJob], seconds: float, trace: bool):
    """Run the closed loop; return (requests, window seconds).

    Times here are not scaled by the speed probe: the probe would run in
    this process while the work runs in the server's, possibly on the
    other CPU, and on this host that made the spread worse, not better.
    """
    clients = [Client(index, seed, hot_jobs) for index in range(CLIENTS)]
    outputs: List[List[Request]] = [[] for _ in clients]
    errors: List[BaseException] = []

    def target(client: Client, out: List[Request]) -> None:
        try:
            client.loop(url, deadline, trace, out)
        except BaseException as error:  # re-raised by the main thread after join
            errors.append(error)

    started = perf_counter()
    deadline = started + seconds
    threads = [
        threading.Thread(target=target, args=(client, out)) for client, out in zip(clients, outputs)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    window = perf_counter() - started
    if errors:
        raise errors[0]
    return [request for out in outputs for request in out], window


def _samples(document: Dict[str, Any]) -> Dict[Tuple[str, Tuple], Dict[str, Any]]:
    """Index a metrics document's samples by (family, sorted labels)."""
    return {
        (family["name"], tuple(sorted(sample["labels"].items()))): sample
        for family in document["metrics"]
        for sample in family["samples"]
    }


def _counter_delta(before, after, name: str, **labels: str) -> float:
    """Sum of a counter's increase over every sample matching ``labels``."""
    total = 0.0
    for (family, key), sample in after.items():
        if family == name and all(pair in key for pair in labels.items()):
            previous = before.get((family, key), {}).get("value", 0.0)
            total += sample["value"] - previous
    return total


def _summary_mean_delta(before, after, name: str, **labels: str) -> float:
    """Mean of the observations a summary gained between two documents."""
    key = (name, tuple(sorted(labels.items())))
    old = before.get(key, {"count": 0, "mean": 0.0})
    new = after.get(key, {"count": 0, "mean": 0.0})
    count = new["count"] - old["count"]
    if count <= 0:
        return 0.0
    return (new["count"] * new["mean"] - old["count"] * old["mean"]) / count


def _service_layers(before, after, completed: int) -> Dict[str, float]:
    """Server-side layers over the window, from two metrics documents."""
    hits = _counter_delta(before, after, "repro_cache_requests_total", result="hit")
    lookups = _counter_delta(before, after, "repro_cache_requests_total")
    return {
        "service.http.post_jobs_ms": 1e3 * _summary_mean_delta(
            before, after, "repro_http_request_seconds", endpoint="/v1/jobs"),
        "service.http.get_job_ms": 1e3 * _summary_mean_delta(
            before, after, "repro_http_request_seconds", endpoint="/v1/jobs/{id}"),
        "service.polls_per_job": _counter_delta(
            before, after, "repro_http_requests_total", endpoint="/v1/jobs/{id}") / completed,
        "service.jobs.queue_wait_ms": 1e3 * _summary_mean_delta(
            before, after, "repro_tenant_queue_wait_seconds", tenant="default"),
        "service.jobs.exec_ms": 1e3 * _summary_mean_delta(
            before, after, "repro_tenant_service_seconds", tenant="default"),
        "exp.cache.hit_ratio": hits / lookups if lookups else 0.0,
        "exp.cache.read_bytes": _counter_delta(
            before, after, "repro_cache_io_bytes_total", direction="read") / completed,
        "exp.cache.written_bytes": _counter_delta(
            before, after, "repro_cache_io_bytes_total", direction="written") / completed,
    }


def _client_layers(done: List[Request]) -> Tuple[Dict[str, float], Dict[str, Any]]:
    """Client-side split of traced requests, plus the closure of both sums.

    ``submit + wait`` should equal the latency, and so should
    ``submit + queue wait + execution + slack``, where slack is the time
    from the server finishing a job to the client holding its result.
    """
    traced = [request for request in done if request.traced and request.server_times()]
    plain_fresh = [request.latency for request in done if not request.traced and not request.hot]
    traced_fresh = [request.latency for request in traced if not request.hot]
    latency = harness.mean([request.latency for request in traced])
    submit = harness.mean([request.submit for request in traced])
    wait = harness.mean([request.wait for request in traced])
    queue, execute, slack = (
        harness.mean([request.server_times()[part] for request in traced]) for part in range(3)
    )
    split_error = abs(submit + wait - latency) / latency * 100.0
    stage_error = abs(submit + queue + execute + slack - latency) / latency * 100.0
    error = max(split_error, stage_error)
    layers = {
        "client.submit_ms": submit * 1e3,
        "client.wait_ms": wait * 1e3,
        "client.slack_ms": slack * 1e3,
        "closure_error_pct": error,
        "trace_overhead_pct": (median(traced_fresh) / median(plain_fresh) - 1.0) * 100.0,
    }
    closure = {
        "error_pct": error,
        "tolerance_pct": harness.CLOSURE_TOLERANCE_PCT,
        "ok": error <= harness.CLOSURE_TOLERANCE_PCT,
        "traced_requests": len(traced),
        "mean_parts_ms": {
            "latency": latency * 1e3,
            "submit": submit * 1e3,
            "wait": wait * 1e3,
            "queue_wait": queue * 1e3,
            "exec": execute * 1e3,
            "slack": slack * 1e3,
        },
    }
    return layers, closure


def _verify(done: List[Request], hot_jobs: List[SimJob]) -> Tuple[int, List[Dict[str, Any]]]:
    """Check served results against local simulations, after the window.

    Every hot response is checked, plus the first :data:`FRESH_SAMPLE`
    fresh responses of each client; a hot request that simulated or a
    fresh one answered from the cache also counts as a mismatch.
    """
    sampled: Dict[int, List[Request]] = {}
    for request in done:
        if not request.hot and len(sampled.setdefault(request.client, [])) < FRESH_SAMPLE:
            sampled[request.client].append(request)
    checked = [request for request in done if request.hot]
    checked += [request for requests in sampled.values() for request in requests]

    local: Dict[SimJob, Dict[str, Any]] = {}
    for job in hot_jobs + [request.job for request in checked if not request.hot]:
        result = Simulator(job.machine).run_workload(job.workload, job.num_instructions, job.seed)
        local[job] = json.loads(json.dumps(result.to_dict()))
    mismatches = 0
    for request in checked:
        expected_executions = 0 if request.hot else 1
        if (
            request.view["progress"]["executed_jobs"] != expected_executions
            or json.dumps(request.result(), sort_keys=True)
            != json.dumps(local[request.job], sort_keys=True)
        ):
            mismatches += 1
    return mismatches, list(local.values())


def run(workload: str, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    random.seed(seed)  # the client's poll jitter
    hot_jobs = [
        SimJob(fmc_hash(), member, INSTRUCTIONS, seed)
        for member in list(quick_fp_suite()) + list(quick_int_suite())
    ]
    with harness.work_dir() as scratch:
        server: Optional[Server] = None
        try:
            startups = []
            for attempt in range(SETUP_STARTS):
                if server is not None:
                    server.stop()
                server = Server(scratch / f"cache-{attempt}")
                startups.append(server.start())
            client = ServiceClient(server.url, timeout=60.0)
            for job in hot_jobs:
                client.run(cases=[job])
            before = client.metrics() if trace else None
            requests, window = _drive(server.url, seed, hot_jobs, seconds, trace)
            after = client.metrics() if trace else None
            server_rss = harness.process_peak_rss_mb(server.process.pid)
        finally:
            if server is not None:
                server.stop()

    done = [request for request in requests if request.error is None]
    for request in requests:
        if request.error is not None:
            print(f"perfbench: request failed: {request.error}", file=sys.stderr)
    fresh = [request for request in done if not request.hot]
    hot = [request for request in done if request.hot]
    latencies = [request.latency * 1e3 for request in done]
    miss_ms = [request.latency * 1e3 for request in fresh]
    hit_ms = [request.latency * 1e3 for request in hot]
    end_to_end = {
        "setup_s": median(startups),
        "peak_rss_mb": server_rss,
        "sim_kips": len(fresh) * INSTRUCTIONS / window / 1e3,
        "sims_per_s": len(fresh) / window,
        "jobs_per_s": len(done) / window,
        "job_p50_ms": harness.percentile(latencies, 0.5),
        "job_p90_ms": harness.percentile(latencies, 0.9),
        "miss_p50_ms": harness.percentile(miss_ms, 0.5),
        "miss_p90_ms": harness.percentile(miss_ms, 0.9),
    }
    per_layer: Dict[str, float] = {
        "hit_p50_ms": harness.percentile(hit_ms, 0.5),
        "hit_p90_ms": harness.percentile(hit_ms, 0.9),
    }
    closure: Dict[str, Any] = {}
    if trace:
        per_layer.update(_service_layers(_samples(before), _samples(after), len(done)))
        client_layers, closure = _client_layers(done)
        per_layer.update(client_layers)

    mismatches, verified = _verify(done, hot_jobs)
    return harness.build_report(
        attempted=len(requests),
        failed=len(requests) - len(done),
        mismatches=mismatches,
        end_to_end=end_to_end,
        per_layer=per_layer,
        counters=harness.work_counters(verified),
        closure=closure,
        details={
            "workload": workload,
            "seed": seed,
            "clients": CLIENTS,
            "window_s": window,
            "requests": len(requests),
            "hits": len(hot),
            "misses": len(fresh),
            "setup_starts_s": startups,
            "verified_results": len(verified),
        },
    )
