"""How the load is offered: the request loop and the multi-process fleet.

Two arrival disciplines, selected by ``mode``:

* **open loop** -- arrival ``k`` is *scheduled* at ``start + k/rate``,
  independent of when earlier requests complete.  A saturated server shows
  up as rising latency (and, for a single client thread, as late arrivals
  once service time exceeds the inter-arrival gap), not as a silently
  reduced offered load.  This is the honest discipline for throughput
  curves: closed-loop generators self-throttle under congestion and hide
  the very overload they were meant to measure.
* **closed loop** -- the next request issues the moment the previous one
  returns (think time zero): offered load adapts to service capacity,
  which is the right discipline for "how fast can N clients go".

The fleet is one OS **process per client** (spawn start method), each with
its own :class:`~repro.service.client.ServiceClient`; clients round-robin
over the configured server URLs, which is the port-per-shard fallback on
platforms without ``SO_REUSEPORT``.  Workers report their samples once, at
the end, over a multiprocessing queue -- no cross-process chatter on the
measurement path.

The loop core (:func:`run_request_loop`) takes the issue function and the
clock as parameters, so its arrival shape is unit-testable with a fake
clock and no server.
"""

from __future__ import annotations

import multiprocessing
import queue as queue_module
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Set, Tuple

from repro.common.errors import ConfigurationError, LoadDriverError, ServiceError
from repro.load.epoch import Sample
from repro.load.workload import Req, Workload

#: ``issue`` callback contract: takes the request, returns success.
IssueFn = Callable[[Req], bool]

#: Grace period (beyond the configured duration) a worker gets to report
#: its samples before the parent gives up on it.
REPORT_GRACE_SECONDS = 60.0


@dataclass(frozen=True)
class DriverConfig:
    """One load stage: the fleet, the discipline and the workload."""

    #: Server base URLs; client ``i`` talks to ``urls[i % len(urls)]``.
    urls: Tuple[str, ...]
    #: ``open`` or ``closed`` (see the module docstring).
    mode: str = "open"
    #: Fleet size (one process per client).
    clients: int = 2
    #: Seconds each client offers load (epochs * epoch length upstream).
    duration_seconds: float = 4.0
    #: Open-loop arrivals per second, per client.
    rate: float = 4.0
    workload: Workload = field(default_factory=Workload)
    #: Per-request client timeout (also bounds the submit wait).
    timeout: float = 30.0

    def __post_init__(self) -> None:
        if not self.urls:
            raise ConfigurationError("the driver needs at least one server URL")
        if self.mode not in ("open", "closed"):
            raise ConfigurationError(f"unknown driver mode {self.mode!r}")
        if self.clients <= 0:
            raise ConfigurationError("the fleet needs at least one client")
        if self.duration_seconds <= 0:
            raise ConfigurationError("duration must be > 0 seconds")
        if self.mode == "open" and self.rate <= 0:
            raise ConfigurationError("open-loop mode needs a rate > 0")


def run_request_loop(
    mode: str,
    duration_seconds: float,
    next_request: Callable[[int], Req],
    issue: IssueFn,
    rate: Optional[float] = None,
    *,
    clock: Callable[[], float] = time.monotonic,
    sleep: Callable[[float], None] = time.sleep,
) -> List[Sample]:
    """Issue requests until the deadline; returns the observed samples.

    Open loop sleeps until each arrival's *scheduled* time (never issuing
    early) and keeps issuing overdue arrivals back-to-back when the client
    has fallen behind -- the offered schedule is fixed, lateness is the
    server's problem to show in the latencies.  Closed loop issues
    back-to-back until the deadline.  Sample ``start`` times are relative
    to this loop's own start, which is what the epoch accounting buckets
    on.
    """
    samples: List[Sample] = []
    start = clock()
    deadline = start + duration_seconds
    index = 0
    while True:
        now = clock()
        if mode == "open":
            assert rate is not None  # DriverConfig validated this
            scheduled = start + index / rate
            if scheduled >= deadline:
                break
            if scheduled > now:
                sleep(scheduled - now)
        elif now >= deadline:
            break
        request = next_request(index)
        issued = clock()
        ok = issue(request)
        finished = clock()
        samples.append(
            Sample(
                kind=request.kind,
                tenant=request.tenant,
                start=issued - start,
                latency=finished - issued,
                ok=ok,
            )
        )
        index += 1
    return samples


def _issue_with_client(client, request: Req, timeout: float) -> bool:
    """Issue one request through the SDK; failures become ``ok=False``.

    Admission rejections (429) and transport failures are legitimate
    measurements under saturation, so they are recorded rather than
    raised -- the epoch accounting reports them as errors.
    """
    from repro.exp.runner import SimJob
    from repro.sim.configs import fmc_hash
    from repro.workloads.suite import quick_fp_suite

    try:
        if request.kind == "submit":
            job = SimJob(
                fmc_hash(),
                quick_fp_suite().members[request.index % len(quick_fp_suite().members)],
                request.instructions,
                request.seed,
            )
            client.run(cases=[job], timeout=timeout, tenant=request.tenant)
        elif request.kind == "health":
            client.healthz()
        else:
            client.stats()
        return True
    except ServiceError:
        return False


def _client_main(client_index: int, config: DriverConfig, queue) -> None:
    """One fleet client (runs in its own spawned process)."""
    from repro.service.client import ServiceClient

    url = config.urls[client_index % len(config.urls)]
    client = ServiceClient(url, timeout=config.timeout)
    engine = config.workload.engine(client_index)
    samples = run_request_loop(
        config.mode,
        config.duration_seconds,
        engine.request,
        lambda request: _issue_with_client(client, request, config.timeout),
        rate=config.rate,
    )
    queue.put((client_index, samples))


def collect_fleet_samples(
    report_queue,
    processes: Sequence,
    expected_reports: int,
    deadline: float,
    *,
    clock: Callable[[], float] = time.monotonic,
) -> List[Sample]:
    """Drain the fleet's report queue until every client has reported.

    Only a queue-``get`` *timeout* (:class:`queue.Empty`) means "keep
    waiting"; any other error is a real failure and propagates.  On each
    idle tick the fleet's health is checked: a client process that exited
    non-zero without delivering its report raises
    :class:`~repro.common.errors.LoadDriverError` -- the stage's numbers
    would otherwise silently undercount the offered load until the
    deadline.  No fault site kills a load client (an injected fault reaches
    a client as an error response, which it records as a sample), so every
    death is a harness bug.  The queue and processes are duck-typed
    (``get``/``empty`` and ``is_alive``/``exitcode``/``name``) so the wait
    logic is unit-testable without real processes.
    """
    samples: List[Sample] = []
    reported: Set[int] = set()
    while len(reported) < expected_reports and clock() < deadline:
        try:
            client_index, client_samples = report_queue.get(timeout=1.0)
        except queue_module.Empty:
            if report_queue.empty():
                dead = [
                    getattr(process, "name", f"client-{index}")
                    for index, process in enumerate(processes)
                    if index not in reported and process.exitcode not in (None, 0)
                ]
                if dead:
                    raise LoadDriverError(
                        "load client process(es) died without reporting: " + ", ".join(dead)
                    )
                if not any(process.is_alive() for process in processes):
                    break
            continue
        reported.add(client_index)
        samples.extend(client_samples)
    return samples


def run_load(config: DriverConfig) -> List[Sample]:
    """Run one load stage with a multi-process fleet; returns all samples.

    A worker that *crashes* (non-zero exit) fails the stage with
    :class:`~repro.common.errors.LoadDriverError`; a worker that merely
    wedges past the duration-plus-grace deadline is terminated and its
    samples lost (the stage still completes with the rest -- a hung client
    must not wedge the bench).
    """
    context = multiprocessing.get_context("spawn")
    report_queue = context.Queue()
    processes = [
        context.Process(
            target=_client_main,
            args=(index, config, report_queue),
            name=f"repro-load-client-{index}",
        )
        for index in range(config.clients)
    ]
    for process in processes:
        process.start()
    deadline = time.monotonic() + config.duration_seconds + REPORT_GRACE_SECONDS
    try:
        samples = collect_fleet_samples(
            report_queue,
            processes,
            config.clients,
            deadline,
        )
    finally:
        for process in processes:
            process.join(timeout=5.0)
        for process in processes:
            if process.is_alive():
                process.terminate()
                process.join(timeout=5.0)
    samples.sort(key=lambda sample: sample.start)
    return samples
