"""The ``python -m repro`` command line interface.

Reproduce any paper figure/table from the shell, with parallelism and an
on-disk result cache::

    python -m repro fig7 --jobs 4 --cache-dir .repro-cache
    python -m repro all --full --jobs 8 --json results.json
    python -m repro cache list
    python -m repro profile fig7 --trace-out fig7-trace.json --jobs 4

A figure command plans every figure it names, runs all their simulations as
one batch, then prints each paper-layout table and a one-line runner summary
(simulations executed vs cache hits); ``--json`` additionally writes a
machine-readable artifact containing the full result series and the campaign
parameters.  A second invocation with the same parameters and cache
directory completes entirely from the cache, executing zero simulations.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro._version import __version__
from repro.common import phases
from repro.common.errors import ConfigurationError, ReproError
from repro.common.serialize import to_jsonable
from repro.exp.cache import ResultCache
from repro.obs import spans as obs_spans
from repro.obs.logs import LOG_LEVELS, configure_logging
from repro.exp.runner import ExperimentRunner
from repro.memory.replacement import TIMING_POLICY_NAMES
from repro.sim.configs import PAPER_CONFIGS
from repro.sim.experiments import (
    DEFAULT_SEED,
    EXPERIMENTS,
    ExperimentContext,
    campaign_context,
)

#: Default cache directory.
DEFAULT_CACHE_DIR = ".repro-cache"

#: Default service port/URL.  Restated here (rather than imported from
#: repro.service.server) so figure commands never import the HTTP stack; a
#: test asserts it matches repro.service.server.DEFAULT_PORT.
DEFAULT_SERVICE_PORT = 8077
DEFAULT_SERVICE_URL = f"http://127.0.0.1:{DEFAULT_SERVICE_PORT}"


def build_context(args: argparse.Namespace, runner: ExperimentRunner) -> ExperimentContext:
    """Build the experiment campaign the CLI flags describe."""
    if getattr(args, "quick", False) and args.full:
        raise ConfigurationError("--quick and --full are mutually exclusive")
    return campaign_context(
        full=args.full,
        instructions=args.instructions,
        seed=args.seed,
        runner=runner,
        policy=getattr(args, "policy", None),
    )


def build_runner(args: argparse.Namespace) -> ExperimentRunner:
    """Build the runner (parallelism + cache) the CLI flags describe."""
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    return ExperimentRunner(jobs=args.jobs, cache=cache)


def _campaign_parameters(args: argparse.Namespace, context: ExperimentContext) -> Dict[str, Any]:
    return {
        "suites": [context.fp_suite.name, context.int_suite.name],
        "instructions_per_workload": context.instructions_per_workload,
        "seed": context.seed,
        "jobs": args.jobs,
        "cache_dir": None if args.no_cache else str(args.cache_dir),
        "full": bool(args.full),
        "policy": getattr(args, "policy", None) or "lru",
    }


def _write_json(path: str, document: Any) -> None:
    """Write one of the CLI's JSON artifacts (indented, sorted keys)."""
    Path(path).write_text(json.dumps(document, indent=2, sort_keys=True))


def run_figures(figure_names: List[str], args: argparse.Namespace) -> int:
    """Run the named figures' plans as one batch of one runner.

    The figures' cases run together (equal jobs once), so the worker pool
    stays busy across all of them; it is torn down when the batch is done.
    """
    with build_runner(args) as runner:
        return _run_figures(figure_names, args, runner)


def _run_figures(
    figure_names: List[str], args: argparse.Namespace, runner: ExperimentRunner
) -> int:
    context = build_context(args, runner)
    parameters = _campaign_parameters(args, context)
    specs = [EXPERIMENTS[name] for name in figure_names]
    started = time.perf_counter()
    plans = {spec.name: spec.plan(context) for spec in specs}
    results = context.run_plans(plans)
    elapsed = time.perf_counter() - started
    if not args.quiet:
        for spec in specs:
            print(spec.render(results[spec.name]))
            print()
        print(
            f"[repro] {args.command}: {runner.executed_jobs} simulated, "
            f"{runner.cache_hits} from cache, {elapsed:.2f}s"
        )
    figures = {
        spec.name: {
            "description": spec.description,
            # Which workloads the numbers came from: the plan's own suites,
            # else the campaign's.
            "suites": list(plans[spec.name].suites) or parameters["suites"],
            "results": to_jsonable(results[spec.name]),
        }
        for spec in specs
    }
    artifact: Dict[str, Any] = {
        "command": " ".join(figure_names),
        "parameters": parameters,
        "figures": figures,
        "executed_jobs": runner.executed_jobs,
        "cache_hits": runner.cache_hits,
        "elapsed_seconds": elapsed,
        # Convenience top-level alias when a single figure was requested.
        "results": figures[figure_names[0]]["results"] if len(figure_names) == 1 else None,
    }
    if args.json:
        _write_json(args.json, artifact)
        if not args.quiet:
            print(f"[repro] wrote {args.json}")
    return 0


def run_cache_command(args: argparse.Namespace) -> int:
    """Implement ``repro cache list|info|clear`` (clear supports pruning)."""
    cache = ResultCache(args.cache_dir)
    pruning = args.older_than is not None or args.max_size is not None
    if (pruning or args.stale) and args.action != "clear":
        print(
            "[repro] --older-than/--max-size/--stale only apply to `cache clear`",
            file=sys.stderr,
        )
        return 2
    if args.action == "clear":
        if args.stale:
            if pruning:
                print(
                    "[repro] --stale cannot be combined with --older-than/--max-size",
                    file=sys.stderr,
                )
                return 2
            removed = cache.clear(stale_only=True)
            print(
                f"[repro] removed {removed} stale-format cache entries from {cache.root}"
            )
            return 0
        if pruning:
            report = cache.prune(
                older_than_seconds=(
                    None if args.older_than is None else args.older_than * 86_400.0
                ),
                max_size_bytes=(
                    None if args.max_size is None else int(args.max_size * 1024 * 1024)
                ),
            )
            print(
                f"[repro] pruned {report.removed} entries "
                f"({report.freed_bytes / 1024:.1f} KiB) from {cache.root}; "
                f"{report.remaining} remain ({report.remaining_bytes / 1024:.1f} KiB)"
            )
            return 0
        removed = cache.clear()
        print(f"[repro] removed {removed} cache entries from {cache.root}")
        return 0
    entries = list(cache.entries())
    if args.action == "info":
        total_bytes = sum(entry.size_bytes for entry in entries)
        print(f"cache directory : {cache.root}")
        print(f"entries         : {len(entries)}")
        print(f"total size      : {total_bytes / 1024:.1f} KiB")
        return 0
    if not entries:
        print(f"[repro] cache {cache.root} is empty")
        return 0
    print(f"{'key':<16} {'machine':<24} {'workload':<16} {'instrs':>8} {'seed':>6}")
    for entry in entries:
        seed = "-" if entry.seed is None else str(entry.seed)
        print(
            f"{entry.key[:16]:<16} {entry.machine:<24} {entry.workload:<16} "
            f"{entry.num_instructions:>8} {seed:>6}"
        )
    return 0


def run_list_command(_args: argparse.Namespace) -> int:
    """Implement ``repro list``: every figure and named machine configuration."""
    print("figures / tables:")
    for name, spec in EXPERIMENTS.items():
        print(f"  {name:<8} {spec.description}")
    print()
    print("machine configurations (Table 2 names):")
    for name in PAPER_CONFIGS:
        print(f"  {name}")
    print()
    from repro.workloads.suite import suite_names

    print("suites: " + ", ".join(suite_names()))
    return 0


def run_trace_command(args: argparse.Namespace) -> int:
    """Implement ``repro trace record|info|replay|submit``.

    ``record`` generates a workload's instruction stream once and writes the
    versioned binary container; ``replay`` simulates a recorded stream
    locally (with ``--verify`` asserting bit-identity against regeneration);
    ``submit`` replays it through a running service by shipping the recorded
    provenance (the determinism contract makes remote regeneration
    bit-identical to the recorded bytes).
    """
    from repro.sim.configs import machine_by_name
    from repro.sim.experiments import QUICK_INSTRUCTIONS
    from repro.sim.simulator import Simulator
    from repro.trace import load_trace_archive, read_trace_header, record_trace

    if args.action == "record":
        from repro.workloads.suite import workload_by_name

        params = workload_by_name(args.target)
        out = args.out if args.out else f"{params.name}.rtrace"
        instructions = args.instructions if args.instructions else QUICK_INSTRUCTIONS
        archive = record_trace(params, instructions, out, seed=args.seed)
        if not args.quiet:
            print(
                f"[repro] recorded {archive.header.num_instructions} instructions of "
                f"{params.name!r} (seed {args.seed}) to {out}"
            )
        return 0

    if args.action == "info":
        header = read_trace_header(args.target)
        print(f"trace file      : {args.target}")
        print(f"format version  : {header.format_version}")
        print(f"name            : {header.name}")
        print(f"instructions    : {header.num_instructions}")
        print(f"seed            : {'-' if header.seed is None else header.seed}")
        print(f"workload params : {'recorded' if header.params is not None else 'absent'}")
        print(f"regions         : {len(header.regions)}")
        for region in header.regions:
            print(
                f"  {region.name:<16} {region.size_bytes:>12} B  "
                f"weight {region.weight:<8g} {region.pattern}"
            )
        return 0

    if args.action == "replay":
        archive = load_trace_archive(args.target)
        machine = machine_by_name(args.machine)
        result = Simulator(machine).run_trace(archive.trace)
        verified: Optional[bool] = None
        if args.verify:
            if archive.header.params is None:
                print(
                    "[repro] --verify needs recorded workload parameters "
                    "(hand-built traces cannot be regenerated)",
                    file=sys.stderr,
                )
                return 2
            from repro.workloads.suite import generate_member_trace

            regenerated = generate_member_trace(
                archive.header.params,
                archive.header.num_instructions,
                seed=archive.header.seed,
            )
            reference = Simulator(machine).run_trace(regenerated)
            verified = result == reference
            if not verified:
                print("[repro] replay DIVERGED from regeneration", file=sys.stderr)
                return 1
        if not args.quiet:
            line = (
                f"[repro] {archive.header.name} on {machine.name}: "
                f"{result.cycles} cycles, IPC {result.ipc:.3f}"
            )
            if verified:
                line += " (replay == regeneration: verified)"
            print(line)
        if args.json:
            _write_json(args.json, result.to_dict())
        return 0

    # submit: replay through a running service via the recorded provenance.
    from repro.exp.runner import SimJob
    from repro.service.client import ServiceClient

    header = read_trace_header(args.target)
    if header.params is None:
        print(
            "[repro] this trace has no recorded workload parameters; "
            "only generator-recorded traces can be replayed remotely",
            file=sys.stderr,
        )
        return 2
    machine = machine_by_name(args.machine)
    job = SimJob(machine, header.params, header.num_instructions, header.seed)
    client = ServiceClient(args.server, timeout=min(args.timeout, 60.0))
    view = client.run(cases=[job], timeout=args.timeout)
    payload = view.get("result", {}).get(job.key())
    if payload is None:
        print("[repro] service response is missing the replayed result", file=sys.stderr)
        return 1
    if not args.quiet:
        ipc = payload["committed_instructions"] / payload["cycles"]
        print(
            f"[repro] {header.name} on {machine.name} via {args.server}: "
            f"{payload['cycles']} cycles, IPC {ipc:.3f} "
            f"({view['progress']['cache_hits']} from cache)"
        )
    if args.json:
        _write_json(args.json, payload)
    return 0


def run_version_command(_args: argparse.Namespace) -> int:
    """Implement ``repro version`` (the single-sourced package version)."""
    print(f"repro {__version__}")
    return 0


def run_profile_command(args: argparse.Namespace) -> int:
    """Implement ``repro profile``: run one figure with span recording armed.

    The campaign runs with the cache disabled so every simulation actually
    executes (a fully cached run would profile nothing).  Spans recorded in
    this process are merged with the ones each pool worker ships back with
    its results, and the combined timeline is written as Chrome trace-event
    JSON -- load it at https://ui.perfetto.dev or ``chrome://tracing``.
    """
    spec = EXPERIMENTS[args.figure]
    runner = ExperimentRunner(jobs=args.jobs, cache=None)
    context = build_context(args, runner)
    phases.reset()
    obs_spans.start_recording()
    started = time.perf_counter()
    try:
        with obs_spans.span(f"profile:{args.figure}", category="profile"):
            context.run(spec.plan(context))
    finally:
        obs_spans.stop_recording()
        runner.close()
    elapsed = time.perf_counter() - started
    spans = obs_spans.snapshot()
    document = obs_spans.to_chrome_trace(
        spans,
        metadata={
            "figure": args.figure,
            "jobs": args.jobs,
            "repro_version": __version__,
            "phase_totals": phases.snapshot(),
        },
    )
    _write_json(args.trace_out, document)
    processes = {entry["pid"] for entry in spans}
    if not args.quiet:
        dropped = obs_spans.dropped()
        suffix = f" ({dropped} dropped past the span cap)" if dropped else ""
        print(
            f"[repro] {args.figure}: {len(spans)} spans from "
            f"{len(processes)} process(es) in {elapsed:.2f}s, "
            f"{runner.executed_jobs} simulations{suffix}"
        )
        print(f"[repro] wrote {args.trace_out}")
    return 0


def run_serve_command(args: argparse.Namespace) -> int:
    """Implement ``repro serve``: run the simulation service until Ctrl-C.

    ``--shards N`` (N > 1) runs N full server processes over the shared
    result cache instead of one: each shard owns port ``base+1+index`` and
    the group shares the public ``--port`` via SO_REUSEPORT where the
    platform has it (see :mod:`repro.service.shards`).
    """
    from repro.faults import FaultSpec
    from repro.service.server import ServiceConfig
    from repro.service.shards import serve_sharded
    from repro.service.tenancy import TenancyConfig

    configure_logging(args.log_level, json_format=args.log_json)
    # Both operator files decode here, before any port is bound or shard
    # spawned, so a mistyped one is an error message and exit status 2.
    tenancy = TenancyConfig.from_file(args.tenants) if args.tenants else None
    faults = FaultSpec.from_file(args.faults) if args.faults else None
    config = ServiceConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        sim_jobs=args.sim_jobs,
        queue_limit=args.queue_limit,
        cache_dir=None if args.no_cache else args.cache_dir,
        tenancy=tenancy,
        shard_count=args.shards,
        job_timeout=args.job_timeout,
        job_retries=args.job_retries,
        journal=not args.no_journal,
        drain_timeout=args.drain_timeout,
        faults=faults,
    )
    return serve_sharded(config, log_level=args.log_level, log_json=args.log_json)


#: The server-under-test settings ``loadbench`` and ``chaos`` share; both
#: verbs declare them through :func:`_add_self_served_arguments`.
_SELF_SERVED_SETTINGS = (
    "shards", "serve_workers", "queue_limit", "instructions", "seed", "timeout", "faults",
)


def _self_served_settings(args: argparse.Namespace) -> Dict[str, Any]:
    return {name: getattr(args, name) for name in _SELF_SERVED_SETTINGS}


def _parse_tenant_mix(text: Optional[str]) -> tuple:
    """``alpha=2,beta=1`` -> ``(("alpha", 2.0), ("beta", 1.0))``."""
    pairs = []
    for item in text.split(",") if text else ():
        name, _, weight = item.partition("=")
        try:
            pairs.append((name.strip(), float(weight)))
        except ValueError:
            raise ConfigurationError(
                f"bad --tenant-mix entry {item!r} (want name=weight)"
            ) from None
    return tuple(pairs)


def run_loadbench_command(args: argparse.Namespace) -> int:
    """Implement ``repro loadbench``: ramp load against the service.

    Self-serves a (sharded) server unless ``--server`` points at one,
    drives the configured ramp, writes the JSON artifact, and -- with
    ``--gate`` -- fails when throughput, submit p99 or tenant shares miss
    the thresholds.
    """
    from repro.load.bench import (
        LoadBenchConfig,
        evaluate_loadbench_gate,
        run_loadbench,
    )

    try:
        config = LoadBenchConfig(
            server=args.server,
            clients=tuple(int(stage) for stage in args.clients.split(",")),
            mode=args.mode,
            rate=args.rate,
            epoch_seconds=args.epoch_seconds,
            epochs=args.epochs,
            warmup_epochs=args.warmup_epochs,
            tenant_mix=_parse_tenant_mix(args.tenant_mix),
            **_self_served_settings(args),
        )
    except (ValueError, ReproError) as error:
        print(f"[repro] bad loadbench configuration: {error}", file=sys.stderr)
        return 2
    log = (lambda message: None) if args.quiet else print
    artifact = run_loadbench(config, log=log)
    _write_json(args.out, artifact)
    print(f"[repro] wrote {args.out}")
    if args.gate:
        ok, lines = evaluate_loadbench_gate(
            artifact,
            min_throughput=args.min_throughput,
            max_p99_ms=args.max_p99,
            share_tolerance=args.share_tolerance,
        )
        for line in lines:
            print(f"[repro] {line}")
        if not ok:
            print("[repro] loadbench gate FAILED", file=sys.stderr)
            return 1
        print("[repro] loadbench gate passed")
    return 0


def run_chaos_command(args: argparse.Namespace) -> int:
    """Implement ``repro chaos``: load + fault injection + invariants.

    Self-serves a fault-injected (sharded) server, offers a batch of
    content-addressed submissions, then asserts the fault-tolerance
    contract: zero lost jobs, bit-identical results, every key resolvable
    (after a SIGTERM + restart unless ``--no-restart``), journal replay on
    restart, and a bounded error rate.  Exits non-zero when any check
    fails; the full evidence lands in the JSON artifact.
    """
    from repro.faults.chaos import ChaosConfig, run_chaos

    try:
        config = ChaosConfig(
            submissions=args.submissions,
            clients=args.clients,
            max_error_rate=args.max_error_rate,
            restart=not args.no_restart,
            **_self_served_settings(args),
        )
    except (ValueError, ReproError) as error:
        print(f"[repro] bad chaos configuration: {error}", file=sys.stderr)
        return 2
    log = (lambda message: None) if args.quiet else print
    ok, artifact = run_chaos(config, log=log)
    _write_json(args.out, artifact)
    print(f"[repro] wrote {args.out}")
    for name, check in artifact["checks"].items():
        print(f"[repro] chaos: {name}: {'ok' if check['ok'] else 'FAIL'} "
              f"({check['detail']})")
    if not ok:
        print("[repro] chaos checks FAILED", file=sys.stderr)
        return 1
    print("[repro] chaos checks passed")
    return 0


def run_stats_command(args: argparse.Namespace) -> int:
    """Implement ``repro stats``: print a server's per-tenant accounting."""
    from repro.service.client import ServiceClient

    client = ServiceClient(args.server, timeout=min(args.timeout, 60.0))
    stats = client.stats()
    if args.json:
        _write_json(args.json, stats)
    queue = stats["queue"]
    print(
        f"queue: {queue['depth']}/{queue['limit']} queued, "
        f"{queue['running']} running on {queue['workers']} workers; "
        f"uptime {stats['uptime_seconds']:.0f}s"
    )
    tenants = stats.get("tenants", {})
    if not tenants:
        print("no tenants have contacted this server yet")
        return 0
    print(
        f"{'tenant':<16} {'weight':>6} {'share':>6} {'queued':>6} {'run':>4} "
        f"{'admit':>6} {'reject':>6} {'done':>6} {'sims':>6} {'hits':>6} "
        f"{'wait p95':>9} {'svc p95':>9}"
    )
    for name in sorted(tenants):
        entry = tenants[name]
        jobs = entry["jobs"]
        rejected = jobs["rejected_quota"] + jobs["rejected_capacity"]
        print(
            f"{name:<16} {entry['weight']:>6g} {entry['work_share']:>6.2f} "
            f"{entry['queued']:>6} {entry['inflight']:>4} {jobs['admitted']:>6} "
            f"{rejected:>6} {jobs['completed']:>6} {entry['sims']['executed']:>6} "
            f"{entry['sims']['cache_hits']:>6} "
            f"{entry['queue_wait_seconds']['p95']:>8.2f}s "
            f"{entry['service_seconds']['p95']:>8.2f}s"
        )
    return 0


def run_submit_command(args: argparse.Namespace) -> int:
    """Implement ``repro submit``: send a figure to a server and await it."""
    from repro.service.client import ServiceClient

    client = ServiceClient(
        args.server,
        timeout=min(args.timeout, 60.0),
        tenant=args.tenant,
        token=args.auth_token,
    )
    receipt = client.submit(
        figure=args.figure,
        instructions=args.instructions,
        seed=args.seed,
        full=args.full,
        policy=getattr(args, "policy", None),
        priority=args.priority,
    )
    admitted = "coalesced with in-flight job" if receipt.coalesced else "queued"
    if not args.quiet:
        print(
            f"[repro] {args.figure}: {receipt.job_id} ({admitted}, "
            f"tenant {receipt.tenant}, {receipt.priority} lane), "
            f"request key {receipt.request_key[:16]}"
        )
    if args.no_wait:
        # Honour --json even without waiting: write the submission receipt
        # so scripts can poll the job themselves.
        if args.json:
            receipt_doc = {
                "job_id": receipt.job_id,
                "request_key": receipt.request_key,
                "status": receipt.status,
                "coalesced": receipt.coalesced,
            }
            _write_json(args.json, receipt_doc)
            if not args.quiet:
                print(f"[repro] wrote {args.json}")
        return 0
    view = client.wait(
        receipt.job_id, timeout=args.timeout, request_key=receipt.request_key
    )
    progress = view.get("progress", {})
    elapsed = view.get("elapsed_seconds") or 0.0
    if not args.quiet:
        print(
            f"[repro] {args.figure}: {view['status']}, "
            f"{progress.get('executed_jobs', 0)} simulated, "
            f"{progress.get('cache_hits', 0)} from cache, {elapsed:.2f}s"
        )
    if args.json:
        _write_json(args.json, view)
        if not args.quiet:
            print(f"[repro] wrote {args.json}")
    return 0


def _positive_int(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _add_campaign_arguments(parser: argparse.ArgumentParser) -> None:
    """The flags naming a campaign, whether it runs here or on a server."""
    parser.add_argument(
        "--full",
        action="store_true",
        help="run the full SPEC-like suites at the paper's trace length "
        "(default: the quick two-workload campaign)",
    )
    parser.add_argument(
        "--instructions",
        type=_positive_int,
        default=None,
        help="trace length per workload (default: 8000 quick / 30000 full)",
    )
    parser.add_argument(
        "--seed", type=int, default=DEFAULT_SEED, help=f"campaign seed (default: {DEFAULT_SEED})"
    )
    parser.add_argument(
        "--policy",
        choices=TIMING_POLICY_NAMES,
        default=None,
        help="cache replacement policy for both levels of every machine "
        "(default: lru, the paper's baseline; 'opt' exists only in the "
        "offline policy-sweep profiler)",
    )


def _add_cache_arguments(parser: argparse.ArgumentParser, with_disable: bool = True) -> None:
    """``--cache-dir`` (and ``--no-cache``) for every verb that opens the cache."""
    parser.add_argument(
        "--cache-dir",
        default=DEFAULT_CACHE_DIR,
        help=f"result cache directory (default: {DEFAULT_CACHE_DIR})",
    )
    if with_disable:
        parser.add_argument(
            "--no-cache", action="store_true", help="disable the on-disk result cache"
        )


def _add_local_campaign_arguments(
    parser: argparse.ArgumentParser, default_jobs: int = 1, with_cache: bool = True
) -> None:
    """The campaign flags plus how this process runs it: pool, cache, --quick."""
    parser.add_argument(
        "--jobs",
        type=_positive_int,
        default=default_jobs,
        help=f"worker processes for the sweep (default: {default_jobs})",
    )
    if with_cache:
        _add_cache_arguments(parser)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="run the quick two-workload campaign (the default; spelled out "
        "for scripts, mutually exclusive with --full)",
    )
    _add_campaign_arguments(parser)


def _add_server_arguments(
    parser: argparse.ArgumentParser, timeout: float, scope: str = ""
) -> None:
    """``--server``/``--timeout`` for the verbs that talk to a running server."""
    parser.add_argument(
        "--server",
        default=DEFAULT_SERVICE_URL,
        help=f"{scope}server base URL (default: {DEFAULT_SERVICE_URL})",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=timeout,
        help=f"{scope}seconds to wait (default: {timeout:g})",
    )


def _add_self_served_arguments(
    parser: argparse.ArgumentParser,
    *,
    queue_limit: int,
    timeout: float,
    out: str,
    faults: str,
) -> None:
    """The server-under-test flags of ``loadbench`` and ``chaos`` (see
    :data:`_SELF_SERVED_SETTINGS`), with the per-verb defaults passed in."""
    parser.add_argument(
        "--shards",
        type=int,
        default=2,
        help="shards for the self-served instance (default: 2)",
    )
    parser.add_argument(
        "--serve-workers",
        type=int,
        default=2,
        help="worker tasks per self-served shard (default: 2)",
    )
    parser.add_argument(
        "--queue-limit",
        type=int,
        default=queue_limit,
        help=f"queue limit per self-served shard (default: {queue_limit})",
    )
    parser.add_argument(
        "--instructions",
        type=int,
        default=1500,
        help="trace length per submitted simulation (default: 1500)",
    )
    parser.add_argument(
        "--seed", type=int, default=42, help="workload seed (default: 42)"
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=timeout,
        help=f"per-request budget in seconds (default: {timeout:g})",
    )
    parser.add_argument(
        "--faults",
        default=None,
        metavar="FILE.json",
        help=f"fault spec the self-served instance runs with (default: {faults})",
    )
    parser.add_argument("--out", default=out, help=f"artifact path (default: {out})")
    parser.add_argument("--quiet", action="store_true", help="suppress progress output")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce the paper's figures and tables, in parallel, with caching.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    figure_verbs = {name: (spec.description, [name]) for name, spec in EXPERIMENTS.items()}
    figure_verbs["all"] = ("run every figure and table as one batch", list(EXPERIMENTS))
    for name, (description, figures) in figure_verbs.items():
        sub = subparsers.add_parser(name, help=description)
        _add_local_campaign_arguments(sub)
        sub.add_argument("--json", default=None, help="write a JSON artifact to this path")
        sub.add_argument("--quiet", action="store_true", help="suppress the rendered tables")
        sub.set_defaults(handler=lambda args, figures=figures: run_figures(figures, args))

    sub = subparsers.add_parser("list", help="list figures, machines and suites")
    sub.set_defaults(handler=run_list_command)

    sub = subparsers.add_parser("cache", help="inspect, clear or prune the result cache")
    sub.add_argument("action", choices=("list", "info", "clear"))
    _add_cache_arguments(sub, with_disable=False)
    sub.add_argument(
        "--older-than",
        type=float,
        default=None,
        metavar="DAYS",
        help="with clear: only remove entries older than this many days",
    )
    sub.add_argument(
        "--max-size",
        type=float,
        default=None,
        metavar="MB",
        help="with clear: evict oldest entries until the cache fits in MB megabytes",
    )
    sub.add_argument(
        "--stale",
        action="store_true",
        help="with clear: only remove entries recorded under an older trace format",
    )
    sub.set_defaults(handler=run_cache_command)

    sub = subparsers.add_parser(
        "trace", help="record, inspect and replay binary instruction traces"
    )
    sub.add_argument("action", choices=("record", "info", "replay", "submit"))
    sub.add_argument(
        "target",
        help="workload name for `record` (e.g. mcf_like, list_walk); "
        "a recorded trace file for the other actions",
    )
    sub.add_argument(
        "--out", default=None, help="record: output path (default: <workload>.rtrace)"
    )
    sub.add_argument(
        "--instructions",
        type=_positive_int,
        default=None,
        help="record: trace length (default: the quick-campaign length)",
    )
    sub.add_argument(
        "--seed", type=int, default=DEFAULT_SEED, help=f"record: seed (default: {DEFAULT_SEED})"
    )
    sub.add_argument(
        "--machine",
        default="FMC-Hash",
        help="replay/submit: named machine configuration (default: FMC-Hash)",
    )
    sub.add_argument(
        "--verify",
        action="store_true",
        help="replay: also regenerate from the recorded parameters and assert "
        "the results are bit-identical",
    )
    _add_server_arguments(sub, timeout=600.0, scope="submit: ")
    sub.add_argument("--json", default=None, help="replay/submit: write the result JSON here")
    sub.add_argument("--quiet", action="store_true", help="suppress progress output")
    sub.set_defaults(handler=run_trace_command)

    sub = subparsers.add_parser("version", help="print the package version")
    sub.set_defaults(handler=run_version_command)

    sub = subparsers.add_parser(
        "serve", help="run the simulation service (async job server over HTTP)"
    )
    sub.add_argument("--host", default="127.0.0.1", help="bind address (default: 127.0.0.1)")
    sub.add_argument(
        "--port",
        type=int,
        default=DEFAULT_SERVICE_PORT,
        help=f"TCP port (default: {DEFAULT_SERVICE_PORT})",
    )
    sub.add_argument(
        "--workers",
        type=_positive_int,
        default=1,
        help="concurrent job executions (default: 1)",
    )
    sub.add_argument(
        "--sim-jobs",
        type=_positive_int,
        default=1,
        help="simulation child processes each service worker keeps (default: 1)",
    )
    sub.add_argument(
        "--queue-limit",
        type=_positive_int,
        default=8,
        help="pending jobs admitted before answering 429 (default: 8)",
    )
    _add_cache_arguments(sub)
    sub.add_argument(
        "--tenants",
        default=None,
        metavar="FILE.json",
        help="tenant roster (weights, quotas, auth tokens); without it the "
        "server runs open: any tenant name, default limits",
    )
    sub.add_argument(
        "--log-level",
        choices=LOG_LEVELS,
        default="info",
        help="service log verbosity (default: info)",
    )
    sub.add_argument(
        "--log-json",
        action="store_true",
        help="emit one JSON object per log line (with trace IDs) instead of text",
    )
    sub.add_argument(
        "--shards",
        type=_positive_int,
        default=1,
        help="server processes to run over the shared cache (default: 1); "
        "shard i serves port+1+i, the public port is shared via SO_REUSEPORT "
        "where available",
    )
    sub.add_argument(
        "--job-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock budget per job execution attempt (default: none)",
    )
    sub.add_argument(
        "--job-retries",
        type=int,
        default=2,
        help="supervised retries for retryable job failures, e.g. worker "
        "crashes (default: 2)",
    )
    sub.add_argument(
        "--drain-timeout",
        type=float,
        default=10.0,
        metavar="SECONDS",
        help="how long SIGTERM waits for in-flight jobs before exiting "
        "(default: 10)",
    )
    sub.add_argument(
        "--no-journal",
        action="store_true",
        help="disable the durable job journal (journalling needs --cache-dir "
        "and is on by default)",
    )
    sub.add_argument(
        "--faults",
        default=None,
        metavar="FILE.json",
        help="chaos testing: activate fault injection from this spec file "
        "(see docs/USAGE.md)",
    )
    sub.set_defaults(handler=run_serve_command)

    sub = subparsers.add_parser(
        "loadbench",
        help="ramp synthetic load against the service and write a JSON artifact",
    )
    sub.add_argument(
        "--server",
        default=None,
        help="existing server base URL; omitted = self-serve a fresh instance",
    )
    _add_self_served_arguments(
        sub, queue_limit=64, timeout=30.0, out="LOADBENCH.json", faults="none"
    )
    sub.add_argument(
        "--clients",
        default="2,4",
        help="comma-separated ramp stages, clients per stage (default: 2,4)",
    )
    sub.add_argument(
        "--mode",
        choices=("open", "closed"),
        default="open",
        help="arrival discipline (default: open; see docs/USAGE.md)",
    )
    sub.add_argument(
        "--rate",
        type=float,
        default=4.0,
        help="open-loop arrivals per second per client (default: 4)",
    )
    sub.add_argument(
        "--epoch-seconds",
        type=float,
        default=2.0,
        help="measurement epoch length (default: 2)",
    )
    sub.add_argument(
        "--epochs", type=int, default=4, help="epochs per stage (default: 4)"
    )
    sub.add_argument(
        "--warmup-epochs",
        type=int,
        default=1,
        help="leading epochs excluded from the aggregate (default: 1)",
    )
    sub.add_argument(
        "--tenant-mix",
        default=None,
        metavar="NAME=W,NAME=W",
        help="weighted-fairness mode: offer equal traffic per named tenant "
        "while the (self-served) roster carries these weights, then check "
        "the served shares track the weights",
    )
    sub.add_argument(
        "--gate",
        action="store_true",
        help="fail the run when the thresholds below are missed",
    )
    sub.add_argument(
        "--min-throughput",
        type=float,
        default=0.0,
        help="gate: required peak measured throughput in req/s (0 = off)",
    )
    sub.add_argument(
        "--max-p99",
        type=float,
        default=0.0,
        help="gate: allowed submit p99 latency in ms, every stage (0 = off)",
    )
    sub.add_argument(
        "--share-tolerance",
        type=float,
        default=0.0,
        help="gate: allowed |observed - expected| tenant share (0 = off)",
    )
    sub.set_defaults(handler=run_loadbench_command)

    sub = subparsers.add_parser(
        "chaos",
        help="run the fault-injection harness against a self-served instance "
        "and assert the fault-tolerance contract",
    )
    _add_self_served_arguments(
        sub,
        queue_limit=32,
        timeout=60.0,
        out="CHAOS.json",
        faults="the built-in kill/drop/corrupt/500 mix",
    )
    sub.add_argument(
        "--submissions",
        type=int,
        default=24,
        help="jobs offered, all distinct content addresses (default: 24)",
    )
    sub.add_argument(
        "--clients",
        type=int,
        default=4,
        help="concurrent submitter threads (default: 4)",
    )
    sub.add_argument(
        "--max-error-rate",
        type=float,
        default=0.34,
        help="allowed errors/submissions ratio (default: 0.34)",
    )
    sub.add_argument(
        "--no-restart",
        action="store_true",
        help="skip the SIGTERM + restart round-trip (and its journal-replay "
        "check)",
    )
    sub.set_defaults(handler=run_chaos_command)

    sub = subparsers.add_parser(
        "profile",
        help="run one figure with span profiling and write a Chrome trace JSON",
    )
    sub.add_argument("figure", choices=sorted(EXPERIMENTS), help="figure/table to profile")
    sub.add_argument(
        "--trace-out",
        required=True,
        metavar="FILE.json",
        help="write the Chrome trace-event document here (Perfetto-loadable)",
    )
    _add_local_campaign_arguments(sub, default_jobs=2, with_cache=False)
    sub.add_argument("--quiet", action="store_true", help="suppress the summary lines")
    sub.set_defaults(handler=run_profile_command)

    sub = subparsers.add_parser(
        "submit", help="submit a figure to a running server and wait for the result"
    )
    sub.add_argument("figure", choices=sorted(EXPERIMENTS), help="figure/table to reproduce")
    _add_server_arguments(sub, timeout=600.0)
    _add_campaign_arguments(sub)
    sub.add_argument(
        "--tenant",
        default=None,
        help="tenant identity the submission charges (default: the server's "
        "default tenant)",
    )
    sub.add_argument(
        "--auth-token",
        default=None,
        metavar="TOKEN",
        help="bearer token for tenants the server requires auth for",
    )
    sub.add_argument(
        "--priority",
        choices=("interactive", "batch"),
        default=None,
        help="scheduling lane (default: batch for --full campaigns, else "
        "interactive)",
    )
    sub.add_argument(
        "--no-wait", action="store_true", help="submit and print the job id without waiting"
    )
    sub.add_argument("--json", default=None, help="write the completed status document here")
    sub.add_argument("--quiet", action="store_true", help="suppress progress output")
    sub.set_defaults(handler=run_submit_command)

    sub = subparsers.add_parser(
        "stats", help="print a running server's per-tenant usage and latency stats"
    )
    _add_server_arguments(sub, timeout=10.0)
    sub.add_argument("--json", default=None, help="also write the raw stats document here")
    sub.set_defaults(handler=run_stats_command)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point (also exposed as the ``repro`` console script)."""
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ReproError as error:
        print(f"repro: error: {error}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Output was piped into a consumer that exited early (e.g. `head`).
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
