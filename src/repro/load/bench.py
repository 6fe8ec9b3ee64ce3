"""The ``repro loadbench`` orchestration: ramp, artifact, gate.

A loadbench run is a **ramp**: one load stage per configured fleet size,
each measured with epoch accounting (warmup discarded).  The server under
test is either an external URL (``--server``) or -- the default -- a
**self-served** ``python -m repro serve`` subprocess brought up on a free
port block, optionally sharded (``--shards N``), with a scratch cache and
torn down afterwards.

**Tenant-mix mode** is the weighted-fairness check: traffic is offered in
*equal* proportion per tenant while the server's roster (written for the
self-served instance) carries the *configured weights*, so under
saturation the completed-work shares observed by the harness should track
the weights, not the offered mix -- exactly the stride scheduler's
contract.  ``--share-tolerance`` bounds the allowed deviation.

The run writes a JSON artifact (``--out``, ``LOADBENCH.json`` by default)
recording the git revision, full configuration, per-epoch series per
stage and the server's merged post-run stats; ``--gate`` re-reads the
fresh artifact and fails the run when throughput, submit p99 or tenant
shares miss the thresholds (the CI ``loadbench-smoke`` job's contract).
"""

from __future__ import annotations

import json
import shutil
import socket
import subprocess
import sys
import tempfile
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.common.errors import ConfigurationError, ServiceError
from repro.load.driver import DriverConfig, run_load
from repro.load.epoch import EpochSeries
from repro.load.workload import DEFAULT_MIX, Workload

#: Schema of the loadbench artifact (additive changes bump it).
LOADBENCH_SCHEMA_VERSION = 1

#: How long the self-served instance gets to answer its first healthz.
READINESS_TIMEOUT = 60.0


@dataclass(frozen=True)
class LoadBenchConfig:
    """Everything one ``repro loadbench`` invocation needs."""

    #: External server base URL; ``None`` self-serves a fresh instance.
    server: Optional[str] = None
    #: Shards for the self-served instance (1 = a single process).
    shards: int = 2
    #: Worker tasks per (self-served) shard.
    serve_workers: int = 2
    #: Queue limit per (self-served) shard.
    queue_limit: int = 64
    #: The ramp: one stage per fleet size, in order.
    clients: Tuple[int, ...] = (2, 4)
    mode: str = "open"
    #: Open-loop arrivals per second per client.
    rate: float = 4.0
    epoch_seconds: float = 2.0
    epochs: int = 4
    warmup_epochs: int = 1
    #: Trace length per submitted simulation.
    instructions: int = 1500
    #: Tenant-mix mode: ``(name, weight)`` pairs; empty disables it.
    tenant_mix: Tuple[Tuple[str, float], ...] = ()
    timeout: float = 30.0
    seed: int = 42
    #: Fault-spec file for the self-served instance (``repro chaos``): the
    #: server comes up with injection active.
    faults: Optional[str] = None

    def __post_init__(self) -> None:
        if self.faults is not None and self.server is not None:
            raise ConfigurationError(
                "--faults applies to the self-served instance; an external "
                "--server must be fault-injected at its own launch"
            )
        if not self.clients:
            raise ConfigurationError("the ramp needs at least one stage")
        if any(count <= 0 for count in self.clients):
            raise ConfigurationError("every ramp stage needs at least one client")
        if self.shards < 1:
            raise ConfigurationError("--shards must be >= 1")
        if len(self.tenant_mix) == 1:
            raise ConfigurationError(
                "tenant-mix mode needs at least two tenants to compare shares"
            )

    def stage_duration(self) -> float:
        return self.epochs * self.epoch_seconds

    def workload(self) -> Workload:
        # Equal *offered* share per tenant: the server's weighted-fair
        # scheduler, not the offered mix, must produce the weighted shares.
        tenants = tuple((name, 1.0) for name, _ in self.tenant_mix)
        return Workload(
            name="loadbench",
            mix=DEFAULT_MIX,
            tenants=tenants,
            instructions=self.instructions,
            seed=self.seed,
        )

    def expected_shares(self) -> Dict[str, float]:
        """The weight-proportional shares the scheduler should serve."""
        total = sum(weight for _, weight in self.tenant_mix)
        return {name: weight / total for name, weight in self.tenant_mix}


class SelfServedServer:
    """A ``python -m repro serve`` subprocess on a free port block."""

    def __init__(self, config: LoadBenchConfig) -> None:
        self.config = config
        self.scratch = Path(tempfile.mkdtemp(prefix="repro-loadbench-"))
        self.base_port = _free_port_block(config.shards + 1)
        self.process: Optional[subprocess.Popen] = None

    @property
    def shard_urls(self) -> List[str]:
        from repro.service.shards import shard_ports

        if self.config.shards <= 1:
            return [f"http://127.0.0.1:{self.base_port}"]
        return [
            f"http://127.0.0.1:{port}"
            for port in shard_ports(self.base_port, self.config.shards)
        ]

    @property
    def public_url(self) -> str:
        return f"http://127.0.0.1:{self.base_port}"

    def driver_urls(self) -> List[str]:
        """What the fleet dials: the public port where the kernel can
        load-balance it (SO_REUSEPORT), else round-robin the shard ports."""
        from repro.service.server import REUSE_PORT_AVAILABLE

        if self.config.shards > 1 and not REUSE_PORT_AVAILABLE:
            return self.shard_urls
        return [self.public_url]

    def start(self) -> None:
        command = [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--host",
            "127.0.0.1",
            "--port",
            str(self.base_port),
            "--workers",
            str(self.config.serve_workers),
            "--queue-limit",
            str(self.config.queue_limit),
            "--cache-dir",
            str(self.scratch / "cache"),
            "--log-level",
            "warning",
        ]
        if self.config.shards > 1:
            command += ["--shards", str(self.config.shards)]
        if self.config.faults:
            command += ["--faults", str(self.config.faults)]
        if self.config.tenant_mix:
            roster = self.scratch / "tenants.json"
            roster.write_text(
                json.dumps(
                    {
                        "tenants": {
                            name: {"weight": weight}
                            for name, weight in self.config.tenant_mix
                        }
                    }
                )
            )
            command += ["--tenants", str(roster)]
        self.process = subprocess.Popen(command)
        self._await_ready()

    def _await_ready(self) -> None:
        from repro.service.client import ServiceClient

        deadline = time.monotonic() + READINESS_TIMEOUT
        pending = list(self.shard_urls)
        while pending and time.monotonic() < deadline:
            if self.process is not None and self.process.poll() is not None:
                raise ServiceError(
                    f"self-served instance exited early "
                    f"(code {self.process.returncode})"
                )
            url = pending[0]
            try:
                ServiceClient(url, timeout=5.0).healthz()
                pending.pop(0)
            except ServiceError:
                time.sleep(0.2)
        if pending:
            raise ServiceError(f"server not ready after {READINESS_TIMEOUT:.0f}s: {pending}")

    def stop(self) -> None:
        if self.process is not None:
            self.process.terminate()
            try:
                self.process.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=10.0)
            self.process = None
        shutil.rmtree(self.scratch, ignore_errors=True)


def run_loadbench(config: LoadBenchConfig, log=print) -> Dict[str, Any]:
    """Run the ramp and return the artifact document."""
    server: Optional[SelfServedServer] = None
    if config.server is not None:
        urls = [config.server.rstrip("/")]
        stats_url = urls[0]
        server_block: Dict[str, Any] = {"self_served": False, "url": stats_url}
    else:
        server = SelfServedServer(config)
        log(
            f"[repro] starting server under test: shards={config.shards}, "
            f"workers={config.serve_workers}, port={server.base_port}"
        )
        server.start()
        urls = server.driver_urls()
        stats_url = server.shard_urls[0]
        server_block = {
            "self_served": True,
            "shards": config.shards,
            "public_port": server.base_port,
            "driver_urls": urls,
        }
    try:
        stages = [
            _run_stage(config, urls, clients, log) for clients in config.clients
        ]
        stats_after = _fetch_stats(stats_url)
    finally:
        if server is not None:
            server.stop()
    return {
        "artifact": "repro-loadbench",
        "schema_version": LOADBENCH_SCHEMA_VERSION,
        "created_unix": time.time(),
        "python": sys.version.split()[0],
        "git_revision": _git_revision(),
        "config": asdict(config),
        "server": server_block,
        "stages": stages,
        "stats_after": stats_after,
    }


def _run_stage(
    config: LoadBenchConfig, urls: List[str], clients: int, log
) -> Dict[str, Any]:
    log(
        f"[repro] stage: {clients} {config.mode}-loop clients for "
        f"{config.stage_duration():.0f}s ({config.epochs} x "
        f"{config.epoch_seconds:.0f}s epochs, {config.warmup_epochs} warmup)"
    )
    driver = DriverConfig(
        urls=tuple(urls),
        mode=config.mode,
        clients=clients,
        duration_seconds=config.stage_duration(),
        rate=config.rate,
        workload=config.workload(),
        timeout=config.timeout,
    )
    series = EpochSeries(config.epoch_seconds, config.epochs, config.warmup_epochs)
    series.extend(run_load(driver))
    stage: Dict[str, Any] = {"clients": clients, "series": series.document()}
    measured = stage["series"]["measured"]
    if config.tenant_mix:
        stage["tenant_shares"] = _share_check(config, measured)
    submit = measured["endpoints"].get("submit", {})
    log(
        f"[repro]   measured: {measured['throughput_rps']:.2f} req/s total, "
        f"submit p50 {submit.get('p50_ms', 0.0):.0f}ms "
        f"p99 {submit.get('p99_ms', 0.0):.0f}ms, "
        f"{measured['errors']} errors"
    )
    return stage


def _share_check(config: LoadBenchConfig, measured: Dict[str, Any]) -> Dict[str, Any]:
    expected = config.expected_shares()
    observed = {
        name: entry["share"] for name, entry in measured.get("tenants", {}).items()
    }
    errors = {
        name: abs(observed.get(name, 0.0) - share) for name, share in expected.items()
    }
    return {
        "expected": expected,
        "observed": observed,
        "max_abs_error": max(errors.values()) if errors else 0.0,
    }


def _fetch_stats(url: str) -> Optional[Dict[str, Any]]:
    """The server's (merged, when sharded) stats after the ramp."""
    from repro.service.client import ServiceClient

    try:
        return ServiceClient(url, timeout=10.0).stats()
    except ServiceError:
        return None


def evaluate_loadbench_gate(
    artifact: Dict[str, Any],
    *,
    min_throughput: float = 0.0,
    max_p99_ms: float = 0.0,
    share_tolerance: float = 0.0,
) -> Tuple[bool, List[str]]:
    """Check an artifact against the gate thresholds; returns (ok, lines).

    A threshold of 0 disables its check.  Throughput is judged on the best
    stage (the ramp's point of peak load); submit p99 and tenant shares
    must hold on *every* stage.
    """
    ok = True
    lines: List[str] = []
    stages = artifact.get("stages", [])
    if not stages:
        return False, ["gate: artifact has no stages"]
    if min_throughput > 0.0:
        best = max(
            float(stage["series"]["measured"]["throughput_rps"]) for stage in stages
        )
        passed = best >= min_throughput
        ok = ok and passed
        lines.append(
            f"gate: peak throughput {best:.2f} req/s vs >= {min_throughput:.2f} "
            f"required: {'ok' if passed else 'FAIL'}"
        )
    if max_p99_ms > 0.0:
        for stage in stages:
            submit = stage["series"]["measured"]["endpoints"].get("submit")
            if submit is None or submit["requests"] == 0:
                ok = False
                lines.append(
                    f"gate: stage with {stage['clients']} clients measured no "
                    "submit requests: FAIL"
                )
                continue
            p99 = float(submit["p99_ms"])
            passed = p99 <= max_p99_ms
            ok = ok and passed
            lines.append(
                f"gate: {stage['clients']} clients: submit p99 {p99:.0f}ms vs "
                f"<= {max_p99_ms:.0f}ms required: {'ok' if passed else 'FAIL'}"
            )
    if share_tolerance > 0.0:
        for stage in stages:
            shares = stage.get("tenant_shares")
            if shares is None:
                ok = False
                lines.append(
                    "gate: share tolerance set but the run had no tenant mix: FAIL"
                )
                break
            error = float(shares["max_abs_error"])
            passed = error <= share_tolerance
            ok = ok and passed
            lines.append(
                f"gate: {stage['clients']} clients: tenant share error "
                f"{error:.3f} vs <= {share_tolerance:.3f} allowed: "
                f"{'ok' if passed else 'FAIL'}"
            )
    return ok, lines


def _git_revision() -> Optional[str]:
    """The commit hash of the repro code that produced an artifact, or ``None``.

    Resolved relative to the installed package (not the caller's working
    directory, which may be an unrelated repository), so the artifact
    records the revision that actually produced the numbers; a non-editable
    install has no checkout and records ``None``.
    """
    package_dir = Path(__file__).resolve().parent
    try:
        proc = subprocess.run(
            ["git", "-C", str(package_dir), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=5.0,
            check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    revision = proc.stdout.strip()
    return revision if proc.returncode == 0 and revision else None


def _free_port_block(count: int) -> int:
    """A base port with ``count`` consecutive free ports from it.

    The shard layout is ``base`` (public) plus ``base+1..base+N`` (peers),
    so the whole block must be free at once.  Probing binds every port in
    the candidate block before releasing them; a race with another process
    grabbing a probed port between release and the server's bind is
    possible but vanishingly rare on a CI box.
    """
    import random

    rng = random.Random()
    for _ in range(64):
        base = rng.randrange(20000, 50000)
        sockets = []
        try:
            for offset in range(count):
                sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
                sockets.append(sock)  # before bind(), so a taken port's socket closes too
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
                sock.bind(("127.0.0.1", base + offset))
            return base
        except OSError:
            continue
        finally:
            for sock in sockets:
                sock.close()
    raise ServiceError(f"could not find {count} consecutive free ports")
