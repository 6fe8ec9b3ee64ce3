"""Smoke tests for the ``python -m repro`` command line interface."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest
from _helpers import REPO_ROOT, SRC_DIR, run_cli, subprocess_env

from repro.exp.runner import available_cpus
from repro.trace import TRACE_FORMAT_VERSION


def test_figure_cold_then_warm_cache(tmp_path: Path) -> None:
    """A warm second invocation must complete via cache with zero simulations."""
    base = [
        "sec52",
        "--jobs",
        "2",
        "--instructions",
        "1200",
        "--cache-dir",
        str(tmp_path / "cache"),
    ]
    cold = run_cli(base + ["--json", str(tmp_path / "cold.json")], cwd=tmp_path)
    assert cold.returncode == 0, cold.stderr
    assert "Section 5.2" in cold.stdout
    cold_artifact = json.loads((tmp_path / "cold.json").read_text())
    assert cold_artifact["executed_jobs"] > 0
    assert cold_artifact["cache_hits"] == 0
    summary = f"[repro] sec52: {cold_artifact['executed_jobs']} simulated, 0 from cache, "
    assert summary in cold.stdout

    warm = run_cli(base + ["--json", str(tmp_path / "warm.json")], cwd=tmp_path)
    assert warm.returncode == 0, warm.stderr
    warm_artifact = json.loads((tmp_path / "warm.json").read_text())
    assert warm_artifact["executed_jobs"] == 0
    assert warm_artifact["cache_hits"] == cold_artifact["executed_jobs"]
    assert warm_artifact["results"] == cold_artifact["results"]


def test_all_runs_every_figure_as_one_batch(tmp_path: Path) -> None:
    """`repro all` simulates each distinct job of every figure's plan once."""
    from repro.exp.runner import SimJob
    from repro.sim.experiments import EXPERIMENTS, campaign_context

    result = run_cli(
        ["all", "--instructions", "300", "--no-cache", "--quiet", "--json", "all.json"],
        cwd=tmp_path,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == ""
    artifact = json.loads((tmp_path / "all.json").read_text())
    context = campaign_context(instructions=300)
    keys = set()
    for spec in EXPERIMENTS.values():
        plan = spec.plan(context)
        suites = {**context.suites(), **plan.suites}
        keys |= {
            SimJob(case.machine, member, 300, context.seed).key()
            for case in plan.cases
            for member in suites[case.suite_label]
        }
    assert len(keys) == 232
    assert artifact["executed_jobs"] == len(keys)
    assert artifact["cache_hits"] == 0
    assert set(artifact["figures"]) == set(EXPERIMENTS)


def test_cache_inspection_commands(tmp_path: Path) -> None:
    cache_dir = str(tmp_path / "cache")
    run_cli(
        ["sec52", "--instructions", "1200", "--cache-dir", cache_dir, "--quiet"],
        cwd=tmp_path,
    )
    listing = run_cli(["cache", "list", "--cache-dir", cache_dir], cwd=tmp_path)
    assert listing.returncode == 0
    assert "swim_like" in listing.stdout

    info = run_cli(["cache", "info", "--cache-dir", cache_dir], cwd=tmp_path)
    assert info.returncode == 0
    assert "entries" in info.stdout

    cleared = run_cli(["cache", "clear", "--cache-dir", cache_dir], cwd=tmp_path)
    assert cleared.returncode == 0
    empty = run_cli(["cache", "list", "--cache-dir", cache_dir], cwd=tmp_path)
    assert "is empty" in empty.stdout


def test_cache_clear_prune_flags(tmp_path: Path) -> None:
    cache_dir = str(tmp_path / "cache")
    run_cli(
        ["sec52", "--instructions", "1200", "--cache-dir", cache_dir, "--quiet"],
        cwd=tmp_path,
    )
    # Age-based pruning with a huge threshold removes nothing.
    kept = run_cli(
        ["cache", "clear", "--older-than", "3650", "--cache-dir", cache_dir], cwd=tmp_path
    )
    assert kept.returncode == 0
    assert "pruned 0 entries" in kept.stdout
    listing = run_cli(["cache", "list", "--cache-dir", cache_dir], cwd=tmp_path)
    assert "swim_like" in listing.stdout
    # Size-based pruning to zero megabytes evicts everything.
    pruned = run_cli(
        ["cache", "clear", "--max-size", "0", "--cache-dir", cache_dir], cwd=tmp_path
    )
    assert pruned.returncode == 0
    assert "0 remain" in pruned.stdout
    empty = run_cli(["cache", "list", "--cache-dir", cache_dir], cwd=tmp_path)
    assert "is empty" in empty.stdout
    # The prune flags are clear-only.
    misuse = run_cli(
        ["cache", "list", "--older-than", "1", "--cache-dir", cache_dir], cwd=tmp_path
    )
    assert misuse.returncode == 2


def test_version_command_single_sources_the_version(tmp_path: Path) -> None:
    import repro

    result = run_cli(["version"], cwd=tmp_path)
    assert result.returncode == 0
    assert result.stdout.strip() == f"repro {repro.__version__}"
    # setup.py and repro.__version__ both read src/repro/_version.py.
    version_file = (SRC_DIR / "repro" / "_version.py").read_text()
    assert f'__version__ = "{repro.__version__}"' in version_file
    setup_text = (REPO_ROOT / "setup.py").read_text()
    assert "_version.py" in setup_text
    assert repro.__version__ not in setup_text


def test_list_command(tmp_path: Path) -> None:
    result = run_cli(["list"], cwd=tmp_path)
    assert result.returncode == 0
    for name in ("fig1", "fig7", "table2", "OoO-64", "FMC-Hash"):
        assert name in result.stdout


def test_serve_and_submit_verbs(tmp_path: Path) -> None:
    """`repro serve` + `repro submit` round trip, warm second submission."""
    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0", "--cache-dir", "svc-cache"],
        cwd=tmp_path,
        env=subprocess_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    try:
        banner = server.stdout.readline()
        assert "serving on http://" in banner, banner
        url = banner.split("serving on ")[1].split()[0]
        submit = ["submit", "sec52", "--server", url, "--instructions", "1200"]
        cold = run_cli(submit + ["--json", str(tmp_path / "cold.json")], cwd=tmp_path)
        assert cold.returncode == 0, cold.stdout + cold.stderr
        cold_view = json.loads((tmp_path / "cold.json").read_text())
        assert cold_view["status"] == "completed"
        assert cold_view["progress"]["executed_jobs"] > 0

        warm = run_cli(submit + ["--json", str(tmp_path / "warm.json")], cwd=tmp_path)
        assert warm.returncode == 0, warm.stdout + warm.stderr
        warm_view = json.loads((tmp_path / "warm.json").read_text())
        assert warm_view["progress"]["executed_jobs"] == 0
        assert warm_view["result"] == cold_view["result"]
    finally:
        server.terminate()
        server.wait(timeout=10)


def test_trace_record_info_replay(tmp_path: Path) -> None:
    """`repro trace` records a binary trace, inspects it and verifies replay."""
    recorded = run_cli(
        [
            "trace", "record", "gcc_like",
            "--instructions", "800", "--seed", "5", "--out", "g.rtrace",
        ],
        cwd=tmp_path,
    )
    assert recorded.returncode == 0, recorded.stderr
    assert "recorded 800 instructions" in recorded.stdout
    assert (tmp_path / "g.rtrace").is_file()

    info = run_cli(["trace", "info", "g.rtrace"], cwd=tmp_path)
    assert info.returncode == 0, info.stderr
    assert "gcc_like" in info.stdout
    assert f"format version  : {TRACE_FORMAT_VERSION}" in info.stdout
    assert "recorded" in info.stdout  # workload params travelled along

    replay = run_cli(
        ["trace", "replay", "g.rtrace", "--machine", "OoO-64", "--verify",
         "--json", str(tmp_path / "replay.json")],
        cwd=tmp_path,
    )
    assert replay.returncode == 0, replay.stdout + replay.stderr
    assert "verified" in replay.stdout
    result = json.loads((tmp_path / "replay.json").read_text())
    assert result["committed_instructions"] == 800
    assert result["cycles"] > 0

    # A family member is recordable by bare name too.
    family = run_cli(
        ["trace", "record", "stream_copy", "--instructions", "600"], cwd=tmp_path
    )
    assert family.returncode == 0, family.stderr
    assert (tmp_path / "stream_copy.rtrace").is_file()

    unknown = run_cli(["trace", "record", "nope_like"], cwd=tmp_path)
    assert unknown.returncode == 2
    assert "unknown workload" in unknown.stderr


def test_cache_clear_stale_flag(tmp_path: Path) -> None:
    """`repro cache clear --stale` sweeps only old-format entries."""
    cache_dir = str(tmp_path / "cache")
    run_cli(
        ["sec52", "--instructions", "800", "--cache-dir", cache_dir, "--quiet"],
        cwd=tmp_path,
    )
    from repro.exp.cache import ResultCache

    cache = ResultCache(cache_dir)
    entries = list(cache.entries())
    assert entries
    doomed = entries[0]
    payload = json.loads(doomed.path.read_text())
    payload["trace_format"] = 0
    doomed.path.write_text(json.dumps(payload, sort_keys=True))

    swept = run_cli(["cache", "clear", "--stale", "--cache-dir", cache_dir], cwd=tmp_path)
    assert swept.returncode == 0, swept.stderr
    assert "removed 1 stale-format cache entries" in swept.stdout
    remaining = list(cache.entries())
    assert len(remaining) == len(entries) - 1
    assert all(not entry.is_stale for entry in remaining)

    # --stale composes with nothing else and is clear-only.
    misuse = run_cli(["cache", "list", "--stale", "--cache-dir", cache_dir], cwd=tmp_path)
    assert misuse.returncode == 2
    conflict = run_cli(
        ["cache", "clear", "--stale", "--older-than", "1", "--cache-dir", cache_dir],
        cwd=tmp_path,
    )
    assert conflict.returncode == 2


def test_family_sweep_figure_command(tmp_path: Path) -> None:
    """The family sweep is addressable like any other figure."""
    result = run_cli(
        [
            "family-sweep", "--instructions", "500",
            "--cache-dir", str(tmp_path / "cache"),
            "--json", str(tmp_path / "sweep.json"),
        ],
        cwd=tmp_path,
    )
    assert result.returncode == 0, result.stderr
    assert "Family sweep" in result.stdout
    artifact = json.loads((tmp_path / "sweep.json").read_text())
    points = artifact["results"]
    families = {point["family"] for point in points}
    assert families == {"pointer_chase", "streaming", "branchy", "phased"}
    assert {point["knob"] for point in points} == {"epochs", "locality_threshold"}


def test_rejected_invocations_exit_2(tmp_path: Path) -> None:
    """A retired verb and bad settings exit 2 with a message, not a traceback."""
    cases = {
        ("bench",): "invalid choice: 'bench'",
        ("serve", "--shards", "0"): "must be a positive integer",
        ("loadbench", "--shards", "0"): "bad loadbench configuration",
        ("loadbench", "--tenant-mix", "alpha=heavy,beta=1"): "bad loadbench configuration",
    }
    for argv, message in cases.items():
        result = run_cli(list(argv), cwd=tmp_path)
        assert result.returncode == 2, (argv, result.stderr)
        assert message in result.stderr, (argv, result.stderr)
        assert "Traceback" not in result.stderr


def test_profile_writes_chrome_trace(tmp_path: Path) -> None:
    output = tmp_path / "trace.json"
    result = run_cli(
        [
            "profile",
            "sec52",
            "--trace-out",
            str(output),
            "--jobs",
            "1",
            "--instructions",
            "800",
        ],
        cwd=tmp_path,
    )
    assert result.returncode == 0, result.stderr
    assert "wrote" in result.stdout
    document = json.loads(output.read_text())
    assert document["displayTimeUnit"] == "ms"
    assert document["otherData"]["figure"] == "sec52"
    events = document["traceEvents"]
    phs = {event["ph"] for event in events}
    assert phs == {"X", "M"}
    complete = [event for event in events if event["ph"] == "X"]
    assert any(event["name"] == "profile:sec52" for event in complete)
    assert any(event.get("cat") == "phase" for event in complete)
    for event in complete:
        assert {"ts", "dur", "pid", "tid", "name"} <= set(event)


@pytest.mark.skipif(available_cpus() < 2, reason="a worker pool needs 2 usable CPUs")
def test_profile_with_a_worker_pool_ships_worker_spans(tmp_path: Path) -> None:
    output = tmp_path / "trace.json"
    result = run_cli(
        [
            "profile",
            "sec52",
            "--trace-out",
            str(output),
            "--jobs",
            "2",
            "--instructions",
            "800",
        ],
        cwd=tmp_path,
    )
    assert result.returncode == 0, result.stderr
    document = json.loads(output.read_text())
    phase_pids = {
        event["pid"]
        for event in document["traceEvents"]
        if event["ph"] == "X" and event.get("cat") == "phase"
    }
    assert len(phase_pids) >= 2, phase_pids
    assert document["otherData"]["phase_totals"]["drive"] > 0.0
