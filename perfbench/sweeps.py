"""The two simulator-throughput workloads: ``sweep-long`` and ``sweep-short``.

Each pass is one cold campaign run through ``ExperimentRunner(jobs=1,
cache=None)`` with the trace and warm-up memos cleared first, one
``run_batch`` call per simulation job so every job's latency is seen.
Speed probes between jobs scale the pass's times to reference host speed
(see ``harness.speed_probe``).  Whole passes repeat until the measuring
window is spent.

Traced runs alternate untraced and traced passes.  A traced pass swaps the
registered ``fast`` engine for :class:`PhaseProbe`, which takes the delta of
the program's own ``repro.common.phases`` totals around each ``Engine.run``
and labels it with the machine and replacement policy it ran.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from time import perf_counter
from typing import Any, Dict, List, Optional

import harness
from repro.common import phases
from repro.exp.runner import ExperimentRunner, SimJob, clear_trace_memo
from repro.sim.configs import LSQKind, MachineKind, fmc_hash, ooo_64
from repro.sim.engine import engine_by_name, register_engine
from repro.sim.engine.fast import clear_warm_memo
from repro.sim.experiments import fig7_machines
from repro.workloads.suite import quick_fp_suite, quick_int_suite, spec_fp_suite, spec_int_suite

#: Trace length per simulation of each sweep.
INSTRUCTIONS = {"sweep-long": 30_000, "sweep-short": 1_500}

#: Campaign seeds with recorded result digests; ``--seed n`` selects
#: campaign seed ``1 + n % RECORDED_CAMPAIGNS``.
RECORDED_CAMPAIGNS = 32

DIGEST_DIR = Path(__file__).resolve().parent / "digests"

#: Fresh interpreters timed for ``setup_s``.
SETUP_REPEATS = 9

ENGINE_PHASES = ("build", "warmup", "drive")


def campaign_seed(seed: int) -> int:
    return 1 + seed % RECORDED_CAMPAIGNS


def sweep_jobs(workload: str, seed: int) -> List[SimJob]:
    """The campaign's simulation jobs, in execution order.

    ``sweep-long``: OoO-64 plus the five Figure-7 LSQ schemes over the four
    quick SPEC-like members (24 jobs).  ``sweep-short``: OoO-64 and FMC-Hash
    over all twelve SPEC-like members under LRU and under ARC (48 jobs).
    """
    if workload == "sweep-long":
        machines = [ooo_64()] + fig7_machines()
        members = list(quick_fp_suite()) + list(quick_int_suite())
    else:
        machines = [
            machine.with_policy(policy)
            for policy in ("lru", "arc")
            for machine in (ooo_64(), fmc_hash())
        ]
        members = list(spec_fp_suite()) + list(spec_int_suite())
    length = INSTRUCTIONS[workload]
    return [SimJob(machine, member, length, seed) for machine in machines for member in members]


def machine_label(machine) -> str:
    """The drive-loop family a machine runs: ``ooo``, ``fmc_central``, ``fmc_elsq``."""
    if machine.kind is MachineKind.CONVENTIONAL:
        return "ooo"
    return "fmc_central" if machine.lsq is LSQKind.CENTRAL else "fmc_elsq"


class PhaseProbe:
    """A ``fast`` engine stand-in recording each run's phase-total delta."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.name = inner.name
        self.runs: List[Dict[str, Any]] = []

    def run(self, machine, trace):
        before = phases.snapshot()
        started = perf_counter()
        result = self.inner.run(machine, trace)
        wall = perf_counter() - started
        after = phases.snapshot()
        record = {
            "label": machine_label(machine),
            "policy": machine.hierarchy.l1.replacement_policy,
            "instructions": result.committed_instructions,
            "wall": wall,
        }
        for phase in ENGINE_PHASES:
            record[phase] = after.get(phase, 0.0) - before.get(phase, 0.0)
        self.runs.append(record)
        return result


@dataclass
class Pass:
    """One cold campaign: per-job latencies, results and its speed scale."""

    traced: bool
    latencies: List[float] = field(default_factory=list)
    results: List[Optional[Dict[str, Any]]] = field(default_factory=list)
    failures: int = 0
    generation: float = 0.0
    engine_runs: List[Dict[str, Any]] = field(default_factory=list)
    #: Turns this pass's measured times into reference-speed times.
    scale: float = 1.0

    @property
    def wall(self) -> float:
        """Measured seconds spent inside ``run_batch`` (probes excluded)."""
        return sum(self.latencies)

    @property
    def scaled_wall(self) -> float:
        return self.wall * self.scale


def run_pass(jobs: List[SimJob], traced: bool) -> Pass:
    record = Pass(traced=traced)
    clear_trace_memo()
    clear_warm_memo()
    probe = PhaseProbe(engine_by_name("fast")) if traced else None
    if probe is not None:
        register_engine(probe)
    generation_before = phases.snapshot().get("generation", 0.0)
    runner = ExperimentRunner(jobs=1, cache=None)
    probes = [harness.speed_probe()]
    last_probe = perf_counter()
    try:
        for job in jobs:
            if perf_counter() - last_probe >= harness.PROBE_INTERVAL_S:
                probes.append(harness.speed_probe())
                last_probe = perf_counter()
            started = perf_counter()
            try:
                result = runner.run_batch([job])[job.key()]
            except Exception as error:  # noqa: BLE001 -- counted, reported, run goes on
                print(f"perfbench: {job.machine.name}/{job.workload.name}: {error!r}", file=sys.stderr)
                record.failures += 1
                record.results.append(None)
                continue
            record.latencies.append(perf_counter() - started)
            record.results.append(result.to_dict())
    finally:
        runner.close()
        if probe is not None:
            register_engine(probe.inner)
    probes.append(harness.speed_probe())
    record.scale = harness.speed_scale(probes)
    record.generation = phases.snapshot().get("generation", 0.0) - generation_before
    if probe is not None:
        record.engine_runs = probe.runs
    return record


def load_digests(workload: str) -> Dict[str, List[str]]:
    path = DIGEST_DIR / f"{workload}.json"
    if not path.is_file():
        return {}
    return json.loads(path.read_text(encoding="utf-8"))


def measure_setup(workload: str, seed: int) -> float:
    """Median wall time of a fresh interpreter importing the package and
    building the campaign's job list with every job's content address."""
    snippet = (
        "import sys; sys.path[:0] = sys.argv[1:3]; import sweeps; "
        "[job.key() for job in sweeps.sweep_jobs(sys.argv[3], int(sys.argv[4]))]"
    )
    here = Path(__file__).resolve().parent
    command = [
        sys.executable, "-c", snippet,
        str(harness.ROOT / "src"), str(here), workload, str(seed),
    ]
    return median(harness.time_subprocess(command) for _ in range(SETUP_REPEATS))


def _layer_metrics(traced: List[Pass], generated_instructions: int) -> Dict[str, float]:
    """Per-layer metrics: medians over traced passes of per-pass values,
    each pass's times scaled to reference host speed."""
    per_pass: Dict[str, List[float]] = {}
    scale = 1.0

    def add(name: str, value: float) -> None:
        per_pass.setdefault(name, []).append(value * scale)

    for record in traced:
        scale = record.scale
        runs = record.engine_runs
        add("workloads.generate_s", record.generation)
        add("workloads.generate_us_per_instr", record.generation / generated_instructions * 1e6)
        add("sim.engine.build_ms_per_sim", sum(run["build"] for run in runs) / len(runs) * 1e3)
        for policy in ("lru", "arc"):
            chosen = [run["warmup"] for run in runs if run["policy"] == policy]
            if chosen:
                add(f"sim.engine.warmup_ms_per_sim.{policy}", sum(chosen) / len(chosen) * 1e3)
        for label in ("ooo", "fmc_central", "fmc_elsq"):
            chosen = [run for run in runs if run["label"] == label]
            if chosen:
                add(
                    f"sim.engine.drive_us_per_instr.{label}",
                    sum(run["drive"] for run in chosen)
                    / sum(run["instructions"] for run in chosen)
                    * 1e6,
                )
        engine_wall = sum(run["wall"] for run in runs)
        add("exp.runner.overhead_s", record.wall - record.generation - engine_wall)
    return {name: median(values) for name, values in per_pass.items()}


def _closure(traced: List[Pass]) -> Dict[str, Any]:
    """generation + build + warm-up + drive + runner overhead vs pass wall.

    Runner overhead is the pass wall minus generation and the summed
    ``Engine.run`` wall times, so the check is whether the phases the
    engine reports cover the time its runs actually took.
    """
    worst = 0.0
    parts: Dict[str, float] = {}
    for record in traced:
        engine_wall = sum(run["wall"] for run in record.engine_runs)
        parts = {
            "generation": record.generation,
            **{phase: sum(run[phase] for run in record.engine_runs) for phase in ENGINE_PHASES},
            "runner_overhead": record.wall - record.generation - engine_wall,
        }
        worst = max(worst, abs(sum(parts.values()) - record.wall) / record.wall * 100.0)
    return {
        "error_pct": worst,
        "tolerance_pct": harness.CLOSURE_TOLERANCE_PCT,
        "ok": worst <= harness.CLOSURE_TOLERANCE_PCT,
        "last_pass_parts_s": parts,
    }


def run(workload: str, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    campaign = campaign_seed(seed)
    jobs = sweep_jobs(workload, campaign)
    setup_raw = measure_setup(workload, campaign)

    # Whole passes only; another starts while it would end, by the median
    # pass so far, no more than half a pass after the window closes.
    passes: List[Pass] = []
    durations: List[float] = []
    started = perf_counter()
    while len(passes) < (2 if trace else 1) or (
        perf_counter() - started + 0.5 * median(durations) <= seconds
    ):
        pass_started = perf_counter()
        passes.append(run_pass(jobs, traced=trace and len(passes) % 2 == 1))
        durations.append(perf_counter() - pass_started)

    # Correctness, outside the timed window: every pass's every result
    # against the digests recorded for this campaign seed.
    recorded = load_digests(workload).get(str(campaign))
    mismatches = 0
    for record in passes:
        for index, result in enumerate(record.results):
            if result is None:
                continue
            if recorded is None or harness.result_digest(result) != recorded[index]:
                mismatches += 1
    if recorded is None:
        print(f"perfbench: no recorded digests for {workload} campaign {campaign}", file=sys.stderr)

    plain = [record for record in passes if not record.traced]
    traced = [record for record in passes if record.traced]
    instructions = sum(job.num_instructions for job in jobs)
    latencies_ms = [latency * record.scale * 1e3 for record in plain for latency in record.latencies]
    end_to_end = {
        # Set-up ran just before the passes; their many probes give its scale.
        "setup_s": setup_raw * median(record.scale for record in passes),
        "peak_rss_mb": harness.peak_rss_mb(),
        "sim_kips": median(instructions / record.scaled_wall / 1e3 for record in plain),
        "sims_per_s": median(len(jobs) / record.scaled_wall for record in plain),
        "jobs_per_s": median(len(jobs) / record.scaled_wall for record in plain),
        "job_p50_ms": harness.percentile(latencies_ms, 0.5),
        "job_p90_ms": harness.percentile(latencies_ms, 0.9),
        # Without a result cache every job simulates: each one is a miss.
        "miss_p50_ms": harness.percentile(latencies_ms, 0.5),
        "miss_p90_ms": harness.percentile(latencies_ms, 0.9),
    }

    per_layer: Dict[str, float] = {}
    closure: Dict[str, Any] = {}
    if traced:
        members = {job.workload.name for job in jobs}
        per_layer = _layer_metrics(traced, len(members) * INSTRUCTIONS[workload])
        closure = _closure(traced)
        per_layer["closure_error_pct"] = closure["error_pct"]
        per_layer["trace_overhead_pct"] = (
            median(record.scaled_wall for record in traced)
            / median(record.scaled_wall for record in plain)
            - 1.0
        ) * 100.0

    counters = harness.work_counters(
        result for result in passes[0].results if result is not None
    )
    return harness.build_report(
        attempted=sum(len(record.results) for record in passes),
        failed=sum(record.failures for record in passes),
        mismatches=mismatches,
        end_to_end=end_to_end,
        per_layer=per_layer,
        counters=counters,
        closure=closure,
        details={
            "workload": workload,
            "seed": seed,
            "campaign_seed": campaign,
            "jobs_per_pass": len(jobs),
            "instructions_per_job": INSTRUCTIONS[workload],
            "passes": len(plain),
            "traced_passes": len(traced),
            "pass_wall_s": [record.wall for record in passes],
            "pass_scaled_wall_s": [record.scaled_wall for record in passes],
            "setup_measured_s": setup_raw,
            "latency_samples": len(latencies_ms),
        },
    )
