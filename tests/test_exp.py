"""Tests for the experiment orchestration layer (repro.exp).

Covers the ISSUE's acceptance surface: configuration serialization round
trips, content-address (cache key) stability across processes and hash
seeds, cache hit/miss behaviour, and bit-identical results between serial
and parallel execution of the same sweep.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from _helpers import TEST_INSTRUCTIONS, TEST_SEED, one_member_suite, subprocess_env

from repro.common.errors import ConfigurationError
from repro.common.serialize import canonical_json, from_jsonable, stable_hash, to_jsonable
from repro.exp.cache import ResultCache
from repro.exp.runner import ExperimentRunner, SimJob, SweepCase, job_key, run_job
from repro.sim.configs import PAPER_CONFIGS, MachineConfig, fmc_hash, ooo_64
from repro.sim.experiments import ExperimentContext, Plan, sec52_epoch_sizing
from repro.workloads.base import WorkloadParameters
from repro.workloads.suite import quick_fp_suite, quick_int_suite

# ----------------------------------------------------------------------
# Serialization round trips
# ----------------------------------------------------------------------


@pytest.mark.parametrize("config_name", sorted(PAPER_CONFIGS))
def test_machine_config_roundtrip(config_name: str) -> None:
    machine = PAPER_CONFIGS[config_name]()
    lowered = json.loads(json.dumps(to_jsonable(machine)))
    rebuilt = from_jsonable(MachineConfig, lowered)
    assert rebuilt == machine


def test_workload_parameters_roundtrip() -> None:
    for member in tuple(quick_fp_suite()) + tuple(quick_int_suite()):
        lowered = json.loads(json.dumps(to_jsonable(member)))
        rebuilt = from_jsonable(WorkloadParameters, lowered)
        assert rebuilt == member


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda doc: doc.update(load_fraction=True), "load_fraction: expected float, got bool"),
        (lambda doc: doc.update(load_fraction="0.3"), "load_fraction: expected float, got str"),
        (lambda doc: doc.update(load_fraction=10**400), "load_fraction: expected a float-sized"),
        (lambda doc: doc.update(name=7), "name: expected str, got int"),
        (lambda doc: doc.update(access_sizes={"8": 1.0}), "access_sizes: expected a list"),
        (lambda doc: doc["regions"][0].update(is_far="no"), "regions: is_far: expected bool"),
        (lambda doc: doc["regions"][0].pop("name"), "regions: MemoryRegion is missing its 'name'"),
    ],
    ids=["bool-float", "str-float", "huge-float", "int-str", "dict-list", "str-bool", "missing"],
)
def test_decoding_never_coerces(edit, message) -> None:
    """A value of the wrong JSON type names its field instead of being coerced."""
    lowered = json.loads(json.dumps(to_jsonable(quick_fp_suite().members[0])))
    edit(lowered)
    with pytest.raises(ConfigurationError, match=message):
        from_jsonable(WorkloadParameters, lowered)


def test_core_result_roundtrip() -> None:
    member = quick_fp_suite().members[0]
    result = run_job(SimJob(ooo_64(), member, TEST_INSTRUCTIONS, TEST_SEED))
    lowered = json.loads(json.dumps(result.to_dict()))
    rebuilt = type(result).from_dict(lowered)
    assert rebuilt == result
    assert rebuilt.ipc == result.ipc
    assert dict(rebuilt.stats.counters) == dict(result.stats.counters)
    assert dict(rebuilt.stats.histograms) == dict(result.stats.histograms)


# ----------------------------------------------------------------------
# Content addresses (cache keys)
# ----------------------------------------------------------------------


def test_job_key_covers_every_input() -> None:
    member = quick_fp_suite().members[0]
    base = SimJob(fmc_hash(), member, TEST_INSTRUCTIONS, TEST_SEED)
    assert job_key(base) == job_key(SimJob(fmc_hash(), member, TEST_INSTRUCTIONS, TEST_SEED))
    variants = [
        SimJob(fmc_hash(hash_bits=12), member, TEST_INSTRUCTIONS, TEST_SEED),
        SimJob(fmc_hash(), quick_fp_suite().members[1], TEST_INSTRUCTIONS, TEST_SEED),
        SimJob(fmc_hash(), member, TEST_INSTRUCTIONS + 1, TEST_SEED),
        SimJob(fmc_hash(), member, TEST_INSTRUCTIONS, TEST_SEED + 1),
        SimJob(fmc_hash(), member, TEST_INSTRUCTIONS, None),
    ]
    keys = {job_key(variant) for variant in variants}
    assert len(keys) == len(variants)
    assert job_key(base) not in keys
    # The display name is NOT part of the physics: renaming must reuse the key.
    assert job_key(SimJob(fmc_hash(name="renamed"), member, TEST_INSTRUCTIONS, TEST_SEED)) == (
        job_key(base)
    )


def test_identically_configured_machines_share_simulations(tmp_path: Path) -> None:
    """Renamed-but-identical machines dedupe, and aggregates keep their labels."""
    suite = one_member_suite()
    runner = ExperimentRunner(jobs=1, cache=ResultCache(tmp_path / "cache"))
    first = runner.run_suite(fmc_hash(), suite, TEST_INSTRUCTIONS, seed=TEST_SEED)
    second = runner.run_suite(
        fmc_hash(name="ELSQ Hash ERT + SQM"), suite, TEST_INSTRUCTIONS, seed=TEST_SEED
    )
    assert runner.executed_jobs == 1
    assert runner.cache_hits == 1
    assert first.machine_name == "FMC-Hash"
    assert second.machine_name == "ELSQ Hash ERT + SQM"
    assert second.results["swim_like"].config_name == "ELSQ Hash ERT + SQM"
    assert second.results["swim_like"].cycles == first.results["swim_like"].cycles
    assert dict(second.results["swim_like"].stats.counters) == dict(
        first.results["swim_like"].stats.counters
    )


def test_config_hash_stable_across_processes() -> None:
    """The content address must not depend on the process or the hash seed."""
    member = quick_fp_suite().members[0]
    expected = SimJob(fmc_hash(), member, TEST_INSTRUCTIONS, TEST_SEED).key()
    script = (
        "from repro.exp.runner import SimJob;"
        "from repro.sim.configs import fmc_hash;"
        "from repro.workloads.suite import quick_fp_suite;"
        f"job = SimJob(fmc_hash(), quick_fp_suite().members[0], {TEST_INSTRUCTIONS}, {TEST_SEED});"
        "print(job.key())"
    )
    for hash_seed in ("0", "12345"):
        env = subprocess_env()
        env["PYTHONHASHSEED"] = hash_seed
        output = subprocess.run(
            [sys.executable, "-c", script],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
        assert output == expected


def test_canonical_json_is_sorted_and_compact() -> None:
    machine = ooo_64()
    text = canonical_json(machine)
    assert ": " not in text and ", " not in text
    assert json.loads(text) == to_jsonable(machine)
    assert stable_hash(machine) == stable_hash(ooo_64())


# ----------------------------------------------------------------------
# Cache behaviour
# ----------------------------------------------------------------------


def test_cache_miss_then_hit(result_cache: ResultCache) -> None:
    suite = one_member_suite()
    cold_runner = ExperimentRunner(jobs=1, cache=result_cache)
    cold = cold_runner.run_suite(fmc_hash(), suite, TEST_INSTRUCTIONS, seed=TEST_SEED)
    assert cold_runner.executed_jobs == 1
    assert cold_runner.cache_hits == 0

    warm_runner = ExperimentRunner(jobs=1, cache=ResultCache(result_cache.root))
    warm = warm_runner.run_suite(fmc_hash(), suite, TEST_INSTRUCTIONS, seed=TEST_SEED)
    assert warm_runner.executed_jobs == 0
    assert warm_runner.cache_hits == 1
    assert warm == cold

    entries = list(result_cache.entries())
    assert len(entries) == 1
    assert entries[0].machine == "FMC-Hash"
    assert entries[0].workload == "swim_like"
    assert entries[0].num_instructions == TEST_INSTRUCTIONS


def test_cache_corrupt_entry_is_a_miss(result_cache: ResultCache) -> None:
    cache = result_cache
    suite = one_member_suite()
    runner = ExperimentRunner(jobs=1, cache=cache)
    runner.run_suite(ooo_64(), suite, TEST_INSTRUCTIONS, seed=TEST_SEED)
    (entry,) = cache.entries()
    entry.path.write_text("{ not json")
    rerun = ExperimentRunner(jobs=1, cache=cache)
    rerun.run_suite(ooo_64(), suite, TEST_INSTRUCTIONS, seed=TEST_SEED)
    assert rerun.executed_jobs == 1
    assert rerun.cache_hits == 0
    # The corrupt entry was overwritten with a readable one.
    assert cache.get(entry.key) is not None

    # Valid JSON with semantically impossible values is also a miss, not a crash.
    payload = json.loads(entry.path.read_text())
    payload["result"]["cycles"] = 0
    entry.path.write_text(json.dumps(payload))
    assert cache.get(entry.key) is None
    again = ExperimentRunner(jobs=1, cache=cache)
    again.run_suite(ooo_64(), suite, TEST_INSTRUCTIONS, seed=TEST_SEED)
    assert again.executed_jobs == 1


def test_cache_clear(result_cache: ResultCache) -> None:
    runner = ExperimentRunner(jobs=1, cache=result_cache)
    runner.run_suite(ooo_64(), one_member_suite(), TEST_INSTRUCTIONS, seed=TEST_SEED)
    assert result_cache.clear() == 1
    assert list(result_cache.entries()) == []


def _set_entry_created(entry, created: float) -> None:
    """Rewrite one cache entry's creation timestamp (test clock control)."""
    payload = json.loads(entry.path.read_text())
    payload["created"] = created
    entry.path.write_text(json.dumps(payload, sort_keys=True))


def populated_cache(tmp_path: Path, seeds=(1, 2, 3)) -> ResultCache:
    """A cache with one entry per seed, with created stamps 100, 200, 300..."""
    cache = ResultCache(tmp_path / "cache")
    runner = ExperimentRunner(jobs=1, cache=cache)
    for seed in seeds:
        runner.run_suite(ooo_64(), one_member_suite(), TEST_INSTRUCTIONS, seed=seed)
    entries = sorted(cache.entries(), key=lambda entry: entry.seed)
    for index, entry in enumerate(entries):
        _set_entry_created(entry, 100.0 * (index + 1))
    return cache


def test_cache_prune_older_than(tmp_path: Path) -> None:
    cache = populated_cache(tmp_path)
    # At now=450, entries created at 100 and 200 are >= 250s old.
    report = cache.prune(older_than_seconds=250.0, now=450.0)
    assert report.removed == 2
    assert report.remaining == 1
    assert report.freed_bytes > 0
    (survivor,) = cache.entries()
    assert survivor.seed == 3  # the newest entry survived


def test_cache_prune_max_size_evicts_oldest_first(tmp_path: Path) -> None:
    cache = populated_cache(tmp_path)
    entries = list(cache.entries())
    keep_bytes = max(entry.size_bytes for entry in entries)
    report = cache.prune(max_size_bytes=keep_bytes)
    assert report.removed == 2
    assert report.remaining == 1
    assert report.remaining_bytes <= keep_bytes
    (survivor,) = cache.entries()
    assert survivor.seed == 3
    # A no-op prune removes nothing (now pinned: created stamps are synthetic).
    untouched = cache.prune(older_than_seconds=1e9, max_size_bytes=10**9, now=450.0)
    assert untouched.removed == 0
    assert untouched.remaining == 1


def test_cache_put_is_atomic_and_cleans_up_on_failure(
    tmp_path: Path, monkeypatch: pytest.MonkeyPatch
) -> None:
    cache = ResultCache(tmp_path / "cache")
    job = SimJob(ooo_64(), quick_fp_suite().members[0], TEST_INSTRUCTIONS, TEST_SEED)
    result = run_job(job)
    cache.put(job.key(), result)
    # The committed entry is complete and no temporary survives the rename.
    assert cache.get(job.key()) == result
    assert list((tmp_path / "cache").rglob("*.tmp")) == []

    # A writer dying at the rename must not leave a torn temporary either.
    import repro.exp.cache as cache_module

    def broken_replace(_source, _target):
        raise OSError("injected rename failure")

    monkeypatch.setattr(cache_module.os, "replace", broken_replace)
    with pytest.raises(OSError, match="injected rename failure"):
        cache.put(job.key(), result)
    monkeypatch.undo()
    assert list((tmp_path / "cache").rglob("*.tmp")) == []
    # The previously committed entry is still intact.
    assert cache.get(job.key()) == result


def test_clear_spares_live_temp_files_but_sweeps_orphans(tmp_path: Path) -> None:
    """clear() must not delete a concurrent writer's in-flight temporary."""
    cache = ResultCache(tmp_path / "cache")
    job = SimJob(ooo_64(), quick_fp_suite().members[0], TEST_INSTRUCTIONS, TEST_SEED)
    cache.put(job.key(), run_job(job))
    bucket = cache.path_for(job.key()).parent
    temp = bucket / f".{job.key()}.json.12345.99.tmp"
    temp.write_text("{ partial write")
    assert cache.clear() == 1
    # A fresh temp (a writer may be mid-put) survives the sweep ...
    assert temp.exists()
    # ... but an orphan from a long-dead writer is collected.
    ancient = temp.stat().st_mtime - 7200
    os.utime(temp, (ancient, ancient))
    cache.clear()
    assert not temp.exists()


def test_job_key_covers_the_trace_format_version(monkeypatch: pytest.MonkeyPatch) -> None:
    """Bumping the trace format must change every content address."""
    from repro.exp import runner as runner_module

    member = quick_fp_suite().members[0]
    job = SimJob(ooo_64(), member, TEST_INSTRUCTIONS, TEST_SEED)
    before = job_key(job)
    monkeypatch.setattr(
        runner_module, "TRACE_FORMAT_VERSION", runner_module.TRACE_FORMAT_VERSION + 1
    )
    after = job_key(job)
    monkeypatch.undo()
    assert after != before


def test_a_keyed_job_is_freed_with_its_last_reference() -> None:
    """A job's key is memoised on the job, not process-wide, so a server
    that keys every submission it decodes holds none of them afterwards."""
    import gc
    import weakref

    from repro.exp.request import JobRequest

    member = quick_fp_suite().members[0]
    job = SimJob(ooo_64(), member, TEST_INSTRUCTIONS, TEST_SEED + 1000)
    request = JobRequest(cases=(job,))
    request.key()  # admission keys each case once, through the case's memo
    assert job.key() == job_key(SimJob(ooo_64(), member, TEST_INSTRUCTIONS, TEST_SEED + 1000))
    freed = weakref.ref(job)
    del job, request
    gc.collect()
    assert freed() is None


def test_shipped_keys_are_pinned() -> None:
    """The content addresses of shipped work do not move by accident.

    Every cache entry and every coalescing decision hangs on these hashes,
    so a change to any machine, workload or request field -- or to how one
    is lowered to JSON -- must show up here and be made on purpose.  The
    jobs are the first case of Figure 7's quick campaign over both of its
    workloads.
    """
    from repro.exp.request import JobRequest
    from repro.sim.experiments import campaign_context, fig7_speedups

    context = campaign_context()
    first = fig7_speedups(context).cases[0]
    jobs = {
        member.name: SimJob(first.machine, member, context.instructions_per_workload, context.seed)
        for member in context.suites()[first.suite_label]
    }
    assert {name: job_key(job) for name, job in jobs.items()} == {
        "swim_like": "2f45985f5287285658de9e4a8196525d3656a8a3c360b5e4a7399439b9caee51",
        "equake_like": "fc32ba011bd9fb8c0ac5efc087d7113dd7a3837309e72b35a01cad3978d7ec23",
    }
    assert (
        JobRequest(figure="fig7").key()
        == "b048c50b1935fbee0e874f339207e23fbe0050b144a1d86b157523e49648e495"
    )
    # An older client's engine field is ignored, so its request coalesces.
    legacy = {**JobRequest(figure="fig7").to_dict(), "engine": "reference"}
    assert JobRequest.from_dict(legacy).key() == JobRequest(figure="fig7").key()


def test_every_shipped_key_is_pinned() -> None:
    """One digest pins every content address the shipped figures produce.

    It covers the distinct job keys of every simulation a cold quick
    ``repro all`` runs (each figure's plan cases expanded over its suites,
    nothing simulated) and the request key of every registered figure.  A
    change in field order, in an enum's value or in how a tuple is lowered
    moves some of them, and with them this digest.
    """
    from repro.exp.request import JobRequest
    from repro.sim.experiments import EXPERIMENTS, campaign_context

    context = campaign_context()
    job_keys = set()
    for spec in EXPERIMENTS.values():
        plan = spec.plan(context)
        suites = {**context.suites(), **plan.suites}
        job_keys |= {
            job_key(SimJob(case.machine, member, context.instructions_per_workload, context.seed))
            for case in plan.cases
            for member in suites[case.suite_label]
        }
    assert len(job_keys) == 232
    request_keys = [JobRequest(figure=name).key() for name in sorted(EXPERIMENTS)]
    digest = hashlib.sha256("\n".join(sorted(job_keys) + request_keys).encode("ascii"))
    assert digest.hexdigest() == (
        "54b5238eb2659269e0585afb433cc82eae69b43e022a9236fbe61ed6370ee458"
    )


def test_stale_trace_format_entry_is_never_a_hit(result_cache: ResultCache) -> None:
    """An entry recorded under an older trace format reads as a miss and can
    be swept selectively with ``clear(stale_only=True)``."""
    cache = result_cache
    runner = ExperimentRunner(jobs=1, cache=cache)
    runner.run_suite(ooo_64(), one_member_suite(), TEST_INSTRUCTIONS, seed=TEST_SEED)
    runner.run_suite(ooo_64(), one_member_suite(), TEST_INSTRUCTIONS, seed=TEST_SEED + 1)
    fresh_entry, stale_entry = sorted(cache.entries(), key=lambda entry: entry.seed or 0)
    assert not fresh_entry.is_stale and not stale_entry.is_stale

    # Forge an entry from an older format generation.
    payload = json.loads(stale_entry.path.read_text())
    payload["trace_format"] = payload["trace_format"] - 1
    stale_entry.path.write_text(json.dumps(payload, sort_keys=True))

    assert cache.get(stale_entry.key) is None  # belt-and-braces miss
    assert cache.get(fresh_entry.key) is not None
    refetched = {entry.key: entry for entry in cache.entries()}
    assert refetched[stale_entry.key].is_stale
    assert not refetched[fresh_entry.key].is_stale

    # A rerun under the stale key re-executes instead of serving the entry.
    rerun = ExperimentRunner(jobs=1, cache=cache)
    rerun.run_suite(ooo_64(), one_member_suite(), TEST_INSTRUCTIONS, seed=TEST_SEED + 1)
    assert rerun.executed_jobs == 1 and rerun.cache_hits == 0

    # Selective sweep: re-forge, then clear only the stale entry.
    stale_entry.path.write_text(json.dumps(payload, sort_keys=True))
    assert cache.clear(stale_only=True) == 1
    assert cache.get(fresh_entry.key) is not None
    assert not stale_entry.path.exists()


def test_runner_dedupes_identical_jobs() -> None:
    member = quick_fp_suite().members[0]
    job = SimJob(ooo_64(), member, TEST_INSTRUCTIONS, TEST_SEED)
    runner = ExperimentRunner(jobs=1)
    batch = runner.run_batch([job, job, job])
    assert runner.executed_jobs == 1
    assert set(batch) == {job.key()}


# ----------------------------------------------------------------------
# Parallel == serial
# ----------------------------------------------------------------------


def test_parallel_execution_is_bit_identical_to_serial() -> None:
    """The same sweep must produce identical results serially and in a pool."""
    suite = quick_fp_suite()
    machines = [ooo_64(), fmc_hash()]
    serial_runner = ExperimentRunner(jobs=1)
    with ExperimentRunner(jobs=2) as parallel_runner:
        for machine in machines:
            serial = serial_runner.run_suite(machine, suite, TEST_INSTRUCTIONS, seed=TEST_SEED)
            parallel = parallel_runner.run_suite(
                machine, suite, TEST_INSTRUCTIONS, seed=TEST_SEED
            )
            assert parallel == serial  # CoreResult equality covers cycles, stats, extras
    assert parallel_runner.executed_jobs == len(machines) * len(suite)


def test_run_sweep_matches_between_serial_and_parallel_contexts() -> None:
    """A whole declared figure produces identical series through both paths."""
    sizings = ((16, 8), (64, 32), (1024, 1024))

    def context(runner: ExperimentRunner) -> ExperimentContext:
        return ExperimentContext(
            fp_suite=quick_fp_suite(),
            int_suite=quick_int_suite(),
            instructions_per_workload=TEST_INSTRUCTIONS,
            seed=TEST_SEED,
            runner=runner,
        )

    serial_context = context(ExperimentRunner(jobs=1))
    serial_points = serial_context.run(sec52_epoch_sizing(serial_context, sizings=sizings))
    with ExperimentRunner(jobs=2) as parallel_runner:
        parallel_context = context(parallel_runner)
        parallel_points = parallel_context.run(
            sec52_epoch_sizing(parallel_context, sizings=sizings)
        )
    assert parallel_points == serial_points


def test_run_plans_runs_equal_cases_once() -> None:
    """Plans sharing a case, or a job under another machine name, simulate it once."""
    suite = one_member_suite()
    context = ExperimentContext(
        fp_suite=suite,
        int_suite=suite,
        instructions_per_workload=TEST_INSTRUCTIONS,
        seed=TEST_SEED,
    )
    shared = SweepCase(ooo_64(), "SPEC FP")
    renamed = SweepCase(ooo_64(name="Baseline"), "SPEC INT")
    results = context.run_plans(
        {
            "one": Plan((shared,), lambda results: results[shared]),
            "two": Plan((renamed, shared), lambda results: dict(results)),
        }
    )
    assert context.runner.executed_jobs == 1
    assert results["two"][shared] == results["one"]
    assert results["two"][renamed].machine_name == "Baseline"
    assert results["two"][renamed].mean_ipc == results["one"].mean_ipc


def test_run_plans_rejects_plans_that_disagree_on_a_suite() -> None:
    """One batch holds one suite per label; a second meaning must not shadow it."""
    context = ExperimentContext(fp_suite=quick_fp_suite(), int_suite=quick_int_suite())
    case = SweepCase(ooo_64(), "SPEC FP")
    plan = Plan((case,), dict, {"SPEC FP": one_member_suite()})
    with pytest.raises(ConfigurationError, match="SPEC FP"):
        context.run_plans({"shadowing": plan})
    assert context.runner.executed_jobs == 0
