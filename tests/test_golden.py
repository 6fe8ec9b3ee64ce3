"""Golden-numerics regression tests.

Each golden snapshot pins the complete JSON-serialised result series of one
experiment under an exactly specified campaign (suites, trace length, seed).
The simulator is deterministic -- workload generation draws from
``random.Random`` streams seeded from configuration alone and the timing
models contain no randomness -- so a reproduction must match the snapshot
*bit for bit*; any diff is a semantic change to the models, the generator
or the experiment post-processing and must be reviewed as such.  One more
snapshot pins the service's ``GET /v1/stats`` / ``GET /v1/healthz`` wire
shape after a scripted admission history, so a refactor of the accounting
behind them cannot change a field silently.

The trace-content snapshot pins the generator itself: the SHA-256 of every
column and the region footprints of each shipped workload's trace at three
lengths and two seeds.  The simulation snapshots see a change to trace
content only through the timing it causes; this one sees any changed byte.

The LSQ-protocol snapshot pins every counter and histogram of fourteen
machines over one workload and over a hand-built conflict stream.  The LSQ
policies, the ERTs, the SVW and the memory hierarchy are shared by both
walks, so ``tests/differential`` cannot see a change to them; this
snapshot can, and :func:`test_protocol_snapshot_exercises_every_verdict`
keeps it from pinning a set of cases in which some verdict never fires.
No shipped workload makes the conventional core violate or its SVW
re-execute, so the conflict stream is built to do both.

The replacement-policy snapshot pins the caches themselves, which both
walks share and which the simulation snapshots exercise only under LRU:
one load/store stream with interleaved line locks and releases, run
through every timing policy in a hierarchy and through Belady's OPT on a
single cache.  It pins every counter, a digest of each access's latency
and each lock's result, and a digest of every set's tag row.  Its
coverage test keeps every case hitting, missing, evicting and locking,
and every small-L1 case running into lock conflicts.

Every snapshot is checked twice: under the fast engine every simulation
runs, and under the processors' own ``run``, which the ``reference``
parametrization registers in the fast engine's place for the duration of
the test (the hook the benchmark's phase probe uses), so the figure
campaigns run end to end through the reference walk.

Regenerating after an intentional change::

    PYTHONPATH=src python -m pytest tests/test_golden.py --regen-golden
    git diff tests/golden/   # review the numeric drift, then commit

The comparison runs on every push in CI (the ``golden-drift`` job), so an
accidental numerics change cannot land silently.
"""

from __future__ import annotations

import hashlib
import json
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Tuple

import pytest

from repro.common.serialize import to_jsonable
from repro.sim.engine import DEFAULT_ENGINE, engine_by_name, register_engine
from repro.sim.experiments import (
    campaign_context,
    family_sweep,
    fig7_speedups,
)

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

#: The pinned campaign of every golden: the quick two-workload suites at a
#: short trace length (fast enough for every push) and the paper-year seed.
GOLDEN_SEED = 2008
FIG7_INSTRUCTIONS = 2_000
FAMILY_INSTRUCTIONS = 1_200
PROTOCOL_INSTRUCTIONS = 4_000
#: Repetitions of each pattern of the protocol snapshot's conflict stream.
CONFLICT_REPETITIONS = 20
#: The trace-content campaign: shorter than the eight base-register seeds,
#: ``sweep-short``'s length and the quick campaign's length.
TRACE_LENGTHS = (5, 1_500, 8_000)
TRACE_SEEDS = (1, GOLDEN_SEED)
#: The replacement-policy campaign: ``mcf_like``'s load/store stream with a
#: line lock on every fifth access and an owner released every 64 accesses,
#: over the paper's L1 and a 2 KB 2-way L1 whose sets fill with locks.
REPLACEMENT_INSTRUCTIONS = 20_000
LOCK_EVERY = 5
RELEASE_EVERY = 64
LIVE_OWNERS = 2
REPLACEMENT_L1 = ((32, 4), (2, 2))
#: Every shipped workload: the SPEC-like kernels and the family members.
TRACE_SUITES = (
    "spec_fp_like",
    "spec_int_like",
    "pointer_chase",
    "streaming",
    "branchy",
    "phased",
)


def _fig7_results(walk: str) -> Any:
    context = campaign_context(instructions=FIG7_INSTRUCTIONS, seed=GOLDEN_SEED)
    rows, baseline_ipc = context.run(fig7_speedups(context))
    return {"rows": to_jsonable(rows), "baseline_ipc": to_jsonable(baseline_ipc)}


def _family_sweep_results(walk: str) -> Any:
    context = campaign_context(instructions=FAMILY_INSTRUCTIONS, seed=GOLDEN_SEED)
    points = context.run(
        family_sweep(context, epoch_counts=(2, 16), locality_thresholds=(10, 90))
    )
    return to_jsonable(points)


def _protocol_machines() -> List[Any]:
    """The fourteen machines of the LSQ-protocol snapshot.

    The paper's seven configurations, the two restricted load-address
    models, both SVW machines with store checking, the Line ERT without
    the Store Queue Mirror, and the Line ERT over 4 KB and 2 KB
    direct-mapped L1s (the cases small enough to make L1 line locking stall
    and squash; on the 2 KB one a lock stall delays later work).
    """
    from repro.common.config import DisambiguationModel
    from repro.sim.configs import (
        PAPER_CONFIGS,
        fmc_elsq,
        fmc_hash_svw,
        fmc_line,
        ooo_64_svw,
    )
    from repro.sim.experiments import context_hierarchy

    return [factory() for factory in PAPER_CONFIGS.values()] + [
        fmc_elsq(disambiguation=DisambiguationModel.RESTRICTED_LAC, name="FMC-Hash-RLAC"),
        fmc_elsq(
            disambiguation=DisambiguationModel.RESTRICTED_SAC_LAC,
            name="FMC-Hash-RSAC-RLAC",
        ),
        ooo_64_svw(check_stores=True, name="OoO-64-SVW-10b-checked"),
        fmc_hash_svw(check_stores=True, name="FMC-Hash-SVW-10b-checked"),
        fmc_line(store_queue_mirror=False),
        fmc_line(name="FMC-Line-L1-4KB-DM").with_hierarchy(context_hierarchy(4, 1)),
        fmc_line(name="FMC-Line-L1-2KB-DM").with_hierarchy(context_hierarchy(2, 1)),
    ]


def _conflict_stream() -> Any:
    """A cold-cache stream that makes a conventional core violate and re-execute.

    First, :data:`CONFLICT_REPETITIONS` times: a load that misses, a store
    whose address depends on it, and a younger load of the store's bytes,
    which issues before the store's address is known (a violation; under an
    SVW a re-execution either way).  Then as often: a load that misses, a
    store whose address is ready early, and a younger load 8 KiB away, in
    the store's SSBF bucket but not its bytes (a blind SVW re-executes it; a
    CheckStores SVW sees no unresolved older store and does not).  Two ALU
    operations follow each triple.
    """
    from repro.isa.instruction import int_alu, load, store
    from repro.isa.trace import Trace

    instructions: List[Any] = []

    def add(factory: Callable[..., Any], *args: Any, **kwargs: Any) -> None:
        instructions.append(factory(len(instructions), *args, **kwargs))

    for early_address, base in ((False, 0x100000), (True, 0x200000)):
        for index in range(CONFLICT_REPETITIONS):
            target = base + 0x80000 + index * 64
            add(load, 1, base + index * 0x1000, srcs=(2,))
            add(store, target, srcs=(2, 1) if early_address else (1, 3))
            add(load, 4, target + 8 * 1024 if early_address else target, srcs=(2,))
            add(int_alu, 5, (5,))
            add(int_alu, 5, (5,))
    return Trace(instructions, name="conflicts")


def _protocol_results(walk: str) -> Any:
    """Cycles, committed instructions, counters and histograms per machine.

    The workload's cases are keyed by machine name, the conflict stream's
    by ``conflicts: <machine>``.
    """
    from repro.sim.simulator import Simulator
    from repro.workloads.base import SyntheticWorkload
    from repro.workloads.spec_fp import equake_like

    trace = SyntheticWorkload(equake_like(), seed=GOLDEN_SEED).generate(
        PROTOCOL_INSTRUCTIONS
    )
    results = {}
    for prefix, stream in (("", trace), ("conflicts: ", _conflict_stream())):
        for machine in _protocol_machines():
            result = Simulator(machine).run_trace(stream).to_dict()
            results[prefix + machine.name] = {
                field: result[field]
                for field in ("cycles", "committed_instructions", "counters", "histograms")
            }
    return results


def _replacement_stream() -> Tuple[Any, List[int]]:
    """The replacement campaign's trace and its load/store addresses."""
    from repro.isa.columns import CODE_LOAD, CODE_STORE
    from repro.workloads.base import SyntheticWorkload
    from repro.workloads.spec_int import mcf_like

    trace = SyntheticWorkload(mcf_like(), seed=GOLDEN_SEED).generate(
        REPLACEMENT_INSTRUCTIONS
    )
    columns = trace.columns()
    addresses = [
        address
        for code, address in zip(columns.iclass, columns.address)
        if code == CODE_LOAD or code == CODE_STORE
    ]
    return trace, addresses


def _drive_with_locks(
    addresses: List[int],
    access: Callable[[int], int],
    lock: Callable[[int, int], bool],
    release: Callable[[int], int],
) -> str:
    """Run ``addresses`` with the campaign's lock schedule.

    Every fifth access locks the line 0x40 bytes away for the current
    owner, and every 64 accesses the oldest live owner releases its locks,
    so :data:`LIVE_OWNERS` owners hold locks at a time.  Returns the
    SHA-256 of the outcome sequence: each access's latency and each lock's
    result.
    """
    digest = hashlib.sha256()
    for index, address in enumerate(addresses):
        digest.update(b"%d," % access(address))
        owner = index // RELEASE_EVERY
        if index % LOCK_EVERY == LOCK_EVERY - 1:
            digest.update(b"+" if lock(address ^ 0x40, owner) else b"-")
        if index % RELEASE_EVERY == RELEASE_EVERY - 1:
            release(owner + 1 - LIVE_OWNERS)
    return digest.hexdigest()


def _tag_rows_digest(cache: Any) -> str:
    """SHA-256 of every set's tag row (the policy's own capture is not pinned)."""
    rows = [row for row, _capture in cache.set_states()]
    return hashlib.sha256(json.dumps(rows).encode("ascii")).hexdigest()


def _replacement_results(walk: str) -> Any:
    """Counters, outcome digest and tag-row digests per policy and geometry.

    The five timing policies run through a :class:`MemoryHierarchy`, cold
    and warmed from the trace's region footprints; the warm-up is the
    reference replay under ``reference`` and the fast engine's first-touch
    warm state under ``fast``, so both must match one snapshot.  OPT runs
    on a single cache with the miss-ratio profiler's next-use oracle.
    """
    from repro.memory.hierarchy import MemoryHierarchy
    from repro.memory.replacement import TIMING_POLICY_NAMES
    from repro.sim.engine.fast import warm_hierarchy
    from repro.sim.experiments import context_hierarchy

    trace, addresses = _replacement_stream()
    results = {}
    for policy in TIMING_POLICY_NAMES:
        for size_kb, ways in REPLACEMENT_L1:
            for start in ("cold", "warm"):
                hierarchy = MemoryHierarchy(
                    context_hierarchy(size_kb, ways).with_policy(policy)
                )
                if start == "warm" and walk == "reference":
                    hierarchy.warm_up_regions(trace.regions)
                elif start == "warm":
                    warm_hierarchy(hierarchy, trace.regions)
                outcomes = _drive_with_locks(
                    addresses,
                    hierarchy.access,
                    hierarchy.lock_l1_line,
                    hierarchy.unlock_l1_owner,
                )
                results[f"{policy}, {size_kb} KB {ways}-way L1, {start}"] = {
                    "counters": hierarchy.stats.snapshot().counters,
                    "outcomes": outcomes,
                    "tag_rows": {
                        cache.config.name: _tag_rows_digest(cache)
                        for cache in (hierarchy.l1, hierarchy.l2)
                    },
                }
    for size_kb, ways in REPLACEMENT_L1:
        results[f"opt, {size_kb} KB {ways}-way L1, cold"] = _opt_result(
            addresses, size_kb, ways
        )
    return results


def _opt_result(addresses: List[int], size_kb: int, ways: int) -> Any:
    """One OPT case: a single cache driven by the profiler's next-use oracle."""
    from repro.common.config import CacheConfig
    from repro.common.stats import StatsRegistry
    from repro.memory.cache import SetAssociativeCache
    from repro.memory.mrc import next_use_positions

    lines = [address >> 5 for address in addresses]
    # A line's next reference at or after now, advanced before each access.
    upcoming: Dict[int, float] = {}
    for position in range(len(lines) - 1, -1, -1):
        upcoming[lines[position]] = position
    advance = iter(next_use_positions(lines))
    stats = StatsRegistry()
    cache = SetAssociativeCache(
        CacheConfig(
            size_bytes=size_kb * 1024,
            associativity=ways,
            line_size=32,
            latency=1,
            name="L1",
            replacement_policy="opt",
        ),
        stats,
        next_use=lambda line: upcoming.get(line, float("inf")),
    )

    def access(address: int) -> int:
        upcoming[address >> 5] = next(advance)
        return cache.access(address)

    outcomes = _drive_with_locks(addresses, access, cache.lock_line, cache.unlock_owner)
    return {
        "counters": stats.snapshot().counters,
        "outcomes": outcomes,
        "tag_rows": {"L1": _tag_rows_digest(cache)},
    }


#: Per case, the L1 events whose absence would leave a replacement path unpinned.
REPLACEMENT_EVENTS = ("hits", "misses", "evictions", "lines_locked")


def _replacement_gaps(results: Dict[str, Any]) -> List[str]:
    """Cases of the replacement snapshot that leave some path unexercised.

    Every case must hit, miss, evict and lock in its L1, and every case on
    the small L1 must run into lock conflicts.
    """
    gaps = []
    for case, result in results.items():
        counters = result["counters"]
        events = REPLACEMENT_EVENTS + (("lock_conflicts",) if " 2 KB " in case else ())
        gaps += [
            f"{case}: no L1.{event}" for event in events if not counters.get(f"L1.{event}")
        ]
    return gaps


def _trace_members() -> List[Any]:
    from repro.workloads.suite import suite_by_name

    return [member for suite in TRACE_SUITES for member in suite_by_name(suite)]


def _trace_content(walk: str) -> Any:
    """Column digests and region footprints of every shipped workload's trace.

    Generation does not depend on the walk; both parametrizations compare
    against the same digests.
    """
    from repro.isa.columns import COLUMN_LAYOUT
    from repro.workloads.base import SyntheticWorkload

    results = {}
    for member in _trace_members():
        traces = {}
        for seed in TRACE_SEEDS:
            for length in TRACE_LENGTHS:
                trace = SyntheticWorkload(member, seed=seed).generate(length)
                columns = trace.columns()
                traces[f"seed {seed}, {length} instructions"] = {
                    "columns": {
                        name: hashlib.sha256(columns.column_bytes(name)).hexdigest()
                        for name, _typecode, _itemsize in COLUMN_LAYOUT
                    },
                    "regions": to_jsonable(trace.regions),
                }
        results[member.name] = traces
    return results


#: One counter per verdict of the LSQ protocol.  Each must be non-zero in
#: some case of the protocol snapshot, or the snapshot pins nothing about
#: the handler that produces it.
PROTOCOL_VERDICTS = (
    "lsq.violations",
    "core.violation_squashes",
    "elsq.lock_squashes",
    "elsq.lock_stalls",
    "svw.reexecutions",
    "elsq.global_forwards",
    "elsq.local_forwards",
    "ert.false_positives",
    "fmc.rsac_migration_blocks",
    "fmc.rlac_migration_blocks",
    "sqm.accesses",
    "network.round_trips",
)


def _unexercised_verdicts(results: Dict[str, Any]) -> List[str]:
    """The verdict counters that are zero (or absent) in every case."""
    return [
        counter
        for counter in PROTOCOL_VERDICTS
        if not any(case["counters"].get(counter, 0) for case in results.values())
    ]


def _protocol_gaps(results: Dict[str, Any]) -> List[str]:
    """What the protocol snapshot's cases leave unpinned.

    Besides every verdict firing somewhere, the conflict stream must make
    OoO-64 violate and both conventional SVWs re-execute, the CheckStores
    one less often than the blind one (its filter must drop some loads).
    """
    gaps = [f"no case exercises {verdict}" for verdict in _unexercised_verdicts(results)]
    counters = {
        name: results[f"conflicts: {name}"]["counters"]
        for name in ("OoO-64", "OoO-64-SVW-10b", "OoO-64-SVW-10b-checked")
    }
    if not counters["OoO-64"].get("lsq.violations"):
        gaps.append("OoO-64 never violates on the conflict stream")
    blind = counters["OoO-64-SVW-10b"].get("svw.reexecutions", 0)
    checked = counters["OoO-64-SVW-10b-checked"].get("svw.reexecutions", 0)
    if not 0 < checked < blind:
        gaps.append(
            f"on the conflict stream the CheckStores SVW re-executes {checked} loads "
            f"and the blind one {blind}; want 0 < checked < blind"
        )
    return gaps


def _service_documents(walk: str) -> Any:
    """``GET /v1/stats`` and ``GET /v1/healthz`` after a scripted history.

    The script drives admission, cross-tenant coalescing, both rejection
    kinds and dispatch through a real :class:`JobManager`, then records
    latencies that are powers of two (each sits exactly on a bucket bound,
    so every percentile is exact).  The documents do not depend on the
    walk; both parametrizations compare against the same wire shape.
    """
    from repro.common.errors import ServiceOverloadedError
    from repro.exp.request import JobRequest
    from repro.service.jobs import JobManager
    from repro.service.tenancy import TenancyConfig, TenantSpec

    tenancy = TenancyConfig(
        tenants=(
            TenantSpec("alpha", weight=3.0, max_queued=2, token="s3cret"),
            TenantSpec("beta", max_inflight=1),
        )
    )
    manager = JobManager(workers=2, queue_limit=5, tenancy=tenancy)

    def submit(tenant: Any, seed: int, priority: str = "batch") -> None:
        request = JobRequest(figure="sec52", seed=seed)
        try:
            manager.submit(request, tenant=tenant, priority=priority)
        except ServiceOverloadedError:
            pass

    submit("alpha", 1)
    submit("alpha", 2, "interactive")
    submit("alpha", 3)  # alpha's quota: rejected
    submit("alpha", 8)  # ... twice
    submit("beta", 1)  # identical work: coalesced with alpha's job
    submit("beta", 4)
    submit("gamma", 5)  # an unconfigured tenant on the open roster
    submit(None, 6)  # the default tenant
    submit("beta", 7)  # the server-wide queue is full: rejected
    first, _ = manager.scheduler.pick()
    manager.scheduler.pick()
    manager.scheduler.release(first)
    alpha = manager.scheduler.accounting("alpha")
    for seconds in (0.25, 0.5, 2.0):
        alpha.queue_wait.record(seconds)
    alpha.service_time.record(1.0)
    alpha.add_sims(3, 1)
    manager.scheduler.accounting("beta").queue_wait.record(0.125)

    stats = manager.stats_document()
    health = manager.health()
    stats["uptime_seconds"] = 0.0
    for volatile in ("uptime_seconds", "started_at", "version"):
        health[volatile] = None
    return {"stats": stats, "health": health}


#: The walks every golden runs under: the processors' own ``run`` and the
#: fast engine.  The snapshots are walk-agnostic: the fast engine must
#: reproduce the reference numbers bit for bit, so both parametrizations
#: compare against the *same* file -- numeric drift of the optimised loop
#: cannot land silently.
WALKS = ("reference", "fast")


class _ReferenceWalk:
    """Registered as the default engine: every simulation takes the built
    processor's own ``run``, through the same campaign, runner and
    simulator as a user's figure."""

    name = DEFAULT_ENGINE

    def run(self, machine: Any, trace: Any) -> Any:
        return machine.build().run(trace)


@contextmanager
def _simulations_walk(walk: str) -> Iterator[None]:
    """Route every in-process simulation through ``walk`` while open."""
    if walk == "fast":
        yield
        return
    fast = engine_by_name(DEFAULT_ENGINE)
    register_engine(_ReferenceWalk())
    try:
        yield
    finally:
        register_engine(fast)

#: name -> (snapshot file, campaign descriptor, result builder).
GOLDENS: Dict[str, Tuple[str, Dict[str, Any], Callable[[str], Any]]] = {
    "fig7": (
        "fig7_quick.json",
        {
            "experiment": "fig7",
            "suites": ["spec_fp_quick", "spec_int_quick"],
            "instructions_per_workload": FIG7_INSTRUCTIONS,
            "seed": GOLDEN_SEED,
        },
        _fig7_results,
    ),
    "family-sweep": (
        "family_sweep_quick.json",
        {
            "experiment": "family-sweep",
            "families": ["pointer_chase", "streaming", "branchy", "phased"],
            "epoch_counts": [2, 16],
            "locality_thresholds": [10, 90],
            "instructions_per_workload": FAMILY_INSTRUCTIONS,
            "seed": GOLDEN_SEED,
        },
        _family_sweep_results,
    ),
    "lsq-protocol": (
        "lsq_protocol_quick.json",
        {
            "experiment": "lsq-protocol",
            "machines": [machine.name for machine in _protocol_machines()],
            "workload": "equake_like",
            "instructions": PROTOCOL_INSTRUCTIONS,
            "seed": GOLDEN_SEED,
            "conflict_stream": (
                f"{CONFLICT_REPETITIONS} x (missing load, store addressed by it, "
                "younger load of its bytes), then "
                f"{CONFLICT_REPETITIONS} x (missing load, store with a ready address, "
                "younger load 8 KiB away); two ALU ops after each triple"
            ),
        },
        _protocol_results,
    ),
    "replacement-policies": (
        "replacement_policies.json",
        {
            "experiment": "replacement-policies",
            "workload": "mcf_like",
            "instructions": REPLACEMENT_INSTRUCTIONS,
            "seed": GOLDEN_SEED,
            "lock": f"line at address ^ 0x40 on every {LOCK_EVERY}th access",
            "release": f"one owner every {RELEASE_EVERY} accesses, {LIVE_OWNERS} live",
            "l1": [f"{size_kb} KB {ways}-way" for size_kb, ways in REPLACEMENT_L1],
            "starts": ["cold", "warm"],
            "pins": [
                "every counter",
                "sha256 of each access's latency and each lock's result",
                "sha256 of every set's tag row",
            ],
        },
        _replacement_results,
    ),
    "trace-content": (
        "trace_content.json",
        {
            "experiment": "trace-content",
            "workloads": [member.name for member in _trace_members()],
            "instructions": list(TRACE_LENGTHS),
            "seeds": list(TRACE_SEEDS),
            "pins": ["sha256 of each column's bytes", "region footprints"],
        },
        _trace_content,
    ),
    "service-stats": (
        "service_stats_v2.json",
        {"documents": ["GET /v1/stats", "GET /v1/healthz"], "stats_schema": 2},
        _service_documents,
    ),
}


#: name -> what a snapshot's results leave unexercised; a snapshot with gaps
#: is never written.
COVERAGE_GAPS: Dict[str, Callable[[Dict[str, Any]], List[str]]] = {
    "lsq-protocol": _protocol_gaps,
    "replacement-policies": _replacement_gaps,
}


def _canonical(document: Any) -> Any:
    """Normalise through a JSON round trip (tuples->lists, key order)."""
    return json.loads(json.dumps(document, sort_keys=True))


@pytest.mark.parametrize("walk", WALKS)
@pytest.mark.parametrize("name", sorted(GOLDENS))
def test_golden_numerics(name: str, walk: str, regen_golden: bool) -> None:
    filename, campaign, builder = GOLDENS[name]
    path = GOLDEN_DIR / filename
    with _simulations_walk(walk):
        document = _canonical({"campaign": campaign, "results": builder(walk)})
    if regen_golden:
        if walk != "reference":
            pytest.skip("snapshots are regenerated from the reference walk only")
        if name in COVERAGE_GAPS:
            gaps = COVERAGE_GAPS[name](document["results"])
            assert not gaps, f"refusing to write {filename}: {gaps}"
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    assert path.is_file(), (
        f"golden snapshot {path} is missing; create it with "
        f"`python -m pytest tests/test_golden.py --regen-golden`"
    )
    expected = json.loads(path.read_text())
    assert document["campaign"] == expected["campaign"], (
        f"{name}: the golden campaign description changed; regenerate the "
        f"snapshot deliberately with --regen-golden"
    )
    assert document["results"] == expected["results"], (
        f"{name}: numerics drifted from {path.name}; if the change is "
        f"intentional, regenerate with --regen-golden and review the diff"
    )


def test_protocol_snapshot_exercises_every_verdict() -> None:
    """Every LSQ-protocol verdict fires in at least one pinned case, and the
    conflict stream reaches the conventional violation and CheckStores paths."""
    filename = GOLDENS["lsq-protocol"][0]
    results = json.loads((GOLDEN_DIR / filename).read_text())["results"]
    assert _protocol_gaps(results) == []


def test_replacement_snapshot_exercises_every_case() -> None:
    """Every replacement case hits, misses, evicts and locks; small L1s conflict."""
    filename = GOLDENS["replacement-policies"][0]
    results = json.loads((GOLDEN_DIR / filename).read_text())["results"]
    assert len(results) == 22
    assert _replacement_gaps(results) == []


def test_goldens_have_no_orphan_snapshots() -> None:
    """Every file in tests/golden/ belongs to a registered golden."""
    known = {filename for filename, _, _ in GOLDENS.values()}
    on_disk = {path.name for path in GOLDEN_DIR.glob("*.json")}
    assert on_disk == known
