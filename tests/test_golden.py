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

The LSQ-protocol snapshot pins every counter and histogram of thirteen
machines over one workload.  The LSQ policies, the ERTs, the SVW and the
memory hierarchy are shared by both engines, so ``tests/differential``
cannot see a change to them; this snapshot can, and
:func:`test_protocol_snapshot_exercises_every_verdict` keeps it from
pinning a set of cases in which some verdict never fires.

Regenerating after an intentional change::

    PYTHONPATH=src python -m pytest tests/test_golden.py --regen-golden
    git diff tests/golden/   # review the numeric drift, then commit

The comparison runs on every push in CI (the ``golden-drift`` job), so an
accidental numerics change cannot land silently.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple

import pytest

from repro.common.serialize import to_jsonable
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
#: The trace-content campaign: shorter than the eight base-register seeds,
#: ``sweep-short``'s length and the quick campaign's length.
TRACE_LENGTHS = (5, 1_500, 8_000)
TRACE_SEEDS = (1, GOLDEN_SEED)
#: Every shipped workload: the SPEC-like kernels and the family members.
TRACE_SUITES = (
    "spec_fp_like",
    "spec_int_like",
    "pointer_chase",
    "streaming",
    "branchy",
    "phased",
)


def _fig7_results(engine: str) -> Any:
    context = campaign_context(
        instructions=FIG7_INSTRUCTIONS, seed=GOLDEN_SEED, engine=engine
    )
    rows, baseline_ipc = fig7_speedups(context)
    return {"rows": to_jsonable(rows), "baseline_ipc": to_jsonable(baseline_ipc)}


def _family_sweep_results(engine: str) -> Any:
    context = campaign_context(
        instructions=FAMILY_INSTRUCTIONS, seed=GOLDEN_SEED, engine=engine
    )
    points = family_sweep(
        context, epoch_counts=(2, 16), locality_thresholds=(10, 90)
    )
    return to_jsonable(points)


def _protocol_machines() -> List[Any]:
    """The thirteen machines of the LSQ-protocol snapshot.

    The paper's seven configurations, the two restricted load-address
    models, both SVW machines with store checking, the Line ERT without
    the Store Queue Mirror, and the Line ERT over a 4 KB direct-mapped L1
    (the only case small enough to make L1 line locking stall and squash).
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
    ]


def _protocol_results(engine: str) -> Any:
    """Cycles, committed instructions, counters and histograms per machine."""
    from repro.sim.simulator import Simulator
    from repro.workloads.base import SyntheticWorkload
    from repro.workloads.spec_fp import equake_like

    trace = SyntheticWorkload(equake_like(), seed=GOLDEN_SEED).generate(
        PROTOCOL_INSTRUCTIONS
    )
    results = {}
    for machine in _protocol_machines():
        result = Simulator(machine.with_engine(engine)).run_trace(trace).to_dict()
        results[machine.name] = {
            field: result[field]
            for field in ("cycles", "committed_instructions", "counters", "histograms")
        }
    return results


def _trace_members() -> List[Any]:
    from repro.workloads.suite import suite_by_name

    return [member for suite in TRACE_SUITES for member in suite_by_name(suite)]


def _trace_content(engine: str) -> Any:
    """Column digests and region footprints of every shipped workload's trace.

    Generation does not depend on the engine; both parametrizations compare
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


def _service_documents(engine: str) -> Any:
    """``GET /v1/stats`` and ``GET /v1/healthz`` after a scripted history.

    The script drives admission, cross-tenant coalescing, both rejection
    kinds and dispatch through a real :class:`JobManager`, then records
    latencies that are powers of two (each sits exactly on a bucket bound,
    so every percentile is exact).  The documents do not depend on the
    engine; both parametrizations compare against the same wire shape.
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
        request = JobRequest(figure="sec52", seed=seed, tenant=tenant, priority=priority)
        try:
            manager.submit(request)
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


#: Engines every golden runs under.  The snapshots themselves are
#: engine-agnostic: the fast engine must reproduce the reference numbers bit
#: for bit, so both parametrizations compare against the *same* file --
#: numeric drift of the optimised loop cannot land silently.
ENGINES = ("reference", "fast")

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
        },
        _protocol_results,
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


def _canonical(document: Any) -> Any:
    """Normalise through a JSON round trip (tuples->lists, key order)."""
    return json.loads(json.dumps(document, sort_keys=True))


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("name", sorted(GOLDENS))
def test_golden_numerics(name: str, engine: str, regen_golden: bool) -> None:
    filename, campaign, builder = GOLDENS[name]
    path = GOLDEN_DIR / filename
    document = _canonical({"campaign": campaign, "results": builder(engine)})
    if regen_golden:
        if engine != "reference":
            pytest.skip("snapshots are regenerated from the reference engine only")
        if name == "lsq-protocol":
            unexercised = _unexercised_verdicts(document["results"])
            assert not unexercised, (
                f"refusing to write {filename}: no case exercises {unexercised}"
            )
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
    """Every LSQ-protocol verdict fires in at least one pinned case."""
    filename = GOLDENS["lsq-protocol"][0]
    results = json.loads((GOLDEN_DIR / filename).read_text())["results"]
    assert _unexercised_verdicts(results) == []


def test_goldens_have_no_orphan_snapshots() -> None:
    """Every file in tests/golden/ belongs to a registered golden."""
    known = {filename for filename, _, _ in GOLDENS.values()}
    on_disk = {path.name for path in GOLDEN_DIR.glob("*.json")}
    assert on_disk == known
