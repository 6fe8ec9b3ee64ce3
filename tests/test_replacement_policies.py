"""The replacement-policy registry: contracts every implementation obeys.

Three layers of guarantees:

* **Registry contract** -- every policy respects locks (``victim()`` never
  names a locked way, an all-locked set yields ``None``), validates way
  indices, and reaches the same state through its closed-form
  ``fill_fresh`` as through replayed fills.
  The lock property is checked under *randomised* access/lock
  interleavings shared across all six implementations, OPT included
  (driven by a deterministic fake oracle).
* **Cache integration** -- the policy is part of cache identity: it flows
  into the job content address, the request coalescing key, and the CLI
  campaign; ``lines_locked`` counts first-lock transitions only.
* **MRC profiler** -- Belady's OPT lower-bounds every policy on every
  workload family, and the LRU/OPT curves are non-increasing in capacity.
"""

from __future__ import annotations

import random

import pytest

from repro.common.config import CacheConfig
from repro.common.errors import ConfigurationError, SimulationError
from repro.common.stats import StatsRegistry
from repro.exp.request import JobRequest
from repro.exp.runner import SimJob, job_key
from repro.memory.cache import SetAssociativeCache
from repro.memory.replacement import (
    POLICY_NAMES,
    TIMING_POLICY_NAMES,
    ReplacementPolicy,
    create_policy,
    validate_policy_name,
)
from repro.sim.configs import fmc_hash
from repro.workloads.suite import quick_fp_suite

ASSOCIATIVITY = 4


def _make_policy(name: str, associativity: int = ASSOCIATIVITY):
    """Instantiate any registry policy; OPT gets a deterministic fake oracle."""
    if name == "opt":
        # Reuse distance proportional to the line number: line 0 is reused
        # soonest, high lines latest -- deterministic and discriminating.
        return create_policy(name, associativity, next_use=lambda line: float(line))
    return create_policy(name, associativity)


# ----------------------------------------------------------------------
# Registry contract
# ----------------------------------------------------------------------


def test_registry_names_and_validation() -> None:
    assert set(TIMING_POLICY_NAMES) < set(POLICY_NAMES)
    assert "opt" in POLICY_NAMES and "opt" not in TIMING_POLICY_NAMES
    for name in POLICY_NAMES:
        assert validate_policy_name(name) == name
    with pytest.raises(ConfigurationError):
        validate_policy_name("mru")
    with pytest.raises(ConfigurationError):
        validate_policy_name("opt", timing_only=True)
    with pytest.raises(ConfigurationError):
        create_policy("opt", ASSOCIATIVITY)  # no oracle -> offline only


@pytest.mark.parametrize("name", POLICY_NAMES)
def test_victim_never_locked_under_random_interleavings(name: str) -> None:
    """Shared lock-safety property, same harness for every implementation."""
    rng = random.Random(hash(name) & 0xFFFF)
    policy = _make_policy(name)
    locked = set()
    for step in range(600):
        action = rng.random()
        way = rng.randrange(ASSOCIATIVITY)
        if action < 0.4:
            policy.touch(way)
        elif action < 0.6:
            policy.insert(way, line=rng.randrange(64))
        elif action < 0.8:
            policy.lock(way)
            locked.add(way)
        elif locked:
            unlock = rng.choice(sorted(locked))
            policy.unlock(unlock)
            locked.discard(unlock)
        victim = policy.victim()
        if len(locked) == ASSOCIATIVITY:
            assert victim is None
        else:
            assert victim is not None
            assert victim not in locked, f"{name} evicted locked way at step {step}"


@pytest.mark.parametrize("name", POLICY_NAMES)
def test_all_locked_set_yields_no_victim(name: str) -> None:
    policy = _make_policy(name)
    for way in range(ASSOCIATIVITY):
        policy.lock(way)
    assert policy.victim() is None
    policy.unlock(2)
    assert policy.victim() == 2


@pytest.mark.parametrize("name", TIMING_POLICY_NAMES)
def test_fill_fresh_closed_form_matches_the_replay(name: str) -> None:
    """Each policy's closed form equals victim()/insert() replayed fill by fill."""

    def lines(lo: int, hi: int):
        return [1000 + 37 * fill for fill in range(lo, hi)]

    for associativity in range(1, 9):
        for fills in range(4 * associativity + 2):
            closed = create_policy(name, associativity)
            replayed = create_policy(name, associativity)
            row = closed.fill_fresh(fills, lines)
            assert row == ReplacementPolicy.fill_fresh(replayed, fills, lines)
            assert closed.capture() == replayed.capture(), (associativity, fills)


@pytest.mark.parametrize("name", POLICY_NAMES)
def test_way_validation(name: str) -> None:
    policy = _make_policy(name)
    with pytest.raises(SimulationError):
        policy.touch(ASSOCIATIVITY)
    with pytest.raises(SimulationError):
        policy.lock(-1)


# ----------------------------------------------------------------------
# Cache integration
# ----------------------------------------------------------------------


def _tiny_cache(policy: str = "lru"):
    config = CacheConfig(
        size_bytes=2 * 32 * 4,
        associativity=2,
        line_size=32,
        latency=1,
        name="l1",
        replacement_policy=policy,
    )
    stats = StatsRegistry()
    return SetAssociativeCache(config, stats), stats


def test_lines_locked_counts_first_lock_transitions_only() -> None:
    """Regression: a second owner on a resident line must not double-count.

    Pre-fix, ``lock_line`` bumped ``lines_locked`` once per *owner*, so a
    line shared by two epochs inflated the occupancy statistic even though
    only one line was pinned.
    """
    cache, stats = _tiny_cache()
    cache.access(0)
    cache.lock_line(0, owner=1)
    cache.lock_line(0, owner=2)  # same line, second owner: no new lock
    assert stats.value("l1.lines_locked") == 1
    cache.access(4096)
    cache.lock_line(4096, owner=1)
    assert stats.value("l1.lines_locked") == 2


def test_unknown_policy_rejected_at_config_time() -> None:
    with pytest.raises(ConfigurationError):
        CacheConfig(
            size_bytes=1024,
            associativity=2,
            line_size=32,
            latency=1,
            name="l1",
            replacement_policy="random",
        )


@pytest.mark.parametrize("policy", TIMING_POLICY_NAMES)
def test_cache_runs_under_every_timing_policy(policy: str) -> None:
    cache, stats = _tiny_cache(policy)
    for address in (0, 64, 128, 0, 192, 256, 64):
        cache.access(address)
    assert stats.value("l1.hits") + stats.value("l1.misses") == 7
    assert stats.value("l1.misses") >= 5  # five distinct lines were touched


def test_policy_changes_the_job_content_address() -> None:
    member = quick_fp_suite().members[0]
    base = SimJob(fmc_hash(), member, 1_000, 1)
    arc = SimJob(fmc_hash().with_policy("arc"), member, 1_000, 1)
    assert job_key(base) != job_key(arc)
    # with_policy is identity-preserving for the default.
    assert job_key(SimJob(fmc_hash().with_policy("lru"), member, 1_000, 1)) == job_key(base)


def test_policy_changes_the_request_coalescing_key() -> None:
    base = JobRequest(figure="fig7")
    assert JobRequest(figure="fig7", policy="arc").key() != base.key()
    # None means the LRU default: both spellings coalesce.
    assert JobRequest(figure="fig7", policy="lru").key() == base.key()
    with pytest.raises(ConfigurationError):
        JobRequest(figure="fig7", policy="opt").normalized()  # offline only
    with pytest.raises(ConfigurationError):
        member = quick_fp_suite().members[0]
        JobRequest(cases=(SimJob(fmc_hash(), member, 1_000, 1),), policy="arc")


def test_request_policy_survives_the_wire() -> None:
    request = JobRequest(figure="fig7", policy="2q")
    assert JobRequest.from_dict(request.to_dict()) == request
    assert JobRequest.from_dict({"figure": "fig7"}).policy is None  # old payloads
