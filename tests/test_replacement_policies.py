"""The replacement-policy registry: contracts every implementation obeys.

Three layers of guarantees:

* **Registry contract** -- a cache under every policy keeps its locked
  lines resident, and a lock fails exactly when every way of the set holds
  a locked line; every policy reaches the same state through its
  closed-form ``fill_fresh`` as through replayed fills.
  The lock property is checked under *randomised* access/lock/unlock
  interleavings on a tiny cache, the same harness for all six policies,
  OPT included (driven by a deterministic fake oracle).
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
from repro.common.errors import ConfigurationError
from repro.common.stats import StatsRegistry
from repro.exp.request import JobRequest
from repro.exp.runner import SimJob, job_key
from repro.memory.cache import SetAssociativeCache
from repro.memory.replacement import (
    POLICY_NAMES,
    TIMING_POLICY_NAMES,
    ReplacementPolicy,
    policy_factory,
    validate_policy_name,
)
from repro.sim.configs import fmc_hash
from repro.workloads.suite import quick_fp_suite

ASSOCIATIVITY = 4
LINE = 32


def _policy_cache(name: str, sets: int = 1) -> SetAssociativeCache:
    """A tiny cache under any registry policy; OPT gets a deterministic fake oracle."""
    config = CacheConfig(
        size_bytes=ASSOCIATIVITY * sets * LINE,
        associativity=ASSOCIATIVITY,
        line_size=LINE,
        latency=1,
        name="tiny",
        replacement_policy=name,
    )
    # Reuse distance proportional to the line number: line 0 is reused
    # soonest, high lines latest -- deterministic and discriminating.
    return SetAssociativeCache(config, next_use=lambda line: float(line))


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
        policy_factory("opt", ASSOCIATIVITY)  # no oracle -> offline only


@pytest.mark.parametrize("name", POLICY_NAMES)
def test_victim_never_locked_under_random_interleavings(name: str) -> None:
    """Shared lock-safety property, same harness for every policy.

    Random accesses, locks and owner releases on a two-set cache: every
    locked line stays resident, and ``lock_line`` fails exactly when every
    way of the target set holds a locked line.
    """
    rng = random.Random(name)
    sets = 2
    cache = _policy_cache(name, sets)
    owners: dict = {}  # line -> owners holding a lock on it
    for step in range(1_500):
        action = rng.random()
        line = rng.randrange(6 * sets * ASSOCIATIVITY)
        if action < 0.5:
            cache.access(line * LINE)
        elif action < 0.8:
            owner = rng.randrange(4)
            same_set = [held for held in owners if held % sets == line % sets]
            full = line not in owners and len(same_set) == ASSOCIATIVITY
            assert cache.lock_line(line * LINE, owner) is not full, (name, step)
            if not full:
                owners.setdefault(line, set()).add(owner)
        else:
            owner = rng.randrange(4)
            cache.unlock_owner(owner)
            for held in list(owners):
                owners[held].discard(owner)
                if not owners[held]:
                    del owners[held]
        assert cache.locked_line_count() == len(owners)
        for held in owners:
            assert cache.probe(held * LINE), f"{name} evicted locked line at step {step}"


@pytest.mark.parametrize("name", POLICY_NAMES)
def test_all_locked_set_yields_no_victim(name: str) -> None:
    cache = _policy_cache(name)
    for owner in range(ASSOCIATIVITY):
        assert cache.lock_line(owner * LINE, owner)
    assert cache.lock_line(9 * LINE, owner=9) is False
    assert cache.access(9 * LINE) is False
    assert not cache.probe(9 * LINE)
    cache.unlock_owner(2)
    assert cache.lock_line(9 * LINE, owner=9)
    resident = [cache.probe(line * LINE) for line in range(ASSOCIATIVITY)]
    assert resident == [True, True, False, True]


@pytest.mark.parametrize("name", TIMING_POLICY_NAMES)
def test_fill_fresh_closed_form_matches_the_replay(name: str) -> None:
    """Each policy's closed form equals the base class's fill-by-fill replay."""

    def lines(lo: int, hi: int):
        return [1000 + 37 * fill for fill in range(lo, hi)]

    for associativity in range(1, 9):
        new_policy = policy_factory(name, associativity)
        for fills in range(4 * associativity + 2):
            closed, replayed = new_policy(), new_policy()
            closed_row = [None] * associativity
            replayed_row = [None] * associativity
            closed.fill_fresh(closed_row, fills, lines)
            ReplacementPolicy.fill_fresh(replayed, replayed_row, fills, lines)
            assert closed_row == replayed_row, (associativity, fills)
            assert closed.capture() == replayed.capture(), (associativity, fills)


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
