"""A set-associative cache with line locking.

:class:`SetAssociativeCache` models tag state (which lines are resident), a
pluggable replacement policy (``CacheConfig.replacement_policy``, resolved
once per cache through :func:`repro.memory.replacement.policy_factory`) and
the per-line *lock* bookkeeping required by the line-based Epoch Resolution
Table.  It does not model data contents -- the simulator is trace driven --
only residency, which is all the timing and filtering models need.

Locking semantics (Section 3.4 of the paper):

* A line may be locked by one or more *owners* (epochs).  A locked line is
  never chosen as a replacement victim.  The cache keeps the only record of
  locks and applies the rule itself: a policy lists a set's ways in
  eviction order, and the cache replaces the first listed way whose line is
  not locked.
* Locking a non-resident line first allocates it ("the data need not be
  available").  If every way of the target set holds a locked line the
  allocation fails and the caller must stall or squash -- the cache reports
  this by returning False from :meth:`SetAssociativeCache.lock_line`.
* When an epoch commits, :meth:`SetAssociativeCache.unlock_owner` clears all
  of its locks in one sweep, mirroring how clearing the epoch's ERT column
  implicitly unlocks its lines.

Sets are built on first touch.  A new cache holds no per-set objects; the
first access, probe or lock that reaches a set creates its tag row and
replacement state.  A warm-up handed over as runs of line fills
(:meth:`SetAssociativeCache.warm_fill`) is applied the same way: each set
starts from its share of the fills, computed in closed form, so warming and
building cost O(sets touched) rather than O(sets).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Optional, Set, Tuple

from repro.common.config import CacheConfig
from repro.common.stats import StatsRegistry
from repro.memory.replacement import ReplacementPolicy, TagRow, policy_factory


class SetAssociativeCache:
    """Tag-state model of one cache level.

    Parameters
    ----------
    config:
        Geometry and latency of the cache.
    stats:
        Optional statistics registry; access counters are recorded under
        ``{name}.hits``, ``{name}.misses``, ``{name}.evictions`` and
        ``{name}.lock_conflicts``.
    next_use:
        Future-reuse oracle required by the ``opt`` replacement policy
        (see :class:`repro.memory.replacement.OptState`); ignored by every
        online policy.  Constructing an ``opt`` cache without it raises
        :class:`~repro.common.errors.ConfigurationError`.
    """

    def __init__(
        self,
        config: CacheConfig,
        stats: Optional[StatsRegistry] = None,
        *,
        next_use: Optional[Callable[[int], float]] = None,
    ) -> None:
        #: Builds one set's replacement state (the policy is resolved once).
        self._new_policy = policy_factory(
            config.replacement_policy, config.associativity, next_use
        )
        self.config = config
        #: The registry's counter mapping, incremented in place.
        self._counts = (stats if stats is not None else StatsRegistry()).counts
        #: When False, accesses update tag/replacement state but record no
        #: statistics (used by the functional cache warm-up pass).
        self.stats_enabled = True
        self._num_sets = config.num_sets
        self._line_shift = config.line_size.bit_length() - 1
        # Counter names are fixed per cache; formatting them on every access
        # would dominate the (very hot) tag-probe path.
        self._hits_name = f"{config.name}.hits"
        self._misses_name = f"{config.name}.misses"
        self._evictions_name = f"{config.name}.evictions"
        self._lock_conflicts_name = f"{config.name}.lock_conflicts"
        self._lines_locked_name = f"{config.name}.lines_locked"
        #: per-set mapping from way index to resident line number (tag+index);
        #: ``None`` until the set is first touched (see :meth:`_materialise`).
        self._tags: List[Optional[TagRow]] = [None] * self._num_sets
        #: per-set replacement state, created together with the tag row.
        self._policies: List[Optional[ReplacementPolicy]] = [None] * self._num_sets
        #: Warm-up fills every set applies its share of when it is built:
        #: (first line, line count) runs in fill order (see warm_fill).
        self._warm_runs: Tuple[Tuple[int, int], ...] = ()
        #: Whether no set exists yet and no warm-up is pending.
        self._fresh = True
        #: line number -> set of lock owners: the only record of locks.
        self._lock_owners: Dict[int, Set[int]] = {}

    # ------------------------------------------------------------------
    # Address arithmetic
    # ------------------------------------------------------------------

    def line_number(self, address: int) -> int:
        """Return the global line number containing ``address``."""
        return address >> self._line_shift

    # ------------------------------------------------------------------
    # Residency queries and accesses
    # ------------------------------------------------------------------

    def access(self, address: int) -> bool:
        """Access ``address``: update replacement state on a hit, allocate on a miss.

        Returns whether the access hit.
        """
        line = address >> self._line_shift
        set_index = line % self._num_sets
        row = self._tags[set_index]
        if row is None:
            row = self._materialise(set_index)
        try:
            way = row.index(line)
        except ValueError:
            way = -1
        if way >= 0:
            self._policies[set_index].touch(way)
            if self.stats_enabled:
                self._counts[self._hits_name] += 1
            return True
        if self.stats_enabled:
            self._counts[self._misses_name] += 1
        self._allocate(line, set_index)
        return False

    def probe(self, address: int) -> bool:
        """Whether the line containing ``address`` is resident.

        Updates no replacement state and allocates nothing.
        """
        return self._find_way(address) is not None

    # ------------------------------------------------------------------
    # Warm-up
    # ------------------------------------------------------------------

    def warm_fill(self, runs: Iterable[Tuple[int, int]]) -> None:
        """Fill the cache with runs of consecutive lines, recording no statistics.

        ``runs`` lists ``(first line, line count)`` pairs in fill order; the
        result equals accessing every line of every run in turn.  When the
        cache is untouched and no line repeats, every fill is a miss on a
        distinct line into a fresh, lock-free set, whose end state each
        policy computes in closed form (:meth:`ReplacementPolicy.fill_fresh`):
        the runs are then only recorded, and each set applies its share the
        first time it is touched.  Otherwise the runs are replayed now.
        """
        runs = tuple(runs)
        spans = sorted((first, first + count) for first, count in runs)
        disjoint = all(end <= start for (_, end), (start, _) in zip(spans, spans[1:]))
        if self._fresh and disjoint:
            self._warm_runs = runs
            self._fresh = False
            return
        enabled = self.stats_enabled
        self.stats_enabled = False
        try:
            for first, count in runs:
                for line in range(first, first + count):
                    self.access(line << self._line_shift)
        finally:
            self.stats_enabled = enabled

    def set_states(self) -> List[Tuple[Tuple[Optional[int], ...], Any]]:
        """Every set's ``(tag row, replacement capture())``, in set order.

        A read-only view: a set not touched yet reports the state it would
        be built with and stays untouched.
        """
        states = []
        for set_index in range(self._num_sets):
            row = self._tags[set_index]
            policy = self._policies[set_index]
            if row is None:
                row, policy = self._build_set(set_index)
            states.append((tuple(row), policy.capture()))
        return states

    # ------------------------------------------------------------------
    # Line locking (line-based ERT support)
    # ------------------------------------------------------------------

    def lock_line(self, address: int, owner: int) -> bool:
        """Lock the line containing ``address`` on behalf of ``owner``.

        Allocates the line if it is not resident.  Returns False (a lock
        conflict) without changing any state when allocation is required but
        every way of the set holds a locked line, True once the line is
        locked.
        """
        line = address >> self._line_shift
        if self._find_way(address) is None and not self._allocate(
            line, line % self._num_sets
        ):
            if self.stats_enabled:
                self._counts[self._lock_conflicts_name] += 1
            return False
        owners = self._lock_owners.get(line)
        if owners is None:
            # The counter tracks *distinct* lines locked (the
            # locked_line_count semantics): bump only on the unlocked ->
            # locked transition, not when a locked line gains another owner.
            self._lock_owners[line] = {owner}
            if self.stats_enabled:
                self._counts[self._lines_locked_name] += 1
        else:
            owners.add(owner)
        return True

    def unlock_owner(self, owner: int) -> int:
        """Release every lock held by ``owner``; return the number released."""
        released = 0
        for line, owners in list(self._lock_owners.items()):
            if owner in owners:
                owners.discard(owner)
                released += 1
                if not owners:
                    del self._lock_owners[line]
        return released

    def is_locked(self, address: int) -> bool:
        """Whether the line containing ``address`` is locked by any owner."""
        return bool(self._lock_owners.get(self.line_number(address)))

    def locked_line_count(self) -> int:
        """Number of distinct lines currently locked."""
        return len(self._lock_owners)

    # ------------------------------------------------------------------
    # Internal helpers
    # ------------------------------------------------------------------

    def _materialise(self, set_index: int) -> TagRow:
        """Create a set on first touch; return its tag row."""
        row, policy = self._build_set(set_index)
        self._tags[set_index] = row
        self._policies[set_index] = policy
        self._fresh = False
        return row

    def _build_set(self, set_index: int) -> Tuple[TagRow, ReplacementPolicy]:
        """A set's tag row and replacement state after its pending warm-up fills.

        Run ``(first, count)`` puts into this set the lines ``start``,
        ``start + num_sets``, ... for ``start`` the run's first line in the
        set, so the set's fills are a few arithmetic progressions and any
        one of them is found in O(runs).
        """
        policy = self._new_policy()
        row: TagRow = [None] * self.config.associativity
        num_sets = self._num_sets
        progressions = []
        fills = 0
        for first, count in self._warm_runs:
            offset = (set_index - first) % num_sets
            if offset < count:
                share = (count - 1 - offset) // num_sets + 1
                progressions.append((first + offset, share))
                fills += share
        if not fills:
            return row, policy

        def lines(lo: int, hi: int) -> List[int]:
            picked: List[int] = []
            for start, share in progressions:
                if lo < share and hi > 0:
                    picked += range(
                        start + lo * num_sets if lo > 0 else start,
                        start + (hi if hi < share else share) * num_sets,
                        num_sets,
                    )
                lo -= share
                hi -= share
            return picked

        policy.fill_fresh(row, fills, lines)
        return row, policy

    def _find_way(self, address: int) -> Optional[int]:
        line = address >> self._line_shift
        set_index = line % self._num_sets
        row = self._tags[set_index]
        if row is None:
            row = self._materialise(set_index)
        try:
            return row.index(line)
        except ValueError:
            return None

    def _allocate(self, line: int, set_index: int) -> bool:
        """Allocate ``line`` in its (materialised) set; False when every way is locked.

        The model's only lock check: the victim is the first way, in the
        policy's eviction order, whose resident line is not locked.
        """
        row = self._tags[set_index]
        policy = self._policies[set_index]
        locked = self._lock_owners
        for way in policy.eviction_order(row):
            evicted = row[way]
            if evicted not in locked:
                break
        else:
            return False
        if evicted is not None and self.stats_enabled:
            self._counts[self._evictions_name] += 1
        row[way] = line
        policy.insert(way, line, evicted)
        return True
