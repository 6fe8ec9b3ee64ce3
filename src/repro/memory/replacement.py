"""Lock-aware replacement policies for set-associative caches.

The line-based Epoch Resolution Table (Section 3.4 of the paper) requires
that every line referenced by an address-known low-locality memory
instruction stay resident in the L1 until its epoch commits.  The paper
implements this by letting the replacement algorithm skip locked lines:

    "Locking cache lines does not involve any additional structures as the
    replacement algorithm can take care of everything.  It will only replace
    lines for which there are no active bits in the ERT."

The paper evaluates LRU only, but the locking contract is a property of the
*replacement interface*, not of any one algorithm: any policy that never
returns a locked way from :meth:`ReplacementPolicy.victim` satisfies it.
This module therefore defines the abstract lock-aware contract, a registry
of implementations (:data:`POLICY_NAMES`, :func:`create_policy`) and six
policies:

* ``lru`` -- :class:`LruState`, the paper's policy (bit-identical to the
  original single-policy implementation);
* ``fifo`` -- :class:`FifoState`, eviction in insertion order;
* ``lfu`` -- :class:`LfuState`, least frequently used with deterministic
  lowest-way tie-breaking;
* ``2q`` -- :class:`TwoQState`, a probationary FIFO (A1) feeding a
  protected LRU list (Am) on reuse;
* ``arc`` -- :class:`ArcState`, adaptive replacement with per-set ghost
  lists of recently evicted line numbers;
* ``opt`` -- :class:`OptState`, Belady's offline optimum.  It needs a
  future-reuse oracle, so it is only constructible where one exists (the
  miss-ratio-curve profiler's two-pass sweep, :mod:`repro.memory.mrc`);
  :func:`create_policy` without an oracle rejects it.

Every policy shares one locking substrate (:class:`ReplacementPolicy`):
``lock``/``unlock`` toggle per-way lock bits and every ``victim``
implementation skips locked ways symmetrically, returning ``None`` when the
whole set is locked (the caller falls back to the paper's stall / squash
handling).  ``capture`` snapshots the policy's decision state.

``fill_fresh`` puts a fresh, lock-free set straight into the state a run of
misses on distinct lines leaves it in -- the shape of the region warm-up --
which is what lets a cache build each set's warm state on first touch
(:meth:`repro.memory.cache.SetAssociativeCache.warm_fill`).  Every online
policy has a closed form that reads only the handful of fills its end state
depends on; the base class replays the fills, which is exact for any policy.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple, Type

from repro.common.errors import ConfigurationError, SimulationError

#: ``lines(lo, hi)`` -> the lines of a set's fills ``lo`` .. ``hi - 1``,
#: oldest first (the argument :meth:`ReplacementPolicy.fill_fresh` reads).
FillLines = Callable[[int, int], List[int]]

#: Every registered policy name, in registry order.
POLICY_NAMES: Tuple[str, ...] = ("lru", "fifo", "lfu", "2q", "arc", "opt")

#: The policies a *timing* cache can run online.  ``opt`` needs future
#: knowledge of the reference stream, which only the two-pass miss-ratio
#: profiler has; an online simulation asking for it is a configuration
#: error, not a silent approximation.
TIMING_POLICY_NAMES: Tuple[str, ...] = ("lru", "fifo", "lfu", "2q", "arc")


class ReplacementPolicy:
    """Lock-aware replacement state of one cache set.

    Way indices run from 0 to ``associativity - 1``.  Subclasses implement
    the decision state (:meth:`touch`, :meth:`insert`, :meth:`victim`,
    :meth:`capture`); the locking substrate is shared so the "never evict a
    locked way" contract cannot drift per policy.
    """

    __slots__ = ("_locked",)

    #: Registry name of the policy (set per subclass).
    name = "abstract"

    def __init__(self, associativity: int) -> None:
        if associativity <= 0:
            raise ConfigurationError(f"associativity must be positive, got {associativity}")
        self._locked: List[bool] = [False] * associativity

    @property
    def associativity(self) -> int:
        """Number of ways tracked by this state."""
        return len(self._locked)

    # ------------------------------------------------------------------
    # Decision state (per policy)
    # ------------------------------------------------------------------

    def touch(self, way: int) -> None:
        """Record a hit on ``way`` (a reuse event)."""
        raise NotImplementedError

    def insert(self, way: int, line: Optional[int] = None) -> None:
        """Record a fill of ``way`` with ``line`` (a miss-allocation event).

        ``line`` is the global line number being installed; policies that
        key history by line identity (ARC's ghost lists, OPT's oracle
        lookups) need it, the others ignore it.
        """
        raise NotImplementedError

    def victim(self) -> Optional[int]:
        """Return the way to evict, never a locked one.

        Returns ``None`` when every way is locked, which callers must treat
        as a replacement conflict (the paper stalls insertion or squashes).
        """
        raise NotImplementedError

    def capture(self) -> Any:
        """Snapshot the decision state (lock bits are warm-up-free)."""
        raise NotImplementedError

    def fill_fresh(self, fills: int, lines: FillLines) -> List[Optional[int]]:
        """Apply ``fills`` misses on distinct lines to this fresh, lock-free set.

        Leaves the decision state exactly as ``fills`` rounds of
        ``victim()`` + ``insert()`` would, and returns the resulting tag row
        (way -> resident line, ``None`` for a way never filled).  ``lines``
        yields the filled lines by index (:data:`FillLines`).  This default
        replays every fill; the online policies override it with a closed
        form that costs O(associativity) whatever ``fills`` is.
        """
        row: List[Optional[int]] = [None] * len(self._locked)
        for line in lines(0, fills):
            way = self.victim()
            row[way] = line
            self.insert(way, line)
        return row

    # ------------------------------------------------------------------
    # Locking substrate (shared)
    # ------------------------------------------------------------------

    def lock(self, way: int) -> None:
        """Protect ``way`` against replacement."""
        self._validate_way(way)
        self._locked[way] = True

    def unlock(self, way: int) -> None:
        """Allow ``way`` to be replaced again."""
        self._validate_way(way)
        self._locked[way] = False

    def is_locked(self, way: int) -> bool:
        """Whether ``way`` is currently locked."""
        self._validate_way(way)
        return self._locked[way]

    def all_locked(self) -> bool:
        """Whether every way of the set is locked (no victim available)."""
        return all(self._locked)

    def _validate_way(self, way: int) -> None:
        if not 0 <= way < len(self._locked):
            raise SimulationError(
                f"way {way} out of range for a {len(self._locked)}-way set"
            )


class LruState(ReplacementPolicy):
    """Recency ordering of the ways of a single cache set (the paper's policy).

    The state tracks, for every way, its position in the recency stack
    (position 0 = most recently used); the victim is the least recently
    used unlocked way.
    """

    __slots__ = ("_order",)

    name = "lru"

    def __init__(self, associativity: int) -> None:
        super().__init__(associativity)
        #: recency stack: _order[0] is the most recently used way index.
        self._order: List[int] = list(range(associativity))

    def touch(self, way: int) -> None:
        """Mark ``way`` as the most recently used.

        This is the hottest method of the cache model, so the bounds check
        rides on the list search itself (a zero-cost ``try`` in the common
        case) instead of a separate validation pass per access.
        """
        order = self._order
        try:
            order.remove(way)
        except ValueError:
            self._validate_way(way)
            raise
        order.insert(0, way)

    def insert(self, way: int, line: Optional[int] = None) -> None:
        """A fill is a recency event: identical to :meth:`touch` for LRU."""
        self.touch(way)

    def victim(self) -> Optional[int]:
        for way in reversed(self._order):
            if not self._locked[way]:
                return way
        return None

    def capture(self) -> Tuple[int, ...]:
        return tuple(self._order)

    def fill_fresh(self, fills: int, lines: FillLines) -> List[Optional[int]]:
        # Victims come off the bottom of the stack, so fill j lands in way
        # (-1-j) mod a.  The stack is then the ways in order from (-n) mod a,
        # holding the newest fills and then the never-filled ways; the tag
        # row is that list rotated back into way order.
        assoc = len(self._locked)
        kept = min(fills, assoc)
        stacked: List[Optional[int]] = lines(fills - kept, fills)[::-1]
        stacked += [None] * (assoc - kept)
        start = -fills % assoc
        self._order = [*range(start, assoc), *range(start)]
        split = fills % assoc
        return stacked[split:] + stacked[:split]


def _round_robin_fill(
    assoc: int, fills: int, lines: FillLines
) -> Tuple[List[Optional[int]], List[int]]:
    """Tag row and oldest-first way order after fill j landed in way j mod a.

    The fill pattern of every policy whose fresh victim is the head of an
    in-order queue of ways (FIFO, 2Q's A1, ARC's T1).
    """
    kept = min(fills, assoc)
    # In queue order: the never-filled ways first, then the last fills; the
    # tag row is that list rotated back into way order.
    queued: List[Optional[int]] = [None] * (assoc - kept)
    queued += lines(fills - kept, fills)
    start = fills % assoc
    split = -fills % assoc
    return queued[split:] + queued[:split], [*range(start, assoc), *range(start)]


class FifoState(ReplacementPolicy):
    """First-in first-out: evict in fill order, hits never reorder."""

    __slots__ = ("_queue",)

    name = "fifo"

    def __init__(self, associativity: int) -> None:
        super().__init__(associativity)
        #: fill queue: _queue[0] is the oldest (next victim) way index.
        self._queue: List[int] = list(range(associativity))

    def touch(self, way: int) -> None:
        self._validate_way(way)  # hits do not reorder a FIFO

    def insert(self, way: int, line: Optional[int] = None) -> None:
        queue = self._queue
        try:
            queue.remove(way)
        except ValueError:
            self._validate_way(way)
            raise
        queue.append(way)

    def victim(self) -> Optional[int]:
        for way in self._queue:
            if not self._locked[way]:
                return way
        return None

    def capture(self) -> Tuple[int, ...]:
        return tuple(self._queue)

    def fill_fresh(self, fills: int, lines: FillLines) -> List[Optional[int]]:
        row, self._queue = _round_robin_fill(len(self._locked), fills, lines)
        return row


class LfuState(ReplacementPolicy):
    """Least frequently used, lowest-way tie-break.

    Frequency counts reset on fill (a new line does not inherit its way's
    history).  Ties pick the lowest way index so the policy is a pure
    function of the access sequence.
    """

    __slots__ = ("_counts",)

    name = "lfu"

    def __init__(self, associativity: int) -> None:
        super().__init__(associativity)
        self._counts: List[int] = [0] * associativity

    def touch(self, way: int) -> None:
        self._validate_way(way)
        self._counts[way] += 1

    def insert(self, way: int, line: Optional[int] = None) -> None:
        self._validate_way(way)
        self._counts[way] = 1

    def victim(self) -> Optional[int]:
        best: Optional[int] = None
        best_count = 0
        for way, count in enumerate(self._counts):
            if self._locked[way]:
                continue
            if best is None or count < best_count:
                best = way
                best_count = count
        return best

    def capture(self) -> Tuple[int, ...]:
        return tuple(self._counts)

    def fill_fresh(self, fills: int, lines: FillLines) -> List[Optional[int]]:
        # The lowest-way tie-break fills ways 0..a-1 in turn; once every
        # count is 1, each further fill replaces way 0.
        assoc = len(self._locked)
        kept = min(fills, assoc)
        row: List[Optional[int]] = [*lines(0, kept), *[None] * (assoc - kept)]
        if fills > assoc:
            row[0] = lines(fills - 1, fills)[0]
        self._counts = [1] * kept + [0] * (assoc - kept)
        return row


class TwoQState(ReplacementPolicy):
    """Simplified 2Q: a probationary FIFO (A1) and a protected LRU list (Am).

    Fills enter A1; a hit promotes the way into Am (or refreshes its Am
    recency).  Victims drain A1 in FIFO order first -- lines touched only
    once never displace the protected working set -- then fall back to the
    LRU end of Am.
    """

    __slots__ = ("_a1", "_am")

    name = "2q"

    def __init__(self, associativity: int) -> None:
        super().__init__(associativity)
        #: probationary FIFO: _a1[0] is the oldest (first victim) way.
        self._a1: List[int] = list(range(associativity))
        #: protected list: _am[0] is the most recently used way.
        self._am: List[int] = []

    def touch(self, way: int) -> None:
        self._validate_way(way)
        if way in self._a1:
            self._a1.remove(way)
            self._am.insert(0, way)
        else:
            self._am.remove(way)
            self._am.insert(0, way)

    def insert(self, way: int, line: Optional[int] = None) -> None:
        self._validate_way(way)
        if way in self._a1:
            self._a1.remove(way)
        else:
            self._am.remove(way)
        self._a1.append(way)

    def victim(self) -> Optional[int]:
        for way in self._a1:
            if not self._locked[way]:
                return way
        for way in reversed(self._am):
            if not self._locked[way]:
                return way
        return None

    def capture(self) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        return (tuple(self._a1), tuple(self._am))

    def fill_fresh(self, fills: int, lines: FillLines) -> List[Optional[int]]:
        # Misses never promote, so Am stays empty and A1 behaves as a FIFO.
        row, self._a1 = _round_robin_fill(len(self._locked), fills, lines)
        return row


class ArcState(ReplacementPolicy):
    """Adaptive replacement (ARC) over one set, with per-set ghost lists.

    T1 holds ways whose line was referenced once since fill, T2 ways whose
    line was reused; B1/B2 are bounded ghost lists of *line numbers*
    recently evicted from T1/T2.  A miss whose line is remembered by a
    ghost list grows the corresponding live list's target size (the
    integer ``p`` = T1's target length), so the set adapts between
    recency-favouring and frequency-favouring behaviour.
    """

    __slots__ = ("_t1", "_t2", "_b1", "_b2", "_p", "_lines")

    name = "arc"

    def __init__(self, associativity: int) -> None:
        super().__init__(associativity)
        #: live lists: index 0 is the LRU end, the last element the MRU end.
        self._t1: List[int] = list(range(associativity))
        self._t2: List[int] = []
        #: ghost lists of evicted line numbers, oldest first, <= assoc long.
        self._b1: List[int] = []
        self._b2: List[int] = []
        #: target length of T1 (integer for exact reproducibility).
        self._p = 0
        #: line currently installed in each way (None = never filled).
        self._lines: List[Optional[int]] = [None] * associativity

    def touch(self, way: int) -> None:
        self._validate_way(way)
        if way in self._t1:
            self._t1.remove(way)
        else:
            self._t2.remove(way)
        self._t2.append(way)

    def insert(self, way: int, line: Optional[int] = None) -> None:
        self._validate_way(way)
        evicted = self._lines[way]
        if way in self._t1:
            self._t1.remove(way)
            ghost = self._b1
        else:
            self._t2.remove(way)
            ghost = self._b2
        if evicted is not None:
            ghost.append(evicted)
            if len(ghost) > self.associativity:
                ghost.pop(0)
        if line is not None and line in self._b1:
            self._p = min(self.associativity, self._p + max(1, len(self._b2) // max(1, len(self._b1))))
            self._b1.remove(line)
            self._t2.append(way)
        elif line is not None and line in self._b2:
            self._p = max(0, self._p - max(1, len(self._b1) // max(1, len(self._b2))))
            self._b2.remove(line)
            self._t2.append(way)
        else:
            self._t1.append(way)
        self._lines[way] = line

    def victim(self) -> Optional[int]:
        prefer_t1 = len(self._t1) > self._p or not self._t2
        lists = (self._t1, self._t2) if prefer_t1 else (self._t2, self._t1)
        for ways in lists:
            for way in ways:
                if not self._locked[way]:
                    return way
        return None

    def capture(self) -> Tuple[Any, ...]:
        return (
            tuple(self._t1),
            tuple(self._t2),
            tuple(self._b1),
            tuple(self._b2),
            self._p,
            tuple(self._lines),
        )

    def fill_fresh(self, fills: int, lines: FillLines) -> List[Optional[int]]:
        # No line repeats, so nothing reaches T2, B2 or p: T1 is a FIFO
        # and B1 keeps the last a lines it evicted, fills [n-2a, n-a).
        assoc = len(self._locked)
        row, self._t1 = _round_robin_fill(assoc, fills, lines)
        self._b1 = lines(max(0, fills - 2 * assoc), max(0, fills - assoc))
        self._lines = list(row)
        return row


class OptState(ReplacementPolicy):
    """Belady's optimum: evict the line whose next reference is farthest.

    Needs a *future-reuse oracle* ``next_use(line) -> position`` returning
    the stream position of the line's next reference (``float("inf")``
    when the line is never referenced again).  The miss-ratio-curve
    profiler builds the oracle in a first pass over the recorded columnar
    trace; an online timing simulation has no such pass, so
    :func:`create_policy` refuses ``"opt"`` without an oracle.
    """

    __slots__ = ("_next_use", "_lines")

    name = "opt"

    def __init__(self, associativity: int, next_use: Callable[[int], float]) -> None:
        super().__init__(associativity)
        self._next_use = next_use
        self._lines: List[Optional[int]] = [None] * associativity

    def touch(self, way: int) -> None:
        self._validate_way(way)  # the oracle already knows the future

    def insert(self, way: int, line: Optional[int] = None) -> None:
        self._validate_way(way)
        self._lines[way] = line

    def victim(self) -> Optional[int]:
        best: Optional[int] = None
        best_distance = -1.0
        for way, line in enumerate(self._lines):
            if self._locked[way]:
                continue
            distance = float("inf") if line is None else self._next_use(line)
            if distance > best_distance:
                best = way
                best_distance = distance
        return best

    def capture(self) -> Tuple[Optional[int], ...]:
        return tuple(self._lines)


_POLICY_CLASSES: Dict[str, Type[ReplacementPolicy]] = {
    "lru": LruState,
    "fifo": FifoState,
    "lfu": LfuState,
    "2q": TwoQState,
    "arc": ArcState,
    "opt": OptState,
}


def validate_policy_name(name: str, *, timing_only: bool = False) -> str:
    """Validate a policy name against the registry and return it.

    ``timing_only`` additionally rejects ``"opt"``, which cannot run in an
    online timing simulation (no future-reuse oracle exists there).
    """
    allowed = TIMING_POLICY_NAMES if timing_only else POLICY_NAMES
    if name not in allowed:
        raise ConfigurationError(
            f"unknown replacement policy {name!r}; expected one of {', '.join(allowed)}"
        )
    return name


def check_policy(name: str, next_use: Optional[Callable[[int], float]] = None) -> None:
    """Reject a policy :func:`create_policy` could not build with ``next_use``."""
    validate_policy_name(name)
    if name == "opt" and next_use is None:
        raise ConfigurationError(
            "replacement policy 'opt' needs a future-reuse oracle; it is "
            "only available offline (the miss-ratio-curve profiler), not "
            "in online timing simulations"
        )


def create_policy(
    name: str,
    associativity: int,
    *,
    next_use: Optional[Callable[[int], float]] = None,
) -> ReplacementPolicy:
    """Build one set's replacement state for the named policy.

    ``next_use`` is the future-reuse oracle ``opt`` requires; passing it
    for any other policy is harmless (they ignore the future).
    """
    check_policy(name, next_use)
    if name == "opt":
        return OptState(associativity, next_use)
    return _POLICY_CLASSES[name](associativity)
