"""Replacement policies for set-associative caches: each ranks a set's ways.

The line-based Epoch Resolution Table (Section 3.4 of the paper) requires
that every line referenced by an address-known low-locality memory
instruction stay resident in the L1 until its epoch commits.  The paper
implements this by letting the replacement algorithm skip locked lines:

    "Locking cache lines does not involve any additional structures as the
    replacement algorithm can take care of everything.  It will only replace
    lines for which there are no active bits in the ERT."

The paper evaluates LRU only, but that rule does not depend on the
algorithm, so it lives once, in the cache
(:class:`repro.memory.cache.SetAssociativeCache`), which keeps the only
record of locks.  A policy here holds only its ordering state: it lists a
set's ways in the order it would evict them
(:meth:`ReplacementPolicy.eviction_order`), and the cache replaces the
first listed way whose line is not locked.  This module defines that
contract, a registry of implementations (:data:`POLICY_NAMES`,
:func:`policy_factory`) and six policies:

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
  :func:`policy_factory` without an oracle rejects it.

The cache's tag row is the only record of which line each way holds: it
hands the row to :meth:`~ReplacementPolicy.eviction_order` (OPT ranks by
the resident lines' next uses) and the replaced line to
:meth:`~ReplacementPolicy.insert` (ARC remembers it in a ghost list).
``capture`` snapshots a policy's ordering state.

``fill_fresh`` puts a fresh, lock-free set straight into the state a run of
misses on distinct lines leaves it in -- the shape of the region warm-up --
which is what lets a cache build each set's warm state on first touch
(:meth:`repro.memory.cache.SetAssociativeCache.warm_fill`).  Every online
policy has a closed form that reads only the handful of fills its end state
depends on; the base class replays the fills, which is exact for any policy.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Type

from repro.common.errors import ConfigurationError

#: ``lines(lo, hi)`` -> the lines of a set's fills ``lo`` .. ``hi - 1``,
#: oldest first (the argument :meth:`ReplacementPolicy.fill_fresh` reads).
FillLines = Callable[[int, int], List[int]]

#: A set's tag row: way -> resident line number, ``None`` for an empty way.
TagRow = List[Optional[int]]

#: Every registered policy name, in registry order.
POLICY_NAMES: Tuple[str, ...] = ("lru", "fifo", "lfu", "2q", "arc", "opt")

#: The policies a *timing* cache can run online.  ``opt`` needs future
#: knowledge of the reference stream, which only the two-pass miss-ratio
#: profiler has; an online simulation asking for it is a configuration
#: error, not a silent approximation.
TIMING_POLICY_NAMES: Tuple[str, ...] = ("lru", "fifo", "lfu", "2q", "arc")


class ReplacementPolicy:
    """Replacement state of one cache set: an eviction ranking of its ways.

    Way indices run from 0 to the set's associativity - 1.  Subclasses keep
    only the state that orders the ways (:meth:`touch`, :meth:`insert`,
    :meth:`eviction_order`, :meth:`capture`); locks and resident lines are
    the cache's.
    """

    __slots__ = ()

    def touch(self, way: int) -> None:
        """Record a hit on ``way`` (a reuse event)."""
        raise NotImplementedError

    def insert(self, way: int, line: int, evicted: Optional[int]) -> None:
        """Record a fill of ``way`` with ``line``, replacing ``evicted``.

        ``evicted`` is the line the way held, ``None`` if it was empty.
        Policies that key history by line identity (ARC's ghost lists) read
        the two lines; the others ignore them.
        """
        raise NotImplementedError

    def eviction_order(self, row: Sequence[Optional[int]]) -> Iterable[int]:
        """Every way of the set, in the order this policy would evict them.

        ``row`` is the set's tag row.  The cache replaces the first listed
        way whose line is not locked, then calls :meth:`insert`; the result
        is not read after that.
        """
        raise NotImplementedError

    def capture(self) -> Any:
        """Snapshot the ordering state (the tag row is the cache's)."""
        raise NotImplementedError

    def fill_fresh(self, row: TagRow, fills: int, lines: FillLines) -> None:
        """Apply ``fills`` misses on distinct lines to this fresh set.

        ``row`` is the set's empty tag row; it is filled in place.  Leaves
        the row and the ordering state exactly as ``fills`` rounds of
        replacing the first way of :meth:`eviction_order` would.  ``lines``
        yields the filled lines by index (:data:`FillLines`).  This default
        replays every fill; the online policies override it with a closed
        form that costs O(associativity) whatever ``fills`` is.
        """
        for line in lines(0, fills):
            way = next(iter(self.eviction_order(row)))
            self.insert(way, line, row[way])
            row[way] = line


class LruState(ReplacementPolicy):
    """Recency ordering of the ways of a single cache set (the paper's policy).

    The state is the recency stack (position 0 = most recently used); ways
    are evicted from the bottom of the stack up.
    """

    __slots__ = ("_order",)

    def __init__(self, associativity: int) -> None:
        #: recency stack: _order[0] is the most recently used way index.
        self._order: List[int] = list(range(associativity))

    def touch(self, way: int) -> None:
        """Mark ``way`` as the most recently used."""
        order = self._order
        order.remove(way)
        order.insert(0, way)

    def insert(self, way: int, line: int, evicted: Optional[int]) -> None:
        """A fill is a recency event: identical to :meth:`touch` for LRU."""
        self.touch(way)

    def eviction_order(self, row: Sequence[Optional[int]]) -> Iterable[int]:
        return reversed(self._order)

    def capture(self) -> Tuple[int, ...]:
        return tuple(self._order)

    def fill_fresh(self, row: TagRow, fills: int, lines: FillLines) -> None:
        # Victims come off the bottom of the stack, so fill j lands in way
        # (-1-j) mod a.  The stack is then the ways in order from (-n) mod a,
        # holding the newest fills and then the never-filled ways; the tag
        # row is that list rotated back into way order.
        assoc = len(row)
        kept = min(fills, assoc)
        stacked: TagRow = lines(fills - kept, fills)[::-1]
        stacked += [None] * (assoc - kept)
        start = -fills % assoc
        self._order = [*range(start, assoc), *range(start)]
        split = fills % assoc
        row[:] = stacked[split:] + stacked[:split]


def _round_robin_fill(assoc: int, fills: int, lines: FillLines) -> Tuple[TagRow, List[int]]:
    """Tag row and oldest-first way order after fill j landed in way j mod a.

    The fill pattern of every policy whose fresh victim is the head of an
    in-order queue of ways (FIFO, 2Q's A1, ARC's T1).
    """
    kept = min(fills, assoc)
    # In queue order: the never-filled ways first, then the last fills; the
    # tag row is that list rotated back into way order.
    queued: TagRow = [None] * (assoc - kept)
    queued += lines(fills - kept, fills)
    start = fills % assoc
    split = -fills % assoc
    return queued[split:] + queued[:split], [*range(start, assoc), *range(start)]


class FifoState(ReplacementPolicy):
    """First-in first-out: evict in fill order, hits never reorder."""

    __slots__ = ("_queue",)

    def __init__(self, associativity: int) -> None:
        #: fill queue: _queue[0] is the oldest (next victim) way index.
        self._queue: List[int] = list(range(associativity))

    def touch(self, way: int) -> None:
        """Hits do not reorder a FIFO."""

    def insert(self, way: int, line: int, evicted: Optional[int]) -> None:
        queue = self._queue
        queue.remove(way)
        queue.append(way)

    def eviction_order(self, row: Sequence[Optional[int]]) -> Iterable[int]:
        return self._queue

    def capture(self) -> Tuple[int, ...]:
        return tuple(self._queue)

    def fill_fresh(self, row: TagRow, fills: int, lines: FillLines) -> None:
        row[:], self._queue = _round_robin_fill(len(row), fills, lines)


class LfuState(ReplacementPolicy):
    """Least frequently used, lowest-way tie-break.

    Frequency counts reset on fill (a new line does not inherit its way's
    history).  Ties rank the lowest way index first so the policy is a pure
    function of the access sequence.
    """

    __slots__ = ("_counts",)

    def __init__(self, associativity: int) -> None:
        self._counts: List[int] = [0] * associativity

    def touch(self, way: int) -> None:
        self._counts[way] += 1

    def insert(self, way: int, line: int, evicted: Optional[int]) -> None:
        self._counts[way] = 1

    def eviction_order(self, row: Sequence[Optional[int]]) -> Iterable[int]:
        counts = self._counts
        return sorted(range(len(counts)), key=counts.__getitem__)

    def capture(self) -> Tuple[int, ...]:
        return tuple(self._counts)

    def fill_fresh(self, row: TagRow, fills: int, lines: FillLines) -> None:
        # The lowest-way tie-break fills ways 0..a-1 in turn; once every
        # count is 1, each further fill replaces way 0.
        assoc = len(row)
        kept = min(fills, assoc)
        row[:kept] = lines(0, kept)
        if fills > assoc:
            row[0] = lines(fills - 1, fills)[0]
        self._counts = [1] * kept + [0] * (assoc - kept)


class TwoQState(ReplacementPolicy):
    """Simplified 2Q: a probationary FIFO (A1) and a protected LRU list (Am).

    Fills enter A1; a hit promotes the way into Am (or refreshes its Am
    recency).  Eviction drains A1 in FIFO order first -- lines touched only
    once never displace the protected working set -- then the LRU end of Am.
    """

    __slots__ = ("_a1", "_am")

    def __init__(self, associativity: int) -> None:
        #: probationary FIFO: _a1[0] is the oldest (first victim) way.
        self._a1: List[int] = list(range(associativity))
        #: protected list: _am[0] is the most recently used way.
        self._am: List[int] = []

    def touch(self, way: int) -> None:
        if way in self._a1:
            self._a1.remove(way)
        else:
            self._am.remove(way)
        self._am.insert(0, way)

    def insert(self, way: int, line: int, evicted: Optional[int]) -> None:
        if way in self._a1:
            self._a1.remove(way)
        else:
            self._am.remove(way)
        self._a1.append(way)

    def eviction_order(self, row: Sequence[Optional[int]]) -> Iterable[int]:
        return self._a1 + self._am[::-1]

    def capture(self) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        return (tuple(self._a1), tuple(self._am))

    def fill_fresh(self, row: TagRow, fills: int, lines: FillLines) -> None:
        # Misses never promote, so Am stays empty and A1 behaves as a FIFO.
        row[:], self._a1 = _round_robin_fill(len(row), fills, lines)


class ArcState(ReplacementPolicy):
    """Adaptive replacement (ARC) over one set, with per-set ghost lists.

    T1 holds ways whose line was referenced once since fill, T2 ways whose
    line was reused; B1/B2 are bounded ghost lists of *line numbers*
    recently evicted from T1/T2.  A miss whose line is remembered by a
    ghost list grows the corresponding live list's target size (the
    integer ``p`` = T1's target length), so the set adapts between
    recency-favouring and frequency-favouring behaviour.
    """

    __slots__ = ("_t1", "_t2", "_b1", "_b2", "_p")

    def __init__(self, associativity: int) -> None:
        #: live lists: index 0 is the LRU end, the last element the MRU end.
        self._t1: List[int] = list(range(associativity))
        self._t2: List[int] = []
        #: ghost lists of evicted line numbers, oldest first, <= assoc long.
        self._b1: List[int] = []
        self._b2: List[int] = []
        #: target length of T1 (integer for exact reproducibility).
        self._p = 0

    def touch(self, way: int) -> None:
        if way in self._t1:
            self._t1.remove(way)
        else:
            self._t2.remove(way)
        self._t2.append(way)

    def insert(self, way: int, line: int, evicted: Optional[int]) -> None:
        assoc = len(self._t1) + len(self._t2)
        if way in self._t1:
            self._t1.remove(way)
            ghost = self._b1
        else:
            self._t2.remove(way)
            ghost = self._b2
        if evicted is not None:
            ghost.append(evicted)
            if len(ghost) > assoc:
                ghost.pop(0)
        if line in self._b1:
            self._p = min(assoc, self._p + max(1, len(self._b2) // max(1, len(self._b1))))
            self._b1.remove(line)
            self._t2.append(way)
        elif line in self._b2:
            self._p = max(0, self._p - max(1, len(self._b1) // max(1, len(self._b2))))
            self._b2.remove(line)
            self._t2.append(way)
        else:
            self._t1.append(way)

    def eviction_order(self, row: Sequence[Optional[int]]) -> Iterable[int]:
        if len(self._t1) > self._p or not self._t2:
            return self._t1 + self._t2
        return self._t2 + self._t1

    def capture(self) -> Tuple[Any, ...]:
        return (tuple(self._t1), tuple(self._t2), tuple(self._b1), tuple(self._b2), self._p)

    def fill_fresh(self, row: TagRow, fills: int, lines: FillLines) -> None:
        # No line repeats, so nothing reaches T2, B2 or p: T1 is a FIFO
        # and B1 keeps the last a lines it evicted, fills [n-2a, n-a).
        assoc = len(row)
        row[:], self._t1 = _round_robin_fill(assoc, fills, lines)
        self._b1 = lines(max(0, fills - 2 * assoc), max(0, fills - assoc))


class OptState(ReplacementPolicy):
    """Belady's optimum: evict the line whose next reference is farthest.

    Needs a *future-reuse oracle* ``next_use(line) -> position`` returning
    the stream position of the line's next reference (``float("inf")``
    when the line is never referenced again).  The miss-ratio-curve
    profiler builds the oracle in a first pass over the recorded columnar
    trace; an online timing simulation has no such pass, so
    :func:`policy_factory` refuses ``"opt"`` without an oracle.  Ties rank
    the lowest way first; an empty way ranks as never used again.
    """

    __slots__ = ("_next_use",)

    def __init__(self, next_use: Callable[[int], float]) -> None:
        self._next_use = next_use

    def touch(self, way: int) -> None:
        """The oracle already knows the future."""

    def insert(self, way: int, line: int, evicted: Optional[int]) -> None:
        """Resident lines are the cache's tag row."""

    def eviction_order(self, row: Sequence[Optional[int]]) -> Iterable[int]:
        next_use = self._next_use
        distances = [float("inf") if line is None else next_use(line) for line in row]
        return sorted(range(len(row)), key=distances.__getitem__, reverse=True)

    def capture(self) -> Tuple[()]:
        return ()


#: The online policies, each built from the set's associativity alone.
_POLICY_CLASSES: Dict[str, Type[ReplacementPolicy]] = {
    "lru": LruState,
    "fifo": FifoState,
    "lfu": LfuState,
    "2q": TwoQState,
    "arc": ArcState,
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


def policy_factory(
    name: str,
    associativity: int,
    next_use: Optional[Callable[[int], float]] = None,
) -> Callable[[], ReplacementPolicy]:
    """Validate the named policy once; return a builder of one set's state.

    ``next_use`` is the future-reuse oracle ``opt`` requires; passing it
    for any other policy is harmless (they ignore the future).
    """
    validate_policy_name(name)
    if name != "opt":
        return partial(_POLICY_CLASSES[name], associativity)
    if next_use is None:
        raise ConfigurationError(
            "replacement policy 'opt' needs a future-reuse oracle; it is "
            "only available offline (the miss-ratio-curve profiler), not "
            "in online timing simulations"
        )
    return partial(OptState, next_use)

