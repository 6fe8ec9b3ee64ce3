"""The fault-injection registry: spec parsing and per-site decisions.

A **fault spec** is a small JSON document naming the sites to perturb and
how hard::

    {
      "seed": 1234,
      "kill_worker":  {"rate": 0.3, "max": 5},
      "drop_peer":    {"rate": 0.1},
      "delay_peer":   {"rate": 0.1, "seconds": 0.2},
      "corrupt_cache":{"rate": 0.2, "max": 3},
      "http_500":     {"rate": 0.05}
    }

Each site carries a ``rate`` (per-decision injection probability), an
optional ``max`` (lifetime cap on injections at that site) and, for
``delay_peer``, the delay in ``seconds``.  The spec decodes through the
strict codec (:func:`~repro.common.serialize.from_jsonable`): a ``seed``
must be an integer, a ``rate`` or ``seconds`` a number and a ``max`` an
integer, never a string or a boolean, and unknown sites and settings are
refused, so a typo cannot silently disable a fault.  Every error names the
site and the setting.

``repro serve --faults FILE.json`` is the one way to turn injection on:
the server decodes the file before it serves and installs the injector
process-wide (:func:`install`).  With none installed, :func:`get_injector`
returns ``None`` and every site skips its fault.

**Determinism.** Every site draws from its own ``random.Random`` seeded
with ``(spec seed, site name)``, so a given spec produces the same
injection sequence per site across runs -- a chaos failure reproduces by
re-running with the same spec.  Decisions taken with a ``key`` (a simulation's
content address at the ``kill_worker`` site) additionally fire **at most
once per key**: the injected fault models a *transient* crash, so a
supervised retry of the same job must be allowed to succeed -- otherwise
an unlucky key could exhaust its retries against the injector itself and
the "zero lost jobs" contract would be unfalsifiable.

The instrumented sites are:

* ``kill_worker`` -- :meth:`repro.exp.runner.ExperimentRunner._execute`
  picks the first job of a batch it sends to its child processes, and the
  child that receives that job SIGKILLs itself before simulating: a real
  process death, which breaks the pool (``BrokenProcessPool``) and
  exercises the service supervisor's retry on freshly spawned children;
* ``drop_peer`` / ``delay_peer`` -- :func:`repro.service.shards.fetch_json`
  fails (``OSError``) or stalls before dialling a peer shard, exercising
  the suspect-peer exclusion;
* ``corrupt_cache`` -- :meth:`repro.exp.cache.ResultCache.put` truncates
  the entry it just wrote, exercising the corrupt-entry quarantine;
* ``http_500`` -- the server fails a request before dispatch, exercising
  client backoff and the load harness's error accounting.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Set, Tuple

from repro.common.errors import ConfigurationError
from repro.common.serialize import from_jsonable, from_jsonable_section, read_json_file

#: The injection sites a spec may name.
FAULT_SITES = ("kill_worker", "drop_peer", "delay_peer", "corrupt_cache", "http_500")


@dataclass(frozen=True)
class SiteSpec:
    """One site's injection settings."""

    rate: float = 0.0
    #: Lifetime cap on injections at this site (``None`` = unbounded).
    max: Optional[int] = None
    #: Injected delay (``delay_peer`` only).
    seconds: float = 0.0

    def __post_init__(self) -> None:
        if not (0.0 <= self.rate <= 1.0):
            raise ConfigurationError(f"fault rate must be in [0, 1], got {self.rate}")
        if self.max is not None and self.max < 0:
            raise ConfigurationError(f"fault max must be >= 0, got {self.max}")
        if self.seconds < 0.0:
            raise ConfigurationError(f"fault seconds must be >= 0, got {self.seconds}")


@dataclass(frozen=True)
class FaultSpec:
    """A parsed fault spec: the seed and the per-site settings."""

    seed: int = 0
    sites: Dict[str, SiteSpec] = field(default_factory=dict)

    @classmethod
    def from_dict(cls, data: Any) -> "FaultSpec":
        """Decode a spec document (see the module docstring), strictly."""
        if not isinstance(data, Mapping):
            raise ConfigurationError(
                f"expected a fault-spec mapping, got {type(data).__name__}"
            )
        unknown = set(data) - set(FAULT_SITES) - {"seed"}
        if unknown:
            raise ConfigurationError(
                f"unknown fault sites {sorted(unknown)} (one of {', '.join(FAULT_SITES)})"
            )
        sites = {
            site: from_jsonable_section(SiteSpec, data[site], f"fault site {site!r}")
            for site in FAULT_SITES
            if data.get(site) is not None
        }
        return from_jsonable(cls, {**data, "sites": sites})

    @classmethod
    def from_file(cls, path: str) -> "FaultSpec":
        return cls.from_dict(read_json_file(path, "fault spec"))

    def to_dict(self) -> Dict[str, Any]:
        document: Dict[str, Any] = {"seed": self.seed}
        for site, spec in self.sites.items():
            entry: Dict[str, Any] = {"rate": spec.rate}
            if spec.max is not None:
                entry["max"] = spec.max
            if spec.seconds:
                entry["seconds"] = spec.seconds
            document[site] = entry
        return document


class FaultInjector:
    """The live registry the instrumented sites ask "should I fail here?".

    Thread-safe (sites fire from the event loop, worker threads and pool
    put() paths alike); decisions are deterministic per ``(seed, site)``.
    Injection counts are kept locally and mirrored into a
    ``repro_faults_injected_total{site}`` counter once :meth:`bind_metrics`
    attaches a registry (the server binds its own at startup).
    """

    def __init__(self, spec: FaultSpec) -> None:
        self.spec = spec
        self._lock = threading.Lock()
        self._rngs: Dict[str, random.Random] = {
            site: random.Random(f"{spec.seed}:{site}") for site in spec.sites
        }
        self.counts: Dict[str, int] = {site: 0 for site in spec.sites}
        self._fired_keys: Set[Tuple[str, str]] = set()
        self._counter = None

    def bind_metrics(self, registry) -> None:
        """Mirror injection counts into ``registry`` from now on."""
        self._counter = registry.counter(
            "repro_faults_injected_total",
            "Faults injected by the chaos harness, by site",
            labelnames=("site",),
        )

    def should(self, site: str, key: Optional[str] = None) -> bool:
        """Decide one injection at ``site`` (see the module docstring).

        ``key`` scopes the decision: a given key is faulted at most once
        per site, so supervised retries of an injected crash can succeed.
        """
        spec = self.spec.sites.get(site)
        if spec is None or spec.rate <= 0.0:
            return False
        with self._lock:
            if key is not None and (site, key) in self._fired_keys:
                return False
            if spec.max is not None and self.counts[site] >= spec.max:
                return False
            if self._rngs[site].random() >= spec.rate:
                return False
            self.counts[site] += 1
            if key is not None:
                self._fired_keys.add((site, key))
        if self._counter is not None:
            self._counter.labels(site).inc()
        return True

    def peer_delay(self) -> float:
        """The delay to impose on this peer call (0.0 = none)."""
        if self.should("delay_peer"):
            return self.spec.sites["delay_peer"].seconds
        return 0.0


#: The process-global injector (``None`` = injection disabled).
_INJECTOR: Optional[FaultInjector] = None


def get_injector() -> Optional[FaultInjector]:
    """The installed injector, or ``None`` when injection is off."""
    return _INJECTOR


def install(injector: Optional[FaultInjector]) -> None:
    """Install (or, with ``None``, remove) the process-global injector."""
    global _INJECTOR
    _INJECTOR = injector
