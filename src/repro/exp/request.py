"""Wire-level job requests: what a client submits to the simulation service.

A :class:`JobRequest` names either

* a **figure** -- one of the registered paper artifacts
  (:data:`repro.sim.experiments.EXPERIMENTS`) plus the campaign knobs the CLI
  exposes (``instructions``, ``seed``, ``full``, ``policy``), or
* an explicit batch of **cases** -- raw :class:`~repro.exp.runner.SimJob`
  records, each fully describing one simulation.

Like a job, a request is **content-addressed**: :meth:`JobRequest.key` hashes
the normalised request (campaign defaults applied), so two submissions that
mean the same work share one key.  The service coalesces in-flight requests
on that key, and the key is stable across processes and machines
(:func:`repro.common.serialize.stable_hash`).

This module deliberately imports only :mod:`repro.exp.runner` and the
serialisation helpers -- resolution of figure names against the experiment
registry happens lazily (in :meth:`normalized` and in the service), keeping
the ``repro.exp`` package importable from :mod:`repro.sim.experiments`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from typing import Any, Dict, Optional, Tuple

from repro.common.errors import ConfigurationError
from repro.common.serialize import from_jsonable, stable_hash, to_jsonable
from repro.exp.runner import SimJob

#: Version of the request payload schema (the ``schema_version`` a v2 wire
#: envelope names).  Version 2 added the admission metadata fields
#: (``tenant``, ``priority``); version-1 payloads simply omit them.
REQUEST_SCHEMA_VERSION = 2

#: What the *work content* of a request hashes under.  Deliberately separate
#: from :data:`REQUEST_SCHEMA_VERSION`: bump only when the meaning of a
#: request changes (coalescing keys then diverge); adding admission metadata
#: does not.  Version 2: the work content gained the replacement-policy knob.
#: Version 3: it lost the simulation-engine knob.
_KEY_SCHEMA_VERSION = 3

#: The two scheduling lanes a submission can ride in.  ``interactive`` is
#: for short quick-suite jobs and is always drained before ``batch`` (full
#: campaigns), so interactive work is never stuck behind a campaign.
PRIORITY_LANES = ("interactive", "batch")

#: Tenant names are path/log-safe identifiers.
_TENANT_NAME_RE = r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}"


def validate_tenant_name(name: str) -> str:
    """Validate a tenant identifier; returns it unchanged."""
    if not isinstance(name, str) or not re.fullmatch(_TENANT_NAME_RE, name):
        raise ConfigurationError(
            f"invalid tenant name {name!r} (want 1-64 chars of [A-Za-z0-9_.-], "
            "starting alphanumeric)"
        )
    return name


@dataclass(frozen=True)
class JobRequest:
    """One submission: a named figure campaign or an explicit job batch.

    ``tenant`` and ``priority`` are **admission metadata**: they decide whose
    quota the submission charges and which scheduling lane it rides, but they
    are deliberately excluded from :meth:`key` -- the same simulation
    submitted by two tenants must still coalesce into one execution and share
    one result-cache entry.  There is no engine knob: every simulation runs
    the one engine, and a payload's legacy ``engine`` field is ignored like
    any other unknown field.
    """

    figure: Optional[str] = None
    cases: Tuple[SimJob, ...] = ()
    instructions: Optional[int] = None
    seed: Optional[int] = None
    full: bool = False
    #: Cache replacement policy for figure campaigns (``None`` = ``"lru"``,
    #: the paper's baseline).  Timing policies only -- the OPT oracle lives
    #: in the offline MRC profiler.  Case batches carry the policy inside
    #: each job's cache configs.
    policy: Optional[str] = None
    #: Submitting tenant (``None`` = the server's default tenant).
    tenant: Optional[str] = None
    #: Scheduling lane (one of :data:`PRIORITY_LANES`; ``None`` lets the
    #: server derive it: ``batch`` for full campaigns, else ``interactive``).
    priority: Optional[str] = None

    def __post_init__(self) -> None:
        if self.tenant is not None:
            validate_tenant_name(self.tenant)
        if self.priority is not None and self.priority not in PRIORITY_LANES:
            raise ConfigurationError(
                f"unknown priority {self.priority!r} (one of {', '.join(PRIORITY_LANES)})"
            )
        if (self.figure is None) == (not self.cases):
            raise ConfigurationError(
                "a job request names either a figure or a non-empty batch of cases"
            )
        if self.cases and (
            self.instructions is not None
            or self.seed is not None
            or self.full
            or self.policy is not None
        ):
            # Each SimJob embeds its own trace length, seed and (through its
            # machine) replacement policy; silently ignoring the campaign
            # knobs would run different parameters than the caller asked for.
            raise ConfigurationError(
                "instructions/seed/full/policy apply to figure requests "
                "only; case batches carry those parameters inside each job"
            )
        if self.instructions is not None and self.instructions <= 0:
            raise ConfigurationError(
                f"instructions must be positive, got {self.instructions}"
            )

    def normalized(self) -> "JobRequest":
        """Apply the campaign defaults so equivalent requests share one key.

        Figure requests get the CLI's defaults filled in (quick/full trace
        length, paper-year seed) and have their figure name validated against
        the registry; case batches carry every parameter inside each job and
        pass through unchanged (``__post_init__`` already rejected campaign
        knobs on them).
        """
        from repro.memory.replacement import validate_policy_name
        from repro.sim.experiments import (
            DEFAULT_SEED,
            QUICK_INSTRUCTIONS,
            experiment_by_name,
        )
        from repro.sim.simulator import DEFAULT_INSTRUCTIONS_PER_WORKLOAD

        if self.figure is None:
            return self
        experiment_by_name(self.figure)
        instructions = self.instructions
        if instructions is None:
            instructions = (
                DEFAULT_INSTRUCTIONS_PER_WORKLOAD if self.full else QUICK_INSTRUCTIONS
            )
        seed = self.seed if self.seed is not None else DEFAULT_SEED
        policy = self.policy if self.policy is not None else "lru"
        validate_policy_name(policy, timing_only=True)  # fails at admission
        return replace(self, instructions=instructions, seed=seed, policy=policy)

    def key(self) -> str:
        """The request's stable content address (the coalescing key).

        Hashes only the *work content*; ``tenant`` and ``priority`` are
        excluded so identical work from different tenants coalesces and
        cache-hits across tenants.
        """
        normalized = self.normalized()
        return stable_hash(
            {
                "schema": _KEY_SCHEMA_VERSION,
                "figure": normalized.figure,
                "cases": sorted({case.key() for case in normalized.cases}),
                "instructions": normalized.instructions,
                "seed": normalized.seed,
                "full": normalized.full,
                "policy": normalized.policy,
            }
        )

    def to_dict(self) -> Dict[str, Any]:
        """Lower the request to plain JSON types (the wire payload)."""
        return to_jsonable(self)

    @classmethod
    def from_dict(cls, data: Any) -> "JobRequest":
        """Rebuild a request from :meth:`to_dict` output.

        Every field is decoded by its type hint, as every wire payload is
        (:func:`~repro.common.serialize.from_jsonable`): a value of the wrong
        JSON type, such as ``"full": "false"`` or ``"seed": "7"``, is a
        :class:`ConfigurationError`, never coerced.  Unknown fields are
        ignored.
        """
        return from_jsonable(cls, data)
