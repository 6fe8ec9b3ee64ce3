"""Seed derivation for the simulator's random streams.

Synthetic workload generation (instruction classes, addresses, branch
outcomes) draws from plain :class:`random.Random` streams whose seeds come
from :func:`derive_seed`, which hashes a parent seed together with a string
label.  Deriving rather than reusing the parent seed keeps independent
streams statistically decoupled while remaining fully deterministic, so
every trace is reproducible from one integer seed.
"""

from __future__ import annotations

import hashlib

from repro.common.errors import ConfigurationError

_MAX_SEED = 2**63 - 1


def derive_seed(parent_seed: int, label: str) -> int:
    """Return a new deterministic seed derived from ``parent_seed`` and ``label``.

    The derivation uses SHA-256 over the decimal representation of the parent
    seed and the label, truncated to 63 bits.  Two different labels (or two
    different parent seeds) therefore yield independent-looking streams while
    the mapping stays stable across Python versions and platforms (unlike
    ``hash()`` which is salted per process).
    """
    if not isinstance(parent_seed, int):
        raise ConfigurationError(f"seed must be an int, got {type(parent_seed).__name__}")
    digest = hashlib.sha256(f"{parent_seed}:{label}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") & _MAX_SEED
