"""Shared plain-Python test helpers (importable, unlike conftest fixtures).

Lives in its own uniquely named module because ``from conftest import ...``
is ambiguous when the repo has more than one conftest (``benchmarks/``
defines its own): pytest imports conftests by basename, so whichever loads
first wins.  Everything here is deduplicated setup that used to be
copy-pasted across ``test_sim.py``, ``test_exp.py``, ``test_cli.py`` and
``test_service.py``.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC_DIR = REPO_ROOT / "src"

#: Short traces keep orchestration/service tests fast; determinism does not
#: depend on the length.
TEST_INSTRUCTIONS = 1_000
TEST_SEED = 7


def subprocess_env() -> dict:
    """Environment for child Pythons: the src tree on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
    return env


def run_cli(args, cwd):
    """Run ``python -m repro <args>`` in ``cwd`` and capture its output."""
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        cwd=cwd,
        env=subprocess_env(),
        capture_output=True,
        text=True,
    )


def one_member_suite():
    """A single-member suite (swim_like) for minimal orchestration tests."""
    from repro.workloads.suite import quick_fp_suite

    return quick_fp_suite().subset(["swim_like"], suite_name="one")


def status_polls(service) -> float:
    """``GET /v1/jobs/{id}`` requests an in-process ``ReproService`` has
    answered, read from its metrics registry."""
    return sum(
        child.value
        for labels, child in service.metrics.series("repro_http_requests_total").items()
        if labels[0] == "/v1/jobs/{id}"
    )
