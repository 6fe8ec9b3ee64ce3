"""Shared fixtures for the benchmark harness.

Every benchmark reproduces one table or figure of the paper on a reduced
campaign (two workloads per suite, short traces) so the whole harness runs in
minutes on a laptop.  The experiment context is session-scoped so all
benchmarks replay the exact same traces; use
``python -m pytest benchmarks --benchmark-only -s`` to see the regenerated
tables/figures inline.

The context is the CLI's default campaign
(:func:`repro.sim.experiments.campaign_context`: the quick suites at 8,000
instructions, seed 2008) with an inline runner and no result cache, so the
benchmarks always measure real simulation time, never cache reads.
"""

from __future__ import annotations

import pytest

from repro.sim.experiments import ExperimentContext, campaign_context


@pytest.fixture(scope="session")
def context() -> ExperimentContext:
    """The shared quick experiment campaign."""
    return campaign_context()


def run_once(benchmark, figure, context, **kwargs):
    """Plan ``figure`` on ``context``, then time one ``context.run(plan)``."""
    plan = figure(context, **kwargs)
    return benchmark.pedantic(context.run, args=(plan,), rounds=1, iterations=1)
