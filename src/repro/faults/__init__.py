"""Deterministic fault injection for chaos-testing the service stack.

The package exports the injection registry (:class:`FaultSpec`,
:class:`FaultInjector`) and the process-global accessor the instrumented
sites consult (:func:`get_injector`).  With no injector installed every
site is a single ``None`` check -- production pays nothing for the harness.

``repro serve --faults FILE.json`` is the one way to turn injection on;
``repro chaos`` drives the load harness against a server it starts that
way and asserts the fault-tolerance contract (zero lost jobs, bounded
error rates).
"""

from repro.faults.injection import (
    FAULT_SITES,
    FaultInjector,
    FaultSpec,
    get_injector,
    install,
)

__all__ = [
    "FAULT_SITES",
    "FaultInjector",
    "FaultSpec",
    "get_injector",
    "install",
]
