"""Runaway-trace protection for the measurement harness.

Trace production is app-driven: a buggy serve loop (or a degraded path
gone wrong) could emit micro-ops forever, or emit nothing while the
runner waits for its window to fill.  The watchdog bounds both ways a
run can wedge, so a multi-figure sweep fails fast instead of hanging.
"""

from __future__ import annotations

from typing import Iterable, Iterator

#: A guarded trace may overshoot its budget by this factor (serve
#: quanta are coarse) plus a fixed allowance before the watchdog trips.
TRACE_SLACK = 4.0
TRACE_ALLOWANCE = 100_000

#: Consecutive serve calls that emit nothing before the app is
#: declared wedged (see ServerApp.trace).
MAX_SILENT_SERVES = 256


class DeterministicRunError(RuntimeError):
    """A run failed in a way that repeats on every attempt: the
    simulation is a pure function of its cell, so the sweep supervisor
    fails such a cell at its first attempt instead of retrying it."""


class RunawayTraceError(DeterministicRunError):
    """A workload trace blew through its micro-op budget or stalled."""


def trace_budget(window_uops: int) -> int:
    """The watchdog ceiling for a requested measurement window."""
    return int(window_uops * TRACE_SLACK) + TRACE_ALLOWANCE


def guard_trace(trace: Iterable, limit: int, label: str) -> Iterator:
    """Yield from ``trace``, raising once ``limit`` micro-ops pass.

    ``label`` names the run in the error message (workload and
    configuration), since the traceback won't.
    """
    count = 0
    for uop in trace:
        count += 1
        if count > limit:
            raise RunawayTraceError(
                f"{label}: trace exceeded the watchdog budget of "
                f"{limit} micro-ops — the serve loop is likely wedged"
            )
        yield uop
