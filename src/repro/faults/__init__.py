"""Deterministic fault injection for the scale-out workloads.

The paper characterizes the suite in healthy steady state only, but
real CloudSuite-style deployments spend significant cycles in error
paths: replica failures, stragglers, dropped requests, GC storms, and
memory-pressure bursts.  This package supplies the apparatus to measure
those degraded modes with the same determinism guarantees as the
healthy pipelines:

* :mod:`repro.faults.plan` — :class:`FaultPlan`/:class:`FaultEvent`, a
  frozen, hashable, seed-driven schedule of fault windows expressed in
  request counts (the only clock every workload shares);
* :mod:`repro.faults.injector` — :class:`FaultInjector`, the per-run
  interpreter of a plan: advances the request clock, reports the
  active fault kinds, and supplies the deterministic randomness the
  degraded paths draw from;
* :mod:`repro.faults.retry` — :class:`RetryPolicy`, capped exponential
  backoff with bounded jitter, timeouts, and request hedging;
* :mod:`repro.faults.metrics` — :class:`ServiceMetrics`, the
  service-level accumulator (goodput, retry rate, latency percentiles);
* :mod:`repro.faults.watchdog` — the runaway-trace budget guard.

The degraded-mode table itself (Figure 8) runs on the shared sweep
engine, with its store, journal and validation gate; see
:mod:`repro.core.experiments.figure8_faults`.

See ``docs/resilience.md`` for the fault model and how degraded paths
extend the paper's Figure 1/Figure 2 arguments.
"""

from repro.faults.injector import FaultInjector
from repro.faults.metrics import ServiceMetrics
from repro.faults.plan import FAULT_KINDS, FaultEvent, FaultPlan
from repro.faults.retry import RetryPolicy
from repro.faults.watchdog import (DeterministicRunError, RunawayTraceError,
                                   guard_trace)

__all__ = [
    "DeterministicRunError",
    "FAULT_KINDS",
    "FaultEvent",
    "FaultPlan",
    "FaultInjector",
    "RetryPolicy",
    "ServiceMetrics",
    "RunawayTraceError",
    "guard_trace",
]
