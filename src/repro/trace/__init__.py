"""Capture-once / replay-many trace pipeline.

The paper's methodology (§3.1) fixes the *software* behavior and varies
the *hardware*: Figures 3–5 re-measure one workload execution against
many core/cache/prefetcher configurations.  A workload's micro-op
stream depends only on ``(workload, seed, window, fault_plan)`` — none
of the machine dimensions those sweeps vary — so this package splits
every measurement into two stages:

* **capture** (:mod:`repro.trace.capture`) drains the app's warm and
  measurement streams exactly once per trace key into a compact
  columnar encoding (:mod:`repro.trace.codec`), under the runaway-trace
  watchdog;
* **replay** (:mod:`repro.trace.replay`) feeds the decoded stream — a
  byte-identical :class:`~repro.uarch.uop.MicroOp` sequence — into a
  fresh :class:`~repro.uarch.hierarchy.MemoryHierarchy` and core,
  guard-free, once per machine configuration.

Captured traces persist in an on-disk store
(:mod:`repro.trace.store`) keyed by a canonical fingerprint, and
:mod:`repro.trace.pipeline` memoizes them in-process, so a sweep is
O(traces) + O(cells · replay) instead of O(cells · generate).
Timing-entangled runs (SMT, multi-core chips) keep live generation via
:mod:`repro.trace.live`, whose warming and watchdog are the ones
replay and capture use.
"""

from repro.trace.capture import CapturedTrace, TraceKey, capture
from repro.trace.codec import TRACE_SCHEMA, EncodedStream, encode_stream
from repro.trace.pipeline import TAPS, capture_fresh, materialize, replay
from repro.trace.store import TraceFormatError, TraceStore

__all__ = [
    "TRACE_SCHEMA",
    "EncodedStream",
    "encode_stream",
    "TraceKey",
    "CapturedTrace",
    "capture",
    "TraceStore",
    "TraceFormatError",
    "TAPS",
    "capture_fresh",
    "materialize",
    "replay",
]
