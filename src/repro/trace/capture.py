"""Trace capture: drain a workload's streams once per trace key.

A captured trace is everything replay needs to reproduce a live run's
counters on a fresh :class:`~repro.uarch.hierarchy.MemoryHierarchy`:

* the functional-warming **fill ranges** (code footprint plus the
  kernel's and app's steady-state data ranges);
* the **warm stream** — the short execution replay that orders LRU
  recency and trains the prefetchers before measurement;
* the **measurement stream(s)** — the windowed micro-op trace the core
  actually times.

The measurement stream depends only on :class:`TraceKey` — workload,
member, seed, window/warm budgets, thread count, and fault plan — and
on no machine parameter, which is what makes capture-once /
replay-many sound.  The key's fingerprint is computed by the same
canonicalization machinery as :func:`repro.core.sweep.config_fingerprint`
and folds in :data:`~repro.trace.codec.TRACE_SCHEMA`.

Capture is the *only* stage allowed to run unbounded app code, so the
measurement drain runs under the runaway-trace watchdog
(:func:`repro.faults.watchdog.guard_trace`); replay is guard-free.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.faults.watchdog import guard_trace, trace_budget
from repro.trace.codec import TRACE_SCHEMA, EncodedStream, encode_stream

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.apps.base import ServerApp

__all__ = ["TraceKey", "CapturedTrace", "capture", "fill_ranges_for"]


@dataclass(frozen=True)
class TraceKey:
    """Everything the captured streams depend on — and nothing else.

    Machine parameters are deliberately absent: that is the invariant
    the whole pipeline rests on, and the replay-equivalence tests
    enforce it.  ``member`` selects one benchmark of a synthetic group
    (``parsec-cpu:blackscholes``); ``threads`` is the number of
    captured measurement streams (1 everywhere today — SMT and chip
    runs interleave thread generation with core timing and therefore
    stay live, see :mod:`repro.trace.live`).
    """

    workload: str
    member: str | None = None
    seed: int = 7
    window_uops: int = 100_000
    warm_uops: int = 40_000
    threads: int = 1
    fault_plan: FaultPlan | None = None
    #: When set, the streams drain one fleet op class (``read``/
    #: ``update``/...) through the app's
    #: :meth:`~repro.apps.base.ServerApp.cluster_op_stream` instead of
    #: the mixed serve loop — the capture side of cluster cost
    #: calibration (:mod:`repro.cluster.calibrate`).
    op_class: str | None = None

    @classmethod
    def from_config(cls, name: str, config,
                    member: str | None = None) -> "TraceKey":
        """The key for one workload under a ``RunConfig`` (params dropped)."""
        return cls(
            workload=name,
            member=member,
            seed=config.seed,
            window_uops=config.window_uops,
            warm_uops=config.warm_uops,
            fault_plan=config.fault_plan,
        )

    def label(self) -> str:
        """Human-readable run label (``group:member`` for group runs,
        ``workload@op`` for calibration captures)."""
        if self.op_class is not None:
            return f"{self.workload}@{self.op_class}"
        if self.member is None:
            return self.workload
        return f"{self.workload}:{self.member}"

    def fingerprint(self) -> str:
        """Canonical hex digest; the store filename and memo key.

        Built by the same structural canonicalization as the result
        fingerprint, with the codec schema folded in so traces encoded
        by an incompatible build can never be served.
        """
        # Imported lazily: core.sweep folds TRACE_SCHEMA into result
        # fingerprints, so a module-level import here would be a cycle.
        from repro.core.sweep import canonical

        document = {"schema": TRACE_SCHEMA, "key": canonical(self)}
        text = json.dumps(document, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass
class CapturedTrace:
    """One captured workload execution, ready to replay or persist."""

    fingerprint: str
    label: str
    #: ``(base, nbytes)`` ranges functionally installed into the LLC
    #: before the warm stream replays (code + steady-state data).
    fill_ranges: tuple[tuple[int, int], ...]
    warm: EncodedStream
    streams: tuple[EncodedStream, ...]
    #: JSON-safe capture provenance (key fields, uop counts) — shown by
    #: ``python -m repro trace ls`` without decoding the payload.
    meta: dict = field(default_factory=dict)

    def total_uops(self) -> int:
        """Warm plus measurement micro-ops across every stream."""
        return len(self.warm) + sum(len(s) for s in self.streams)

    def window_uops(self) -> int:
        """Measurement micro-ops across every stream."""
        return sum(len(s) for s in self.streams)

    def nbytes(self) -> int:
        """Encoded payload size across every stream."""
        return self.warm.nbytes() + sum(s.nbytes() for s in self.streams)


def fill_ranges_for(app: "ServerApp") -> tuple[tuple[int, int], ...]:
    """The functional-warming fill set of ``app``, as (base, nbytes).

    Every registered function's code, the kernel's steady-state ranges,
    and the app's own :meth:`~repro.apps.base.ServerApp.warm_ranges`.
    Must be snapshotted *before* any stream is drained: tracing a
    thread lazily registers its entry function in the code layout, and
    live warming never sees that function either — the snapshot keeps
    replayed warming byte-identical to live warming.
    """
    ranges = [(fn.base, fn.size) for fn in app.layout.functions()]
    ranges.extend(app.kernel.warm_ranges())
    ranges.extend(app.warm_ranges())
    return tuple((int(base), int(nbytes)) for base, nbytes in ranges)


def build_app_for(key: TraceKey) -> "ServerApp":
    """Construct (and fault-attach) the app instance a key describes."""
    from repro.core.workloads import REGISTRY, build_app

    if key.member is not None:
        app = REGISTRY[key.workload].app_cls(seed=key.seed,
                                             member=key.member)
    else:
        app = build_app(key.workload, seed=key.seed)
    if key.fault_plan is not None:
        app.attach_faults(FaultInjector(key.fault_plan))
    return app


def capture(key: TraceKey) -> tuple[CapturedTrace, "ServerApp"]:
    """Capture one workload execution.

    Returns the encoded trace *and* the live app that produced it —
    in-process callers (the faults figure) consume the app's service
    metrics, which a store-restored trace cannot supply.

    Stream order matters and mirrors the live runner exactly: fill
    ranges first (see :func:`fill_ranges_for`), then the warm stream,
    then each measurement stream, all from one app instance whose RNG
    and dataset state evolve across the drain.
    """
    if key.op_class is not None:
        return _capture_op_class(key)
    app = build_app_for(key)
    fill_ranges = fill_ranges_for(app)
    warm = encode_stream(app.trace(0, key.warm_uops))
    label = key.label()
    budget = key.window_uops // key.threads if key.threads > 1 \
        else key.window_uops
    streams = tuple(
        encode_stream(guard_trace(app.trace(tid, budget),
                                  trace_budget(budget), label))
        for tid in range(key.threads)
    )
    captured = CapturedTrace(
        fingerprint=key.fingerprint(),
        label=label,
        fill_ranges=fill_ranges,
        warm=warm,
        streams=streams,
        meta={
            "workload": key.workload,
            "member": key.member,
            "seed": key.seed,
            "window_uops": key.window_uops,
            "warm_uops": key.warm_uops,
            "threads": key.threads,
            "fault_events": (len(key.fault_plan.events)
                             if key.fault_plan is not None else 0),
        },
    )
    return captured, app


def _capture_op_class(key: TraceKey) -> tuple[CapturedTrace, "ServerApp"]:
    """Capture one fleet op class for cost calibration.

    Single-stream by construction (one thread, no fault plan — degraded
    paths are op classes of their own here), so replay reads it as
    columns.  Request boundaries are recorded into the trace's meta
    (``request_uops``) for proportional cycle attribution.
    """
    if key.fault_plan is not None:
        raise ValueError("op-class capture takes no fault plan; degraded "
                         "modes are separate op classes")
    if key.threads != 1:
        raise ValueError("op-class capture is single-threaded")
    app = build_app_for(key)
    # Degraded-path code must be registered before the layout snapshot
    # so all five op-class traces of one workload see one address space.
    app.prepare_cluster_ops()
    fill_ranges = fill_ranges_for(app)
    warm = encode_stream(app.cluster_op_stream(0, key.op_class,
                                               key.warm_uops))
    label = key.label()
    boundaries: list[int] = []
    stream = encode_stream(guard_trace(
        app.cluster_op_stream(0, key.op_class, key.window_uops, boundaries),
        trace_budget(key.window_uops), label))
    captured = CapturedTrace(
        fingerprint=key.fingerprint(),
        label=label,
        fill_ranges=fill_ranges,
        warm=warm,
        streams=(stream,),
        meta={
            "workload": key.workload,
            "member": key.member,
            "seed": key.seed,
            "window_uops": key.window_uops,
            "warm_uops": key.warm_uops,
            "threads": key.threads,
            "fault_events": 0,
            "op_class": key.op_class,
            "request_uops": boundaries,
        },
    )
    return captured, app
