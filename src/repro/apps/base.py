"""Common application scaffolding.

A :class:`ServerApp` owns one simulated address space, code layout, and
OS kernel, builds its dataset at construction time, and serves work
quanta on demand.  Multi-threaded apps share the instance across
hardware threads — each thread gets its own :class:`Runtime` (its own
PC stream and sequence numbers) but operates on the shared dataset,
which is what produces genuine read-write sharing (Figure 6).

Fault handling: a :class:`~repro.faults.injector.FaultInjector` can be
attached to any app (:meth:`ServerApp.attach_faults`).  Attachment
registers the app's degraded-path code in its :class:`CodeLayout` (so
error handling has genuine instruction-footprint consequences — the
Figure 2 mechanism) and routes every serve call through
:meth:`ServerApp.serve_one`, which consults the injector and executes
the matching degraded paths.  With no injector (or an empty plan, which
never attaches) the serve path is byte-identical to the healthy one.
"""

from __future__ import annotations

import abc
import itertools
import random
from typing import Iterator

from repro.faults.injector import FaultInjector
from repro.faults.metrics import ServiceMetrics
from repro.faults.plan import FaultEvent
from repro.faults.retry import RetryPolicy
from repro.faults.watchdog import MAX_SILENT_SERVES, RunawayTraceError
from repro.machine.address_space import AddressSpace
from repro.machine.codelayout import CodeLayout, Function
from repro.machine.os_model import OsKernel
from repro.machine.runtime import Runtime
from repro.uarch.uop import MicroOp

_LINE = 64


class ServerApp(abc.ABC):
    """Base class for all workload applications."""

    #: Registry name, e.g. "data-serving".
    name: str = "app"
    #: Whether the workload meaningfully exercises the OS (Fig. 2 OS bars).
    os_intensive: bool = False

    #: Degraded-path code, registered only when faults attach:
    #: (function, KB, locality, bb mean, hot fraction) — apps extend
    #: this with their own failover/error-handling functions.
    FAULT_CODE_PLAN: list[tuple[str, int, str, int, float]] = [
        ("error_classifier", 48, "scatter", 7, 0.2),
        ("retry_dispatch", 40, "scatter", 8, 0.2),
        ("failover_coordinator", 64, "scatter", 7, 0.15),
        ("degraded_serve", 56, "scatter", 8, 0.2),
        ("reclaim_scan", 32, "loop", 10, 0.5),
    ]

    #: Probability a request inside an open drop window is dropped
    #: (scaled by the event's severity, capped at 0.9).
    DROP_BASE_P = 0.35

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self.rng = random.Random(seed)
        self.space = AddressSpace()
        self.layout = CodeLayout()
        self.kernel = OsKernel(self.space, self.layout)
        self._runtimes: dict[int, Runtime] = {}
        self._request_counter = itertools.count()
        self.faults: FaultInjector | None = None
        self.service = ServiceMetrics()
        self.fault_policy = RetryPolicy()
        self._fault_fns: dict[str, Function] = {}
        self._fault_scratch = 0
        self.setup()

    # -- lifecycle ---------------------------------------------------------
    @abc.abstractmethod
    def setup(self) -> None:
        """Build datasets and register code (runs once, untraced)."""

    @abc.abstractmethod
    def serve(self, rt: Runtime) -> None:
        """Execute one unit of work (a request, task slice, ...) on ``rt``."""

    # -- fault handling ------------------------------------------------------
    def attach_faults(self, injector: FaultInjector | None) -> None:
        """Attach a fault injector for the lifetime of this app instance.

        A ``None`` injector — or one built from an empty plan — leaves
        the app untouched: no degraded-path code is registered, and
        serving stays byte-identical to a healthy run.
        """
        if injector is None or not injector.enabled:
            self.faults = None
            return
        self.faults = injector
        if not self._fault_fns:
            self.register_fault_hooks()

    def register_fault_hooks(self) -> None:
        """Register degraded-path code (and data) in the app's layout.

        Runs once, at fault attachment — never for healthy runs, so a
        healthy code layout is identical to the seed's.  Subclasses
        extend :attr:`FAULT_CODE_PLAN` with real failover functions and
        override this to allocate their recovery data structures.
        """
        for name, kb, locality, bb, hot in self.FAULT_CODE_PLAN:
            self._fault_fns[name] = self.layout.function(
                f"{self.name}.fault.{name}", kb * 1024, locality=locality,
                bb_mean=bb, hot_fraction=hot,
            )
        # Generic recovery scratch: peer tables, redo queues, reclaim
        # targets for apps that don't override the handlers.
        self._fault_scratch = self.space.alloc(128 * 1024, "heap", align=_LINE)

    def _walk_fault_code(self, rt: Runtime, names: tuple[str, ...],
                         event: FaultEvent) -> None:
        """Hop briefly through several error-handling functions.

        Real failure handling is exactly this shape — classify, log,
        consult cluster state, dispatch — touching many cold functions
        for a few basic blocks each, which is what makes degraded
        operation instruction-fetch-hostile (the Figure 2 mechanism)
        rather than a long stay inside one warm loop.
        """
        fns = self._fault_fns
        for name in names:
            with rt.frame(fns[name]):
                rt.alu(n=16 + int(14 * event.severity), chain=False)

    def serve_one(self, rt: Runtime) -> None:
        """Serve one request, routing through any active degraded paths.

        This is the harness entry point (:meth:`trace` calls it): it
        ticks the injector's request clock, dispatches to the
        ``fault_*`` handlers for the open fault windows, and feeds the
        :class:`~repro.faults.metrics.ServiceMetrics` accumulator with
        the client-visible outcome.
        """
        injector = self.faults
        start = rt.seq
        if injector is None:
            self.serve(rt)
            self.service.observe(rt.seq - start)
            return
        active = injector.tick()
        if not active:
            self.serve(rt)
            self.service.observe(rt.seq - start)
            return
        kinds = {event.kind: event for event in active}
        retries, ok, dropped, waited = 0, True, False, 0
        drop = kinds.get("request-drop")
        if drop is not None and injector.roll(
                min(0.9, self.DROP_BASE_P * drop.severity)):
            dropped = True
            injector.count("request-drop", dropped=True)
            retries, ok, waited = self.fault_request_drop(rt, drop)
        else:
            crash = kinds.get("replica-crash")
            if crash is not None:
                injector.count("replica-crash")
                self.fault_replica_crash(rt, crash)
            self.serve(rt)
        served = rt.seq - start
        straggler = kinds.get("straggler")
        if straggler is not None and not dropped:
            injector.count("straggler")
            self.fault_straggler(rt, straggler)
        storm = kinds.get("gc-storm")
        if storm is not None:
            injector.count("gc-storm")
            self.fault_gc_storm(rt, storm)
        pressure = kinds.get("memory-pressure")
        if pressure is not None:
            injector.count("memory-pressure")
            self.fault_memory_pressure(rt, pressure)
        latency = rt.seq - start + waited
        if straggler is not None:
            # A slow node stretches wall-clock service time without
            # executing more instructions; charge the queueing delay.
            latency += int(served * straggler.severity)
        policy = self.fault_policy
        self.service.observe(
            latency,
            ok=ok,
            retries=retries,
            hedged=latency > policy.hedge_after,
            timed_out=latency > policy.timeout,
            dropped=dropped,
        )

    def fault_request_drop(self, rt: Runtime,
                           event: FaultEvent) -> tuple[int, bool, int]:
        """The request-drop path: classify the error, answer the client,
        then play out the client's capped backoff-retry loop (each retry
        re-executes dispatch; the successful one re-serves the request).

        Returns ``(retries, succeeded, backoff_spent)``.
        """
        fns = self._fault_fns
        with rt.frame(fns["error_classifier"]):
            rt.alu(n=20 + int(30 * event.severity), chain=False)
        self._walk_fault_code(
            rt, ("failover_coordinator", "degraded_serve"), event)
        self.kernel.send(rt, 128)  # error/timeout response to the client
        self.kernel.context_switch(rt)  # the blocked connection yields
        retries, ok, waited = self.fault_policy.resolve_failure(
            self.faults.rng)
        for _ in range(retries):
            with rt.frame(fns["retry_dispatch"]):
                rt.alu(n=24, chain=False)
            self._walk_fault_code(rt, ("error_classifier",), event)
            self.kernel.recv(rt, 96)  # the client's retransmitted request
        if ok:
            self.serve(rt)  # the successful retry re-executes the request
        return retries, ok, waited

    def fault_replica_crash(self, rt: Runtime, event: FaultEvent) -> None:
        """A peer replica is down: failure detection plus write-path
        failover (apps override with hinted handoff, shard re-routing,
        task re-scheduling, ...)."""
        fns = self._fault_fns
        with rt.frame(fns["failover_coordinator"]):
            rt.scan(self._fault_scratch, 4 * 1024, work_per_line=1)
            rt.alu(n=20 + int(20 * event.severity), chain=False)
        self._walk_fault_code(
            rt, ("error_classifier", "retry_dispatch"), event)
        self.kernel.send(rt, 192)  # failure-detector probe / redirect
        self.kernel.recv(rt, 128)  # the surviving peer's state digest

    def fault_straggler(self, rt: Runtime, event: FaultEvent) -> None:
        """A slow node: hedging bookkeeping and scheduler churn."""
        fns = self._fault_fns
        with rt.frame(fns["degraded_serve"]):
            rt.alu(n=20 + int(30 * event.severity), chain=False)
        self._walk_fault_code(
            rt, ("retry_dispatch", "failover_coordinator"), event)
        self.kernel.send(rt, 128)  # the hedged duplicate request
        self.kernel.context_switch(rt)

    def fault_gc_storm(self, rt: Runtime, event: FaultEvent) -> None:
        """A collector pause storm: a marking scan over hot heap plus
        the scattered remark/reference-processing code a real collector
        executes (apps with real nurseries override to scan them)."""
        fns = self._fault_fns
        with rt.frame(fns["degraded_serve"]):
            nbytes = min(32 * 1024, int(6 * 1024 * event.severity))
            rt.scan(self._fault_scratch, nbytes, work_per_line=1)
        self._walk_fault_code(
            rt, ("error_classifier", "failover_coordinator", "reclaim_scan"),
            event)

    def fault_memory_pressure(self, rt: Runtime, event: FaultEvent) -> None:
        """A reclaim burst: scan-and-evict plus a scheduler round trip."""
        fns = self._fault_fns
        with rt.frame(fns["reclaim_scan"]):
            nbytes = min(32 * 1024, int(4 * 1024 * event.severity))
            rt.scan(self._fault_scratch, nbytes, work_per_line=1, write=True)
        self._walk_fault_code(
            rt, ("failover_coordinator", "degraded_serve"), event)
        self.kernel.context_switch(rt)

    # -- cluster op classes --------------------------------------------------
    def cluster_ops(self) -> dict:
        """Per-op-class serve handlers for fleet cost calibration.

        Maps an op-class name (``read``/``update``/``hint``/``repair``/
        ``probe``) to a one-request callable ``fn(rt)``.  Apps that can
        host a fleet replica override this; the default (no handlers)
        means the workload has no cluster backend.
        """
        return {}

    def prepare_cluster_ops(self) -> None:
        """Make the degraded-mode paths traceable for op-class capture.

        Several op classes (hinted handoff, read repair) execute the
        fault-handling code the app registers lazily at fault
        attachment; calibration runs without an injector, so the hooks
        are registered here — eagerly, before any layout snapshot, so
        all five op-class traces see one consistent address space.
        """
        if not self.cluster_ops():
            raise KeyError(f"{self.name} has no cluster op classes")
        if not self._fault_fns:
            self.register_fault_hooks()

    def serve_cluster_op(self, rt: Runtime, op: str) -> None:
        """Execute one request of class ``op`` (calibration serve path)."""
        handlers = self.cluster_ops()
        handler = handlers.get(op)
        if handler is None:
            raise KeyError(
                f"{self.name} has no cluster op class {op!r}; "
                f"known: {', '.join(sorted(handlers))}")
        handler(rt)

    # -- runtimes ------------------------------------------------------------
    def runtime(self, tid: int) -> Runtime:
        rt = self._runtimes.get(tid)
        if rt is None:
            rt = Runtime(self.layout, tid=tid, seed=self.seed)
            self._runtimes[tid] = rt
        return rt

    def next_request_id(self) -> int:
        return next(self._request_counter)

    # -- functional warming -------------------------------------------------
    def warm_ranges(self) -> list[tuple[int, int]]:
        """Data ranges (base, nbytes) that are LLC-resident at steady state.

        The measurement windows (≈10⁵ micro-ops) are far too short to
        reach the steady-state contents of a 12 MB LLC the paper reaches
        after its ramp-up plus 180 s run, so the runner functionally
        installs these ranges (plus all code) before measuring — the
        standard "functional warming" technique of sampled simulation.
        """
        return []

    def warm(self, hierarchy, trace_uops: int = 40_000) -> None:
        """Functionally warm a hierarchy: LLC contents + short replay.

        Delegates to :func:`repro.trace.live.warm_app` — the same fill
        walk and functional replay a captured trace performs, so live
        and replayed warming stay byte-identical by construction.
        """
        from repro.trace.live import warm_app

        warm_app(self, hierarchy, trace_uops)

    # -- trace production ------------------------------------------------
    def trace(self, tid: int = 0, budget: int = 100_000) -> Iterator[MicroOp]:
        """Yield roughly ``budget`` micro-ops of thread ``tid``'s execution.

        A stall watchdog raises :class:`RunawayTraceError` if serve
        calls stop emitting micro-ops — a wedged serve loop would
        otherwise spin here forever without filling the window.
        """
        rt = self.runtime(tid)
        emitted = 0
        silent = 0
        while emitted < budget:
            self.serve_one(rt)
            buf = rt.take()
            if buf:
                silent = 0
            else:
                silent += 1
                if silent >= MAX_SILENT_SERVES:
                    raise RunawayTraceError(
                        f"{self.name}: {silent} consecutive serve calls "
                        f"emitted no micro-ops — the serve loop is wedged"
                    )
            emitted += len(buf)
            yield from buf

    def cluster_op_stream(
        self, tid: int, op: str, budget: int,
        boundaries: list[int] | None = None,
    ) -> Iterator[MicroOp]:
        """Yield roughly ``budget`` micro-ops of repeated ``op`` requests.

        The calibration twin of :meth:`trace`: every serve call executes
        the same op class, so the stream prices exactly one request
        kind.  When ``boundaries`` is given, the per-request micro-op
        counts are appended to it — the replayed cycle total is
        attributed back to individual requests proportionally to these
        counts, which is where the per-op latency *distribution* (not
        just a mean) comes from.
        """
        rt = self.runtime(tid)
        emitted = 0
        silent = 0
        while emitted < budget:
            self.serve_cluster_op(rt, op)
            buf = rt.take()
            if buf:
                silent = 0
            else:
                silent += 1
                if silent >= MAX_SILENT_SERVES:
                    raise RunawayTraceError(
                        f"{self.name}: {silent} consecutive {op!r} serves "
                        f"emitted no micro-ops — the serve loop is wedged"
                    )
            if boundaries is not None:
                boundaries.append(len(buf))
            emitted += len(buf)
            yield from buf
