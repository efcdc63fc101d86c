"""Layering rules.

The capture/replay pipeline is only sound if every micro-op stream
actually goes through it: a module that drains ``app.trace()`` on its
own bypasses capture (so the run can never be replayed or
deduplicated), bypasses the runaway-trace watchdog (so a wedged serve
loop hangs instead of raising), and is invisible to the pipeline taps.
The rule enforces the module boundary the refactor established.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.lint.findings import Finding
from repro.lint.rules import Rule

#: Methods whose call sites constitute direct trace consumption.
_TRACE_METHODS = frozenset({"trace", "cluster_op_stream"})

#: The one directory allowed to touch raw traces: the trace package.
_ALLOWED_DIR = "trace"


def _called_name(func: ast.expr) -> str | None:
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


#: ``time`` module attributes that read a real clock or block on one.
#: The simulated fleet advances time by popping events off a heap; any
#: of these leaking into ``cluster/`` couples a run to the host.
_CLOCK_FUNCS = frozenset({
    "time", "time_ns", "monotonic", "monotonic_ns", "sleep",
    "perf_counter", "perf_counter_ns", "process_time",
    "process_time_ns",
})

#: Directory component whose files must stay on simulated time.
_CLUSTER_DIR = "cluster"


class ClusterClockRule(Rule):
    """Wall-clock use inside the simulated fleet layer.

    The global ``wallclock`` rule deliberately permits
    ``time.monotonic``/``time.sleep`` because harness code timing *real*
    work needs them.  ``repro/cluster`` has no real work: every duration
    is simulated microseconds on the event loop, and a single
    ``sleep()`` or ``monotonic()`` there silently breaks both
    determinism and the capture-once/replay-many contract.  This rule
    closes the gap the harness exemption leaves open, for that one
    package.
    """

    name = "cluster-clock"
    severity = "error"
    description = ("the simulated fleet runs on EventLoop time only; "
                   "time.monotonic/sleep/perf_counter have no meaning "
                   "inside repro/cluster")

    def _confined(self, path: str) -> bool:
        return _CLUSTER_DIR in path.split("/")[:-1]

    def check_file(self, ctx) -> Iterable[Finding]:
        if not self._confined(ctx.path):
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                func = node.func
                if (isinstance(func, ast.Attribute)
                        and isinstance(func.value, ast.Name)
                        and func.value.id == "time"
                        and func.attr in _CLOCK_FUNCS):
                    yield self.finding(
                        ctx, node,
                        f"time.{func.attr}() inside the cluster layer "
                        "reads (or blocks on) the host clock; the fleet "
                        "is simulated — schedule on the EventLoop and "
                        "read loop.now instead")
            elif (isinstance(node, ast.ImportFrom)
                    and node.module == "time"):
                bad = sorted(alias.name for alias in node.names
                             if alias.name in _CLOCK_FUNCS)
                if bad:
                    yield self.finding(
                        ctx, node,
                        f"importing {', '.join(bad)} from time inside "
                        "the cluster layer pulls the host clock into a "
                        "simulated-time package; schedule on the "
                        "EventLoop and read loop.now instead")


#: Files (relative to the lint root) allowed to reference the static
#: service-cost tables: the two app classes that define them, and the
#: calibration module's explicitly-labeled fallback path.
_COST_ALLOWED = ("apps/kvstore/app.py", "apps/websearch/app.py",
                 "cluster/calibrate.py")


class ServiceCostTableRule(Rule):
    """Static service-cost tables referenced outside their owners.

    ``CLUSTER_SERVICE_COSTS`` is the hand-written fallback the measured
    calibration path replaced; any new reference outside the defining
    app classes and ``cluster/calibrate.py``'s ``static_model`` would
    smuggle literal costs back into the fleet model behind the
    ``--costs`` switch.  Price requests from a ``ServiceCostModel``
    (measured, or ``static_model()`` for the labeled fallback) instead.
    """

    name = "service-costs"
    severity = "error"
    description = ("CLUSTER_SERVICE_COSTS belongs to the app classes "
                   "and calibrate.py's fallback; everything else prices "
                   "ops through a ServiceCostModel")

    def _allowed(self, path: str) -> bool:
        return path.endswith(_COST_ALLOWED)

    def check_file(self, ctx) -> Iterable[Finding]:
        if self._allowed(ctx.path):
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Name) \
                    and node.id == "CLUSTER_SERVICE_COSTS":
                referenced = node
            elif isinstance(node, ast.Attribute) \
                    and node.attr == "CLUSTER_SERVICE_COSTS":
                referenced = node
            else:
                continue
            yield self.finding(
                ctx, referenced,
                "CLUSTER_SERVICE_COSTS referenced outside the app "
                "classes and cluster/calibrate.py; static tables are "
                "the labeled --costs=static fallback only — price ops "
                "through a ServiceCostModel "
                "(repro.cluster.calibrate.calibrate or static_model)")


class TraceLayerRule(Rule):
    """Direct trace consumption outside the trace layer.

    ``app.trace(...)``, ``app.cluster_op_stream(...)`` and raw
    ``guard_trace(...)`` wrapping belong to ``repro/trace/`` (capture
    and live generation).  Everything else must go through it —
    ``materialize``/``replay`` for trace-driven runs,
    ``repro.trace.live``'s ``warm_app``, ``live_stream`` and
    ``live_segments`` for generation-entangled ones.
    """

    name = "trace-layer"
    severity = "error"
    description = ("direct app.trace()/guard_trace() consumption "
                   "bypasses the capture/replay pipeline; route it "
                   "through repro/trace")

    def _allowed(self, path: str) -> bool:
        return _ALLOWED_DIR in path.split("/")[:-1]

    def check_file(self, ctx) -> Iterable[Finding]:
        if self._allowed(ctx.path):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            called = _called_name(node.func)
            if called == "guard_trace":
                yield self.finding(
                    ctx, node,
                    "raw guard_trace() wrapping outside the trace "
                    "layer; use repro.trace.live.live_stream so "
                    "capture and live generation share one watchdog "
                    "path")
            elif (called in _TRACE_METHODS
                    and isinstance(node.func, ast.Attribute)):
                yield self.finding(
                    ctx, node,
                    f".{called}() drained outside the trace layer "
                    "bypasses capture, the runaway-trace watchdog, and "
                    "the pipeline taps; go through "
                    "repro.trace.pipeline.materialize or "
                    "repro.trace.live")
