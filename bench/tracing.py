"""Per-layer spans recorded from outside the program.

A traced pass wraps the public functions at each layer boundary of
``repro`` (the table :data:`LAYER_SPANS`) and records one span per call:
name, start, end, the index of the enclosing span, and a few counts
taken from the call's arguments or result.  Nothing under ``src/`` is
edited; the wrappers are installed into the live modules after import
and removed afterwards.

Two import traps decide how a wrapper is installed:

* ``repro.trace`` re-exports ``capture``, so the package attribute
  ``repro.trace.capture`` is the *function*, not the module.  Modules are
  looked up with :func:`importlib.import_module`, which returns the
  ``sys.modules`` entry.
* A name imported by value (``from repro.trace.columns import
  batch_for``) is a second binding of the same function; patching only
  the defining module would miss every call made through it.  Each such
  use site is listed beside the definition and patched too.

Only call-granularity functions of about a millisecond or more are
wrapped; a per-access function such as ``Cache.install_span`` runs
about ten thousand times per replay and would drown the measurement.
"""

from __future__ import annotations

import functools
import importlib
import time
from typing import Callable, Sequence


def _capture_stats(args, result, error):
    return {"uops": result[0].total_uops()} if error is None else None


def _store_get_stats(args, result, error):
    if error is not None or result is None:
        return {"hits": 0, "bytes": 0}
    return {"hits": 1, "bytes": result.nbytes()}


def _store_put_stats(args, result, error):
    return {"bytes": args[1].nbytes()}


def _columnar_stats(args, result, error):
    stats = {"uops": args[1].length}
    if error is None:
        stats["cycles"] = result.cycles
    return stats


def _general_stats(args, result, error):
    return {"uops": result.instructions} if error is None else None


def _hit_stats(args, result, error):
    return {"hits": int(error is None and result is not None)}


def _sweep_stats(args, result, error):
    return {"cells": len(args[1]),
            "failed": len(getattr(error, "failures", ())) if error else 0}


def _simulate_stats(args, result, error):
    if error is not None:
        return None
    return {"events": result["events_fired"], "requests": result["requests"]}


#: ``(span name, binding sites, stats extractor)``.  A site is
#: ``module:attribute`` or ``module:Class.method``; the first site of a
#: function is its definition, the rest are by-value import sites.
LAYER_SPANS: tuple[tuple[str, tuple[str, ...], Callable | None], ...] = (
    ("apps.build", ("repro.core.workloads:build_app",
                    "repro.core.runner:build_app",
                    "repro.trace.capture:build_app_for"), None),
    ("trace.capture", ("repro.trace.capture:capture",
                       "repro.trace.pipeline:capture"), _capture_stats),
    ("trace.live_warm", ("repro.trace.live:warm_app",), None),
    ("trace.columns", ("repro.trace.columns:batch_for",
                       "repro.trace.replay:batch_for"), None),
    ("trace.store_get", ("repro.trace.store:TraceStore.get",),
     _store_get_stats),
    ("trace.store_put", ("repro.trace.store:TraceStore.put",),
     _store_put_stats),
    ("uarch.fill", ("repro.trace.replay:fill_lines",
                    "repro.trace.live:fill_lines"), None),
    ("uarch.warm", ("repro.uarch.hierarchy:MemoryHierarchy.warm_batch",),
     None),
    ("uarch.columnar", ("repro.uarch.fastpath:replay_columns",
                        "repro.trace.replay:replay_columns"),
     _columnar_stats),
    ("uarch.general", ("repro.uarch.core:Core.run",), _general_stats),
    ("uarch.chip", ("repro.uarch.chip:Chip.run_segments",), None),
    ("core.runner", ("repro.core.runner:run_workload",), None),
    ("core.result_store_get", ("repro.core.store:ResultStore.get",
                               "repro.core.store:ResultStore.get_cluster",
                               "repro.core.store:ResultStore.get_calibration"),
     _hit_stats),
    ("core.result_store_put", ("repro.core.store:ResultStore.put",
                               "repro.core.store:ResultStore.put_cluster",
                               "repro.core.store:ResultStore.put_calibration"),
     None),
    ("core.sweep", ("repro.core.sweep:SweepEngine.run",
                    "repro.cluster.sweep:ClusterSweepEngine.run"),
     _sweep_stats),
    ("cluster.calibrate", ("repro.cluster.calibrate:calibrate",), None),
    ("cluster.simulate", ("repro.cluster.service:simulate",
                          "repro.cluster.sweep:simulate"), _simulate_stats),
)

SPAN_NAMES: tuple[str, ...] = tuple(name for name, _, _ in LAYER_SPANS)

#: Spans whose presence under a ``core.runner`` call means the runner
#: measured afresh rather than returning an LRU entry.
_TIMED_LOOPS = ("uarch.columnar", "uarch.general")


def _resolve(site: str):
    """``(owner, attribute)`` for one ``module:Attr[.method]`` site."""
    module_name, _, path = site.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attribute = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, attribute


def check_sites() -> list[str]:
    """Sites of :data:`LAYER_SPANS` that no longer resolve to a callable
    (a renamed function, or a by-value import that moved)."""
    problems = []
    for name, sites, _ in LAYER_SPANS:
        for site in sites:
            try:
                owner, attribute = _resolve(site)
                target = getattr(owner, attribute)
            except (ImportError, AttributeError) as exc:
                problems.append(f"{name}: {site}: {exc}")
                continue
            if not callable(target):
                problems.append(f"{name}: {site} is not callable")
    return problems


class Tracer:
    """An in-memory span stack over the :data:`LAYER_SPANS` wrappers.

    ``spans`` holds ``[name, start, end, parent, stats]`` records in
    call order; ``parent`` is the index of the enclosing span or -1.
    Use as a context manager: the wrappers are installed on entry and
    the original bindings restored on exit.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn: Callable, stats: Callable | None = None):
        """``fn`` recording one ``name`` span per call."""
        clock, spans, stack = self.clock, self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(record)
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                record[2] = clock()
                stack.pop()
                if stats is not None:
                    record[4] = stats(args, result, error)
        return wrapper

    def __enter__(self) -> "Tracer":
        try:
            for name, sites, stats in LAYER_SPANS:
                for site in sites:
                    owner, attribute = _resolve(site)
                    original = getattr(owner, attribute)
                    self._undo.append((owner, attribute, original))
                    setattr(owner, attribute,
                            self.wrap(name, original, stats))
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc_info) -> None:
        while self._undo:
            owner, attribute, original = self._undo.pop()
            setattr(owner, attribute, original)


def self_times(spans: Sequence[Sequence]) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Children are recorded strictly inside their parent (the wrappers
    nest on one stack), so subtracting direct children's durations is
    the same as subtracting the union of the intervals they cover.
    """
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def covered_time(spans: Sequence[Sequence], start: float, end: float) -> float:
    """Length of the union of root-span intervals clipped to [start, end]."""
    covered, reach = 0.0, start
    roots = sorted((s, e) for _, s, e, parent, _ in spans if parent < 0)
    for s, e in roots:
        s, e = max(s, reach), min(e, end)
        if e > s:
            covered += e - s
            reach = e
    return covered


def layer_metrics(spans: Sequence[Sequence], start: float,
                  end: float) -> dict[str, float]:
    """The per-layer metrics of one traced pass (all but tracing.overhead).

    ``start``/``end`` bound the pass; ``other.self_s`` is the part of it
    no span covers.  Counts of a span never reached are 0.
    """
    calls = dict.fromkeys(SPAN_NAMES, 0)
    own = dict.fromkeys(SPAN_NAMES, 0.0)
    totals: dict[tuple[str, str], float] = {}
    for record, self_s in zip(spans, self_times(spans)):
        name, stats = record[0], record[4]
        calls[name] += 1
        own[name] += self_s
        for stat, value in (stats or {}).items():
            totals[name, stat] = totals.get((name, stat), 0) + value

    def total(name: str, stat: str) -> float:
        return totals.get((name, stat), 0)

    def rate(name: str, stat: str) -> float:
        return total(name, stat) / own[name] if own[name] > 0 else 0.0

    metrics: dict[str, float] = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.calls"] = calls[name]
        metrics[f"{name}.self_s"] = own[name]
    for name, stat in (("trace.capture", "uops"),
                       ("trace.store_get", "hits"),
                       ("trace.store_get", "bytes"),
                       ("trace.store_put", "bytes"),
                       ("uarch.columnar", "uops"),
                       ("uarch.columnar", "cycles"),
                       ("uarch.general", "uops"),
                       ("core.result_store_get", "hits"),
                       ("core.sweep", "cells"),
                       ("core.sweep", "failed"),
                       ("cluster.simulate", "events"),
                       ("cluster.simulate", "requests")):
        metrics[f"{name}.{stat}"] = total(name, stat)
    for name in ("trace.capture", "uarch.columnar", "uarch.general"):
        metrics[f"{name}.uops_per_s"] = rate(name, "uops")
    metrics["cluster.simulate.events_per_s"] = rate("cluster.simulate",
                                                    "events")
    metrics["core.runner.lru_hit_ratio"] = _lru_hit_ratio(spans)
    metrics["other.self_s"] = (end - start) - covered_time(spans, start, end)
    return metrics


def _lru_hit_ratio(spans: Sequence[Sequence]) -> float:
    """Share of ``core.runner`` calls that reached no timed loop."""
    measured: set[int] = set()
    for record in spans:
        if record[0] in _TIMED_LOOPS:
            parent = record[3]
            while parent >= 0:
                if spans[parent][0] == "core.runner":
                    measured.add(parent)
                parent = spans[parent][3]
    runner_calls = [i for i, record in enumerate(spans)
                    if record[0] == "core.runner"]
    if not runner_calls:
        return 0.0
    hits = sum(1 for i in runner_calls if i not in measured)
    return hits / len(runner_calls)


def timed_uops(spans: Sequence[Sequence]) -> int:
    """Window micro-ops the core model timed (columnar + general loops)."""
    return int(sum((record[4] or {}).get("uops", 0) for record in spans
                   if record[0] in _TIMED_LOOPS))


def span_tree(spans: Sequence[Sequence]) -> list[dict]:
    """Spans aggregated by their call path (``a/b/c``), in first-seen order."""
    paths: list[str] = []
    for name, _, _, parent, _ in spans:
        paths.append(f"{paths[parent]}/{name}" if parent >= 0 else name)
    tree: dict[str, dict] = {}
    for path, (_, start, end, _, _), own in zip(paths, spans,
                                                 self_times(spans)):
        node = tree.setdefault(path, {"path": path, "calls": 0,
                                      "total_s": 0.0, "self_s": 0.0})
        node["calls"] += 1
        node["total_s"] += end - start
        node["self_s"] += own
    return list(tree.values())


def check_self_time_sum(spans: Sequence[Sequence], start: float, end: float,
                        tolerance: float = 0.01) -> str | None:
    """None when per-span self times plus ``other`` add up to the pass wall.

    Self times telescope to the summed root durations; ``other`` is the
    wall minus the union of root intervals inside the pass.  The two
    agree only when every span lies inside the pass and no two roots
    overlap, which is what the check guards.
    """
    wall = end - start
    own = self_times(spans)
    negative = [spans[i][0] for i, value in enumerate(own) if value < -1e-6]
    if negative:
        return f"negative self time in {sorted(set(negative))}"
    other = wall - covered_time(spans, start, end)
    total = sum(own) + other
    if abs(total - wall) > tolerance * wall:
        return (f"self times + other = {total:.6f} s, "
                f"traced wall = {wall:.6f} s")
    return None
