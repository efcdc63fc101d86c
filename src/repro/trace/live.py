"""Live trace sources: generation that cannot be captured ahead of time.

SMT and multi-core measurements interleave thread streams at the
core's cycle granularity, and each pull mutates the shared app state
(its RNG, its dataset) — the stream *content* depends on core timing,
so those runs cannot be captured once and replayed across machine
configurations.  They still speak the pipeline's
:class:`~repro.trace.replay.TraceSource` protocol through
:class:`LiveSource`, and their warming and guarding go through the
same helpers as capture, so the watchdog and the layering rule hold
everywhere.

This module (with :mod:`repro.trace.capture` and ``core/runner.py``)
is the sanctioned home of direct ``app.trace()`` consumption — the
``trace-layer`` lint rule flags it anywhere else.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, List, Sequence

from repro.faults.watchdog import guard_trace, trace_budget
from repro.trace.capture import fill_ranges_for
from repro.trace.codec import encode_stream
from repro.trace.columns import ColumnBatch
from repro.trace.replay import fill_lines, functional_replay_batch
from repro.uarch.hierarchy import MemoryHierarchy
from repro.uarch.uop import MicroOp

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.apps.base import ServerApp

__all__ = ["LiveSource", "warm_app", "live_stream", "live_segments",
           "take_uops"]


def warm_app(app: "ServerApp", hierarchy: MemoryHierarchy,
             trace_uops: int = 40_000) -> None:
    """Functionally warm ``hierarchy`` from ``app``, live.

    The same walk replay performs from a capture: install the fill
    ranges, then encode a short live trace and warm through it without
    core timing.  This is the implementation behind
    :meth:`ServerApp.warm`.
    """
    fill_lines(hierarchy, fill_ranges_for(app))
    warm = ColumnBatch(encode_stream(app.trace(0, trace_uops)))
    functional_replay_batch(hierarchy, warm)


def live_stream(app: "ServerApp", tid: int, budget: int,
                label: str) -> Iterator[MicroOp]:
    """A guarded live measurement stream for one hardware thread.

    Live generation runs unbounded app code, so — like capture — it is
    always wrapped in the runaway-trace watchdog.
    """
    return guard_trace(app.trace(tid, budget), trace_budget(budget), label)


def live_segments(app: "ServerApp", tid: int, budget: int,
                  segments: int) -> List[Iterator[MicroOp]]:
    """Split a live budget into lazily-generated trace chunks
    (round-robin multi-core interleaving; behind
    :meth:`ServerApp.trace_segments`)."""
    per_segment = max(1, budget // segments)
    return [app.trace(tid, per_segment) for _ in range(segments)]


def take_uops(app: "ServerApp", tid: int, budget: int) -> List[MicroOp]:
    """Materialize ``budget`` micro-ops of a live trace (debug dumps)."""
    return list(app.trace(tid, budget))


class LiveSource:
    """A :class:`~repro.trace.replay.TraceSource` over a live app.

    ``budgets`` gives one measurement budget per hardware thread;
    every stream is watchdog-guarded.  Used for SMT runs, where two
    threads of one app must be pulled in core-interleaved order.
    """

    def __init__(self, app: "ServerApp", budgets: Sequence[int],
                 label: str, warm_uops: int = 40_000) -> None:
        self.app = app
        self.budgets = tuple(budgets)
        self.label = label
        self.warm_uops = warm_uops

    def warm_into(self, hierarchy: MemoryHierarchy) -> None:
        """Live functional warming (see :func:`warm_app`)."""
        warm_app(self.app, hierarchy, self.warm_uops)

    def streams(self) -> List[Iterator[MicroOp]]:
        """One guarded live stream per configured thread budget."""
        return [
            live_stream(self.app, tid, budget, self.label)
            for tid, budget in enumerate(self.budgets)
        ]
