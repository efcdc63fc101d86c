"""Live generation: the streams that cannot be captured ahead of time.

SMT and multi-core measurements interleave thread streams at the
core's cycle granularity, and each pull mutates the shared app state
(its RNG, its dataset) — the stream *content* depends on core timing,
so those runs cannot be captured once and replayed across machine
configurations.  Their warming (:func:`warm_app`) goes through the
same fill and functional-replay helpers as replay, and their
measurement streams (:func:`live_stream`) through the same watchdog as
capture, so the watchdog and the layering rule hold everywhere.

This module, with :mod:`repro.trace.capture`, is the sanctioned home
of direct ``app.trace()`` consumption — the ``trace-layer`` lint rule
flags it outside ``repro/trace/``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, List

from repro.faults.watchdog import guard_trace, trace_budget
from repro.trace.capture import fill_ranges_for
from repro.trace.codec import encode_stream
from repro.trace.columns import ColumnBatch
from repro.trace.replay import fill_lines, functional_replay_batch
from repro.uarch.hierarchy import MemoryHierarchy
from repro.uarch.uop import MicroOp

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.apps.base import ServerApp

__all__ = ["warm_app", "live_stream", "live_segments", "take_uops"]


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
    (round-robin multi-core interleaving; the chip runs' streams)."""
    per_segment = max(1, budget // segments)
    return [app.trace(tid, per_segment) for _ in range(segments)]


def take_uops(app: "ServerApp", tid: int, budget: int) -> List[MicroOp]:
    """Materialize ``budget`` micro-ops of a live trace (debug dumps)."""
    return list(app.trace(tid, budget))
