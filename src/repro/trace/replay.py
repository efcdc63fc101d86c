"""Timing replay: feed a captured trace to a core, guard-free.

Replay is the per-configuration half of the pipeline: build a fresh
:class:`~repro.uarch.hierarchy.MemoryHierarchy` for the machine
parameters under test, functionally warm it from the captured fill
ranges and warm stream, then run the core over the measurement
stream(s).

The measurement window goes through the core's one cycle loop.  A
single captured stream — every capture the figures make, fault-plan
captures included — enters it through
:func:`repro.uarch.fastpath.replay_columns`, which reads the encoded
columns positionally through a :class:`~repro.trace.columns.ColumnBatch`:
no per-uop ``MicroOp`` objects, no generator resumes.  A multi-stream
capture is decoded and fed to :meth:`repro.uarch.core.Core.run`, the
same loop's live entry point.  The replay-equivalence tests pin replay
against live generation for every workload in the registry.

No watchdog here: the stream length was bounded at capture time, so
wrapping replay in a guard would only add per-uop overhead to the hot
path.
"""

from __future__ import annotations

import gc
from typing import TYPE_CHECKING, Iterable, Iterator, List, Protocol

from repro.trace.columns import ColumnBatch, batch_for
from repro.uarch.core import Core, CoreResult
from repro.uarch.fastpath import replay_columns
from repro.uarch.hierarchy import MemoryHierarchy
from repro.uarch.params import MachineParams
from repro.uarch.uop import MicroOp

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.trace.capture import CapturedTrace

__all__ = ["TraceSource", "ReplaySource", "fill_lines",
           "functional_replay_batch", "replay_trace"]


class TraceSource(Protocol):
    """What a core-feeding stage needs from any trace provider.

    Implemented by :class:`ReplaySource` (decoded captures) and
    :class:`repro.trace.live.LiveSource` (generation-entangled runs);
    the runner is indifferent to which it holds.
    """

    def warm_into(self, hierarchy: MemoryHierarchy) -> None:
        """Functionally warm ``hierarchy`` for this trace."""

    def streams(self) -> List[Iterator[MicroOp]]:
        """One measurement micro-op iterator per hardware thread."""


def fill_lines(hierarchy: MemoryHierarchy,
               ranges: Iterable[tuple[int, int]]) -> None:
    """Install ``(base, nbytes)`` ranges into the LLC, in order.

    Each range installs ``ceil(nbytes / line_bytes)`` consecutive lines
    starting at ``base``'s line
    (:meth:`~repro.uarch.cache.Cache.install_ranges`), so a range that
    starts mid-line can leave out the line holding its last bytes.  The
    line size comes from the LLC being warmed — a 128-byte-line
    hierarchy must be filled at 128-byte granularity, not a hardcoded
    64 (walking such a hierarchy with a 64-byte step would double-count
    every line's LRU touch and halve the effective reach of the walk).
    """
    hierarchy.llc.install_ranges(ranges)


def functional_replay_batch(hierarchy: MemoryHierarchy,
                            batch: ColumnBatch) -> None:
    """Replay ``batch`` through the hierarchy without core timing.

    Orders LRU recency, fills L1/L2/TLBs, and trains the prefetcher
    tables — one instruction-fetch access per new code line plus the
    load/store data accesses (:meth:`ColumnBatch.access_ops`), walked
    by the hierarchy's batched :meth:`~MemoryHierarchy.warm_batch`.
    The code-line granularity is the hierarchy's own ``line_bytes``
    (the same shift the core's fetch stage uses), not a hardcoded 64.
    Capture replay and live warming (:func:`repro.trace.live.warm_app`)
    both warm through here.
    """
    line_shift = hierarchy.params.line_bytes.bit_length() - 1
    hierarchy.warm_batch(batch.access_ops(line_shift))


class ReplaySource:
    """A :class:`TraceSource` over one :class:`CapturedTrace`."""

    def __init__(self, captured: "CapturedTrace") -> None:
        self.captured = captured

    def warm_into(self, hierarchy: MemoryHierarchy) -> None:
        """Replay the captured fill ranges and warm stream."""
        fill_lines(hierarchy, self.captured.fill_ranges)
        functional_replay_batch(hierarchy, batch_for(self.captured.warm))

    def streams(self) -> List[Iterator[MicroOp]]:
        """Fresh decode iterators, one per captured thread stream."""
        return [stream.decode() for stream in self.captured.streams]


def replay_trace(captured: "CapturedTrace",
                 params: MachineParams) -> CoreResult:
    """One timing measurement: warm a fresh hierarchy, run the core.

    The cyclic collector is paused for the duration of the measurement:
    replay allocates no reference cycles (cache dicts, deques, and the
    memoized column lists are all acyclic), but its steady allocation
    rate triggers generation-2 collections whose full-heap scans walk
    the multi-million-element memoized trace columns — measured at
    roughly a third of replay wall time, collecting nothing.
    """
    source = ReplaySource(captured)
    hierarchy = MemoryHierarchy(params)
    gc_was_enabled = gc.isenabled()
    if gc_was_enabled:
        gc.disable()
    try:
        source.warm_into(hierarchy)
        core = Core(params, hierarchy)
        if len(captured.streams) == 1:
            return replay_columns(core, batch_for(captured.streams[0]))
        return core.run(source.streams())
    finally:
        if gc_was_enabled:
            gc.enable()
