"""Replay entry point: a captured thread's columns into the cycle loop.

A single-thread trace replay — the shape of every Figure 1/2/4/5/7
cell — already holds its micro-ops as a finished
:class:`~repro.trace.columns.ColumnBatch`.  :func:`replay_columns`
hands the batch's memoized columns to the core's one cycle loop
(:mod:`repro.uarch.core`) as they are: a lone thread dispatches in
column order, so its ROB slots are its column indexes and nothing is
copied.  Live iterators enter the same loop through
:meth:`~repro.uarch.core.Core.run`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.uarch.core import Core, CoreResult, _batch_view, _cycle_loop

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.trace.columns import ColumnBatch

__all__ = ["replay_columns"]


def replay_columns(core: Core, batch: "ColumnBatch") -> CoreResult:
    """Run one captured thread's columns to completion on ``core``."""
    line_shift = core.params.line_bytes.bit_length() - 1
    return _cycle_loop(core, [_batch_view(batch, line_shift)])
