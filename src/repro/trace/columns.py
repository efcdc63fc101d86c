"""Batched decode front-end: column views the timing loop reads directly.

:class:`~repro.trace.codec.EncodedStream` stores micro-ops as
``array.array`` columns.  Decoding them back into
:class:`~repro.uarch.uop.MicroOp` objects costs one object allocation
and nine attribute stores per dynamic micro-op — at replay volumes
(10⁵ ops per measurement, one measurement per sweep cell) that
per-uop dispatch dominates the Figure 4 wall clock.

:class:`ColumnBatch` is the batched alternative: every column is
materialized *once* as a plain Python list (``array.tolist()`` runs in
C, and list indexing hands back cached ``int`` objects instead of
boxing a fresh one per read), and the core's cycle loop (entered
through :mod:`repro.uarch.fastpath`) indexes the lists positionally.
Nothing is re-decoded per machine configuration: a Figure 4 sweep
replays the same captured stream against ~6 LLC sizes, and
:func:`batch_for` memoizes the batch on the stream itself, so the
``tolist`` pass happens once per capture, not once per cell.  Per-PC
line identifiers — the only decoded quantity that depends on a machine
parameter — are memoized per line shift in :meth:`ColumnBatch.lines`.

Batches are built from *finished* captures only.  An
``EncodedStream`` is append-only during capture and immutable
afterwards (the store hands out fresh instances), which is what makes
the memoization sound.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.trace.codec import EncodedStream

__all__ = ["ColumnBatch", "batch_for"]


class ColumnBatch:
    """One encoded stream as positional Python lists.

    Field semantics are exactly those of the owning stream's columns
    (see :data:`repro.trace.codec.COLUMNS`): ``flags`` packs ``is_os``
    (bit 0) and ``taken`` (bit 1); ``deps`` is the flattened dependency
    column walked through ``dep_counts``.
    """

    __slots__ = ("length", "kinds", "pcs", "addrs", "seqs", "flags",
                 "targets", "dep_counts", "deps", "_lines", "_dep_idx",
                 "_access_ops", "_os_flags", "_line_starts")

    def __init__(self, stream: "EncodedStream") -> None:
        self.length = len(stream)
        self.kinds: List[int] = stream.kind.tolist()
        self.pcs: List[int] = stream.pc.tolist()
        self.addrs: List[int] = stream.addr.tolist()
        self.seqs: List[int] = stream.seq.tolist()
        self.flags: List[int] = stream.flags.tolist()
        self.targets: List[int] = stream.target.tolist()
        self.dep_counts: List[int] = stream.dep_count.tolist()
        self.deps: List[int] = stream.deps.tolist()
        self._lines: dict[int, List[int]] = {}
        self._dep_idx: List[int] | None = None
        self._access_ops: dict[int, list] = {}
        self._os_flags: List[int] | None = None
        self._line_starts: dict[int, bytearray] = {}

    def lines(self, line_shift: int) -> List[int]:
        """Per-op instruction-line ids (``pc >> line_shift``), memoized.

        The shift is the one machine-dependent piece of per-PC decode
        work; memoizing per shift means a sweep that replays this batch
        across many same-line-size configurations computes it once.
        """
        cached = self._lines.get(line_shift)
        if cached is None:
            cached = [pc >> line_shift for pc in self.pcs]
            self._lines[line_shift] = cached
        return cached

    def access_ops(self, line_shift: int) -> list:
        """The functional-warming access sequence, memoized per shift.

        One ``(addr, is_write, is_instr, is_os)`` tuple per hierarchy
        access the warming walk performs: an instruction fetch for each
        new code line plus every load and store, in stream order, with
        the per-op branching hoisted out of the per-replay loop (a sweep
        warms the same stream once per machine configuration).
        """
        cached = self._access_ops.get(line_shift)
        if cached is None:
            cached = []
            append = cached.append
            kinds = self.kinds
            pcs = self.pcs
            addrs = self.addrs
            flags = self.flags
            lines = self.lines(line_shift)
            last_line = -1
            for i in range(self.length):
                line = lines[i]
                if line != last_line:
                    last_line = line
                    append((pcs[i], False, True, flags[i] & 1))
                kind = kinds[i]
                if kind == 1:  # LOAD
                    append((addrs[i], False, False, flags[i] & 1))
                elif kind == 2:  # STORE
                    append((addrs[i], True, False, flags[i] & 1))
            self._access_ops[line_shift] = cached
        return cached

    def line_starts(self, line_shift: int) -> bytearray:
        """Ops that begin a new instruction line, memoized per shift.

        ``line_starts[i]`` is 1 iff op ``i``'s code line differs from op
        ``i - 1``'s (op 0 always starts a line).  The fetch stage
        processes ops strictly in order, so this positional flag is
        exactly its ``line != last_line`` test, precomputed.
        """
        cached = self._line_starts.get(line_shift)
        if cached is None:
            lines = self.lines(line_shift)
            cached = bytearray(self.length)
            prev = -1
            for i, line in enumerate(lines):
                if line != prev:
                    cached[i] = 1
                    prev = line
            self._line_starts[line_shift] = cached
        return cached

    def os_flags(self) -> List[int]:
        """Per-op OS bit (``flags & 1``) as its own column, memoized.

        The replay loop reads the OS bit several times per op (commit
        attribution, access classification, stall accounting); unpacking
        it once trades one list for a bit-test per read.
        """
        cached = self._os_flags
        if cached is None:
            cached = [f & 1 for f in self.flags]
            self._os_flags = cached
        return cached

    def dep_indexes(self) -> List[int]:
        """The ``deps`` column with producer seqs mapped to column
        indexes (``-1`` for producers outside this stream), memoized.

        Sequence numbers are unique and a producer always precedes its
        consumers, so the seq → position map is a static property of
        the capture — the replay loop can test "producer still in
        flight" as ``dep_idx >= 0 and not completed[dep_idx]`` instead
        of maintaining a per-run seq-keyed dict.
        """
        cached = self._dep_idx
        if cached is None:
            position = {seq: i for i, seq in enumerate(self.seqs)}
            get = position.get
            cached = [get(seq, -1) for seq in self.deps]
            self._dep_idx = cached
        return cached


def batch_for(stream: "EncodedStream") -> ColumnBatch:
    """The (memoized) :class:`ColumnBatch` of a finished capture."""
    batch = stream._batch
    if batch is None:
        batch = ColumnBatch(stream)
        stream._batch = batch
    return batch
