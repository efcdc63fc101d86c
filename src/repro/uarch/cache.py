"""Set-associative cache with LRU replacement and per-class statistics.

The implementation favours simulation speed: each set is a plain dict
keyed by line number (Python dicts preserve insertion order, so popping
and re-inserting a key implements LRU move-to-front in O(1)).

A line's metadata is the dict value, packed into one int: bit 0 is
*dirty*, bit 1 is *prefetched* (brought in by a prefetcher and not yet
demanded), and the bits above them hold ``pf_penalty``, the residual
latency a demand pays if it arrives before that prefetch has fully
landed.  A clean demand-installed line is the shared int ``0``, so a
full LLC holds no per-line objects for the collector to track.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Iterator

import numpy as np

from repro.uarch.params import CacheParams


@dataclass
class CacheStats:
    """Demand/prefetch access counters, split instruction/data and App/OS."""

    demand_hits: int = 0
    demand_misses: int = 0
    inst_hits: int = 0
    inst_misses: int = 0
    os_inst_hits: int = 0
    os_inst_misses: int = 0
    data_hits: int = 0
    data_misses: int = 0
    os_data_hits: int = 0
    os_data_misses: int = 0
    prefetch_issued: int = 0
    prefetch_useful: int = 0
    prefetch_unused_evicted: int = 0
    writebacks: int = 0

    @property
    def demand_accesses(self) -> int:
        return self.demand_hits + self.demand_misses

    @property
    def hit_ratio(self) -> float:
        total = self.demand_accesses
        return self.demand_hits / total if total else 0.0

    def merge(self, other: "CacheStats") -> None:
        for name in self.__dataclass_fields__:
            setattr(self, name, getattr(self, name) + getattr(other, name))


@dataclass
class EvictedLine:
    addr: int
    dirty: bool
    was_unused_prefetch: bool


class Cache:
    """One cache level.  Addresses are byte addresses; lines are aligned."""

    def __init__(self, name: str, params: CacheParams) -> None:
        self.name = name
        self.params = params
        self.line_bytes = params.line_bytes
        self._line_shift = params.line_bytes.bit_length() - 1
        self.num_sets = params.num_sets
        self.assoc = params.assoc
        self.latency = params.latency
        self._sets: list[dict[int, int]] = [dict() for _ in range(self.num_sets)]
        self.stats = CacheStats()
        # Residual latency charged by the last demand hit that consumed a
        # still-in-flight prefetch (read by the hierarchy after access()).
        self.consumed_pf_penalty = 0

    # -- address helpers -------------------------------------------------
    def line_addr(self, addr: int) -> int:
        return addr >> self._line_shift

    def _set_index(self, line: int) -> int:
        return line % self.num_sets

    # -- queries ----------------------------------------------------------
    def contains(self, addr: int) -> bool:
        line = addr >> self._line_shift
        return line in self._sets[line % self.num_sets]

    def resident_lines(self) -> int:
        return sum(len(s) for s in self._sets)

    # -- operations --------------------------------------------------------
    def access(
        self,
        addr: int,
        is_write: bool = False,
        is_instr: bool = False,
        is_os: bool = False,
    ) -> bool:
        """Demand access.  Returns True on hit.  Does not fill on miss —
        the hierarchy decides fill policy via :meth:`fill`."""
        line = addr >> self._line_shift
        cset = self._sets[line % self.num_sets]
        state = cset.get(line)
        stats = self.stats
        self.consumed_pf_penalty = 0
        if state is not None:
            # LRU bump: re-insert at the most-recently-used position.
            del cset[line]
            if state & 2:
                stats.prefetch_useful += 1
                # A late prefetch: the demand arrives while the fill is
                # still in flight and pays part of the source latency.
                self.consumed_pf_penalty = state >> 2
                state &= 1
            cset[line] = state | is_write
            stats.demand_hits += 1
            if is_instr:
                stats.inst_hits += 1
                if is_os:
                    stats.os_inst_hits += 1
            else:
                stats.data_hits += 1
                if is_os:
                    stats.os_data_hits += 1
            return True
        stats.demand_misses += 1
        if is_instr:
            stats.inst_misses += 1
            if is_os:
                stats.os_inst_misses += 1
        else:
            stats.data_misses += 1
            if is_os:
                stats.os_data_misses += 1
        return False

    def fill(
        self,
        addr: int,
        dirty: bool = False,
        prefetched: bool = False,
        pf_penalty: int = 0,
    ) -> EvictedLine | None:
        """Install a line, evicting the LRU line of its set if needed.

        A line already resident keeps its LRU position: it turns dirty
        if ``dirty``, and a demand fill clears its not-yet-used prefetch
        marking.  Returns the evicted line (for writeback propagation)
        or None.
        """
        line = addr >> self._line_shift
        cset = self._sets[line % self.num_sets]
        existing = cset.get(line)
        if existing is not None:
            existing |= dirty
            cset[line] = existing if prefetched else existing & 1
            return None
        victim = None
        if len(cset) >= self.assoc:
            old_line, old_state = next(iter(cset.items()))
            del cset[old_line]
            if old_state & 1:
                self.stats.writebacks += 1
            if old_state & 2:
                self.stats.prefetch_unused_evicted += 1
            victim = EvictedLine(
                addr=old_line << self._line_shift,
                dirty=bool(old_state & 1),
                was_unused_prefetch=bool(old_state & 2),
            )
        cset[line] = dirty | prefetched << 1 | pf_penalty << 2
        if prefetched:
            self.stats.prefetch_issued += 1
        return victim

    def install_ranges(self, ranges: Iterable[tuple[int, int]]) -> None:
        """Install the lines of ``(base, nbytes)`` ranges, range by range.

        Exactly :meth:`fill` (default arguments, victim discarded) for
        every ``addr`` in ``range(base, base + nbytes, line_bytes)`` of
        each range in turn: ``ceil(nbytes / line_bytes)`` consecutive
        lines starting at ``base``'s line.  A range that starts mid-line
        can therefore stop one line short: the line holding its last
        bytes is not installed.

        LRU state is per set and the statistics are plain counters, so
        only the install order within each set matters.  All ranges are
        expanded at once and their lines grouped by set in install order
        (:func:`_lines_by_set`).  When a set's group repeats no line and
        finds none of its lines resident, every install is a miss: the
        set ends as its surviving old lines followed by the group's last
        lines, and only the old lines it evicts touch the statistics, so
        the set is built in one step.  Any other set is walked line by
        line.
        """
        assoc = self.assoc
        grouped, bounds, repeats = _lines_by_set(
            ranges, self._line_shift, self.num_sets, assoc)
        sets = self._sets
        writebacks = unused = 0
        for s, start, tail, end in bounds:
            cset = sets[s]
            if not cset and s not in repeats:
                sets[s] = dict.fromkeys(grouped[tail:end].tolist(), 0)
                continue
            group = grouped[start:end].tolist()
            if s not in repeats and cset.keys().isdisjoint(group):
                # Every install misses, so the set ends as its old lines
                # then the group, oldest dropped down to ``assoc``; the
                # group's own dropped lines are clean and charge nothing.
                excess = len(cset) + len(group) - assoc
                if excess > 0:
                    for line in list(cset)[:excess]:
                        state = cset.pop(line)
                        writebacks += state & 1
                        unused += state >> 1 & 1
                cset.update(dict.fromkeys(group[-assoc:], 0))
                continue
            cset_get = cset.get
            occupancy = len(cset)
            for line in group:
                state = cset_get(line)
                if state is not None:
                    if state > 1:
                        # A demand install clears a not-yet-used
                        # prefetch marking; the line keeps its dirty bit
                        # and its LRU position.
                        cset[line] = state & 1
                    continue
                if occupancy >= assoc:
                    state = cset.pop(next(iter(cset)))
                    writebacks += state & 1
                    unused += state >> 1 & 1
                else:
                    occupancy += 1
                cset[line] = 0
        self.stats.writebacks += writebacks
        self.stats.prefetch_unused_evicted += unused

    def peek_state(self, addr: int) -> int | None:
        """A resident line's packed metadata (see the module docstring),
        or None; touches neither LRU order nor statistics."""
        line = self.line_addr(addr)
        return self._sets[self._set_index(line)].get(line)

    def invalidate(self, addr: int) -> bool:
        """Drop a line if resident (used by the coherence model)."""
        line = self.line_addr(addr)
        cset = self._sets[self._set_index(line)]
        return cset.pop(line, None) is not None

    def flush(self) -> None:
        for cset in self._sets:
            cset.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kb = self.params.size_bytes / 1024
        return f"<Cache {self.name} {kb:.0f}KB {self.assoc}-way lat={self.latency}>"


def _lines_by_set(
    ranges: Iterable[tuple[int, int]], shift: int, num_sets: int, assoc: int,
) -> tuple[np.ndarray, Iterator[tuple[int, int, int, int]], set[int]]:
    """Expand ``(base, nbytes)`` ranges into line numbers grouped by set.

    Each range in turn contributes ``ceil(nbytes / line)`` consecutive
    lines from ``base >> shift``.  Returns ``(grouped, bounds,
    repeats)``: the lines as one array, stably sorted by set so that
    every set's group keeps install order; one ``(set, start, tail,
    end)`` per set that receives lines, whose group is
    ``grouped[start:end]`` and whose last ``assoc`` lines start at
    ``tail``; and the sets whose group holds some line twice.  The
    expansion's intermediate arrays die with this call, so a fill holds
    only ``grouped`` while it builds the sets.
    """
    spans = np.fromiter(chain.from_iterable(ranges), np.int64)
    spans = spans.reshape(-1, 2)
    counts = np.maximum((spans[:, 1] + ((1 << shift) - 1)) >> shift, 0)
    total = int(counts.sum())
    # Line j of the expansion is its range's first line plus j's offset
    # from where that range starts in the expansion.
    offsets = np.cumsum(counts) - counts
    lines = (np.repeat((spans[:, 0] >> shift) - offsets, counts)
             + np.arange(total, dtype=np.int64))
    ordered = np.sort(lines)
    repeated = ordered[1:][ordered[1:] == ordered[:-1]]
    set_of = lines % num_sets
    sizes = np.bincount(set_of, minlength=num_sets)
    used = np.flatnonzero(sizes)
    ends = np.cumsum(sizes)[used]
    starts = ends - sizes[used]
    bounds = zip(used.tolist(), starts.tolist(),
                 np.maximum(starts, ends - assoc).tolist(), ends.tolist())
    return (lines[np.argsort(set_of, kind="stable")], bounds,
            set((repeated % num_sets).tolist()))
