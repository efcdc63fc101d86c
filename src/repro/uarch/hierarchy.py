"""Three-level cache hierarchy with prefetchers, TLBs, and sharing hooks.

Per core: split 32 KB L1-I / L1-D and a private 256 KB L2.  The 12 MB LLC,
memory channels, and last-writer directory may be shared between cores
(the :class:`repro.uarch.chip.Chip` wires one of each across its cores).

Latency model: a demand access pays the latency of the level that hits,
plus TLB-walk penalties.  Prefetches run in the background (no latency
charged) but move real lines — they fill caches, evict victims, and
consume off-chip bandwidth, which is how prefetcher pollution (Figure 5)
and bandwidth overheads (Figure 7) emerge.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.uarch.cache import Cache
from repro.uarch.coherence import LastWriterDirectory
from repro.uarch.dram import MemoryChannels
from repro.uarch.params import MachineParams
from repro.uarch.prefetch import (
    AdjacentLinePrefetcher,
    NextLinePrefetcher,
    StreamEntry,
    StreamPrefetcher,
)
from repro.uarch.tlb import make_tlbs


@dataclass
class AccessResult:
    """Outcome of one demand access."""

    latency: int
    level: str  # 'l1', 'l2', 'llc', or 'mem'
    off_core: bool  # missed the private L2 (enters the super queue)
    off_chip: bool  # missed the LLC (consumes memory bandwidth)


class MemoryHierarchy:
    """The memory system seen by one core."""

    def __init__(
        self,
        params: MachineParams,
        core_id: int = 0,
        shared_llc: Cache | None = None,
        dram: MemoryChannels | None = None,
        directory: LastWriterDirectory | None = None,
    ) -> None:
        self.params = params
        self.core_id = core_id
        self.l1i = Cache("L1-I", params.l1i)
        self.l1d = Cache("L1-D", params.l1d)
        self.l2 = Cache("L2", params.l2)
        self.llc = shared_llc if shared_llc is not None else Cache("LLC", params.llc)
        self.dram = dram if dram is not None else MemoryChannels(
            params.memory_channels, params.peak_bandwidth_bytes_per_s, params.line_bytes
        )
        self.directory = directory if directory is not None else LastWriterDirectory(
            params.line_bytes
        )
        self.itlb, self.dtlb = make_tlbs(
            params.itlb_entries,
            params.dtlb_entries,
            params.stlb_entries,
            params.page_bytes,
        )
        pf = params.prefetch
        # Line-number shift shared by the inlined prefetcher hooks
        # below (-1 falls back to division for a non-power-of-two line).
        lshift = (params.line_bytes.bit_length() - 1
                  if params.line_bytes & (params.line_bytes - 1) == 0 else -1)
        self._dcu_shift = lshift
        self._adj_shift = lshift
        self._l1i_next_shift = lshift
        self._l1i_next = NextLinePrefetcher(params.line_bytes) if pf.l1i_next_line else None
        self._dcu = NextLinePrefetcher(params.line_bytes) if pf.dcu_streamer else None
        self._adjacent = (
            AdjacentLinePrefetcher(params.line_bytes) if pf.adjacent_line else None
        )
        self._stream = (
            StreamPrefetcher(
                params.line_bytes,
                params.page_bytes,
                degree=pf.hw_prefetch_degree,
            )
            if pf.hw_prefetcher
            else None
        )
        # Stall-cycle contributions the paper folds into "Memory cycles".
        self.l2_instr_hit_stalls = 0
        self.itlb_miss_stalls = 0
        self.stlb_miss_stalls = 0
        self.off_core_instr_fetches = 0
        # Page-number shift for the translate fast path (0 disables it
        # when the page size is not a power of two).
        self._page_shift = (params.page_bytes.bit_length() - 1
                            if params.page_bytes & (params.page_bytes - 1) == 0
                            else 0)
        # Off-chip bandwidth limit: one line per `dram_interval` cycles of
        # this core's share of the channels.  Timed accesses (the core
        # passes `now`) queue behind earlier transfers; functional warming
        # passes no timestamp and leaves the queue untouched.
        share = params.peak_bandwidth_bytes_per_s / max(1, params.active_cores)
        self.dram_interval = max(1, int(params.line_bytes / share * params.freq_hz))
        self._dram_next_free = 0
        # Per-side lookup bundles for the access fast path.  Every
        # object here is created once and mutated in place for the
        # hierarchy's lifetime (stats merge in place, TLB/cache dicts
        # are never replaced), so the bundles stay valid.
        self._instr_side = (self.itlb, self.itlb._l1._map, self.itlb.stats,
                            self.l1i, self.l1i.stats)
        self._data_side = (self.dtlb, self.dtlb._l1._map, self.dtlb.stats,
                           self.l1d, self.l1d.stats)

    def _dram_queue_delay(self, now: int | None) -> int:
        """Reserve a line transfer slot; returns the queueing delay."""
        if now is None:
            return 0
        delay = max(0, self._dram_next_free - now)
        self._dram_next_free = max(self._dram_next_free, now) + self.dram_interval
        return delay

    # ------------------------------------------------------------------
    def access(
        self,
        addr: int,
        is_write: bool = False,
        is_instr: bool = False,
        is_os: bool = False,
        now: int | None = None,
    ) -> AccessResult:
        """Perform a demand access and return its latency and origin level.

        ``now`` (the core's current cycle) enables the off-chip bandwidth
        queue; untimed callers (functional warming, tests) omit it."""
        return AccessResult(*self.access_timed(addr, is_write, is_instr,
                                               is_os, now))

    def access_timed(
        self,
        addr: int,
        is_write: bool = False,
        is_instr: bool = False,
        is_os: bool = False,
        now: int | None = None,
    ) -> tuple[int, str, bool, bool]:
        """:meth:`access` without the result object.

        Returns ``(latency, level, off_core, off_chip)`` as a plain
        tuple — the replay hot path performs one of these per memory
        micro-op and per new code line, so the dataclass wrapper (and
        the method dispatch the common hit case would pay inside
        :class:`~repro.uarch.tlb.Tlb` and :class:`~repro.uarch.cache.Cache`)
        is hoisted here.  The inlined translate/L1-hit fast path below
        is statistic-for-statistic identical to the general walk.
        """
        params = self.params
        latency = 0

        # Address translation (fast path: L1-TLB hit, inlined).
        tlb, l1map, tstats, l1, l1stats = (
            self._instr_side if is_instr else self._data_side)
        shift = self._page_shift
        page = addr >> shift if shift else addr // tlb.page_bytes
        if page in l1map:
            del l1map[page]
            l1map[page] = None
            tstats.l1_hits += 1
        else:
            # Miss path, still inlined: same probes, fills, and counters
            # as Tlb.access (the page is known absent from the L1 array,
            # so the fills skip its membership re-check).
            tstats.l1_misses += 1
            stlb = tlb._stlb
            smap = stlb._map
            if page in smap:
                tstats.l2_hits += 1
                del smap[page]
                smap[page] = None
                latency += 2  # STLB hit adds a couple of cycles
                if is_instr:
                    self.itlb_miss_stalls += 2
            else:
                tstats.l2_misses += 1
                if len(smap) >= stlb.entries:
                    smap.pop(next(iter(smap)))
                smap[page] = None
                latency += params.tlb_miss_penalty
                if is_instr:
                    self.itlb_miss_stalls += params.tlb_miss_penalty
                else:
                    self.stlb_miss_stalls += params.tlb_miss_penalty
            if len(l1map) >= tlb._l1.entries:
                l1map.pop(next(iter(l1map)))
            l1map[page] = None

        if is_write:
            self.directory.record_write(addr, self.core_id)
        # L1 hit on a line with no in-flight-prefetch bookkeeping: the
        # overwhelmingly common case, inlined (same LRU bump, same stats).
        line = addr >> l1._line_shift
        cset = l1._sets[line % l1.num_sets]
        state = cset.get(line)
        if state is not None and not state & 2:
            del cset[line]
            cset[line] = state | is_write
            l1.consumed_pf_penalty = 0
            l1stats.demand_hits += 1
            if is_instr:
                l1stats.inst_hits += 1
                if is_os:
                    l1stats.os_inst_hits += 1
            else:
                l1stats.data_hits += 1
                if is_os:
                    l1stats.os_data_hits += 1
            return latency + l1.latency, "l1", False, False
        if state is not None:
            # Hit on a still-in-flight prefetch: the rare bookkeeping
            # case, routed through the cache's own method.
            l1.access(addr, is_write, is_instr, is_os)
            late_pf = l1.consumed_pf_penalty
            # (The DCU streamer trains on L1 misses, not hits.)
            if late_pf:
                # A hit on a still-in-flight DCU prefetch is logically an
                # L2 transaction that the prefetcher started early: credit
                # the L2's demand statistics (the counters VTune reads)
                # and treat deep fills as off-core for MLP purposes.
                stats = self.l2.stats
                stats.demand_hits += 1
                if is_instr:
                    stats.inst_hits += 1
                    if is_os:
                        stats.os_inst_hits += 1
                else:
                    stats.data_hits += 1
                    if is_os:
                        stats.os_data_hits += 1
            return (latency + l1.latency + late_pf, "l1",
                    late_pf >= self.llc.latency, False)

        # Plain L1 miss: record it inline (the probe above already did
        # the lookup — same counters Cache.access would bump).
        l1stats.demand_misses += 1
        if is_instr:
            l1stats.inst_misses += 1
            if is_os:
                l1stats.os_inst_misses += 1
        else:
            l1stats.data_misses += 1
            if is_os:
                l1stats.os_data_misses += 1
        # The L1 probe state survives the deeper walk (nothing below
        # touches this L1 before the refill), so the three miss paths
        # install the line into ``l1set`` directly.
        l1set = cset
        l1line = line

        # L1 miss -> L2 (probe inlined; same LRU bump and statistics as
        # Cache.access, with the prefetch-consumption bookkeeping kept).
        l2 = self.l2
        line = addr >> l2._line_shift
        cset = l2._sets[line % l2.num_sets]
        state = cset.get(line)
        stats = l2.stats
        if state is not None:
            del cset[line]
            late_pf = 0
            if state & 2:
                stats.prefetch_useful += 1
                late_pf = state >> 2
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
            # Refill L1 (Cache.fill inlined; the line is known absent).
            if len(l1set) >= l1.assoc:
                old_line, old_state = next(iter(l1set.items()))
                del l1set[old_line]
                if old_state & 1:
                    l1stats.writebacks += 1
                    self._fill_l2(old_line << l1._line_shift,
                                  dirty=True, is_os=False, quiet=True)
                if old_state & 2:
                    l1stats.prefetch_unused_evicted += 1
            l1set[l1line] = 1 if is_write else 0
            self._run_l2_prefetchers(addr, hit=True, is_os=is_os, now=now)
            if not is_instr:
                dcu = self._dcu
                if dcu is not None:
                    # _run_dcu, inlined (with the target's L1-D probe
                    # hoisted: a resident next line proposes nothing).
                    dshift = self._dcu_shift
                    dline = (addr >> dshift if dshift >= 0
                             else addr // dcu.line_bytes)
                    if dline != dcu._last_line:
                        dcu._last_line = dline
                        t = (dline + 1) * dcu.line_bytes
                        tl = t >> l1._line_shift
                        tset = l1._sets[tl % l1.num_sets]
                        if tl not in tset:
                            self._prefetch_into_l1d(t, tl, tset)
            lat = latency + l1.latency + l2.latency + late_pf
            if is_instr:
                self.l2_instr_hit_stalls += l2.latency
            return lat, "l2", late_pf >= self.llc.latency, False
        stats.demand_misses += 1
        if is_instr:
            stats.inst_misses += 1
            if is_os:
                stats.os_inst_misses += 1
        else:
            stats.data_misses += 1
            if is_os:
                stats.os_data_misses += 1

        # L2 miss -> LLC (off-core; enters the super queue).
        llc = self.llc
        if is_instr:
            self.off_core_instr_fetches += 1
        else:
            if llc.contains(addr):
                # Remote-dirty classification only applies to blocks still
                # on chip — a block written long ago and since evicted
                # comes from memory, not from a remote cache (§3.1's
                # two-socket setup).
                self.directory.classify_llc_data_ref(addr, self.core_id, is_os)
            else:
                self.directory.stats.llc_data_refs += 1
        self._run_l2_prefetchers(addr, hit=False, is_os=is_os, now=now)
        # Probe the LLC only after the prefetchers ran: their fills can
        # evict from (but never insert) the missing line's set, and the
        # demand access must see the post-prefetch LRU state.
        line = addr >> llc._line_shift
        cset = llc._sets[line % llc.num_sets]
        state = cset.get(line)
        stats = llc.stats
        if state is not None:
            del cset[line]
            if state & 2:
                stats.prefetch_useful += 1
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
            self._fill_l2(addr, is_write, is_os)
            # Refill L1 (Cache.fill inlined; the line is known absent).
            if len(l1set) >= l1.assoc:
                old_line, old_state = next(iter(l1set.items()))
                del l1set[old_line]
                if old_state & 1:
                    l1stats.writebacks += 1
                    self._fill_l2(old_line << l1._line_shift,
                                  dirty=True, is_os=False, quiet=True)
                if old_state & 2:
                    l1stats.prefetch_unused_evicted += 1
            l1set[l1line] = 1 if is_write else 0
            if not is_instr:
                dcu = self._dcu
                if dcu is not None:
                    # _run_dcu, inlined (with the target's L1-D probe
                    # hoisted: a resident next line proposes nothing).
                    dshift = self._dcu_shift
                    dline = (addr >> dshift if dshift >= 0
                             else addr // dcu.line_bytes)
                    if dline != dcu._last_line:
                        dcu._last_line = dline
                        t = (dline + 1) * dcu.line_bytes
                        tl = t >> l1._line_shift
                        tset = l1._sets[tl % l1.num_sets]
                        if tl not in tset:
                            self._prefetch_into_l1d(t, tl, tset)
            return (
                latency + l1.latency + l2.latency + llc.latency,
                "llc",
                True,
                False,
            )
        stats.demand_misses += 1
        if is_instr:
            stats.inst_misses += 1
            if is_os:
                stats.os_inst_misses += 1
        else:
            stats.data_misses += 1
            if is_os:
                stats.os_data_misses += 1

        # LLC miss -> memory.
        self.dram.read_line(is_os)
        latency += self._dram_queue_delay(now)
        self._fill_llc(addr, is_write, is_os)
        self._fill_l2(addr, is_write, is_os)
        # Refill L1 (Cache.fill inlined; the line is known absent).
        if len(l1set) >= l1.assoc:
            old_line, old_state = next(iter(l1set.items()))
            del l1set[old_line]
            if old_state & 1:
                l1stats.writebacks += 1
                self._fill_l2(old_line << l1._line_shift,
                              dirty=True, is_os=False, quiet=True)
            if old_state & 2:
                l1stats.prefetch_unused_evicted += 1
        l1set[l1line] = 1 if is_write else 0
        if not is_instr:
            dcu = self._dcu
            if dcu is not None:
                # _run_dcu, inlined (with the target's L1-D probe
                # hoisted: a resident next line proposes nothing).
                dshift = self._dcu_shift
                dline = (addr >> dshift if dshift >= 0
                         else addr // dcu.line_bytes)
                if dline != dcu._last_line:
                    dcu._last_line = dline
                    t = (dline + 1) * dcu.line_bytes
                    tl = t >> l1._line_shift
                    tset = l1._sets[tl % l1.num_sets]
                    if tl not in tset:
                        self._prefetch_into_l1d(t, tl, tset)
        return (
            latency + l1.latency + l2.latency + llc.latency + params.memory_latency,
            "mem",
            True,
            True,
        )

    # -- fills and writeback propagation --------------------------------
    def _fill_l2(self, addr: int, dirty: bool, is_os: bool, quiet: bool = False) -> None:
        # Cache.fill, inlined (demand fill: not a prefetch).
        l2 = self.l2
        line = addr >> l2._line_shift
        cset = l2._sets[line % l2.num_sets]
        existing = cset.get(line)
        if existing is not None:
            cset[line] = (existing | dirty) & 1
            return
        if len(cset) >= l2.assoc:
            old_line, old_state = next(iter(cset.items()))
            del cset[old_line]
            stats = l2.stats
            if old_state & 1:
                stats.writebacks += 1
                self._fill_llc(old_line << l2._line_shift,
                               dirty=True, is_os=is_os, quiet=True)
            if old_state & 2:
                stats.prefetch_unused_evicted += 1
        cset[line] = 1 if dirty else 0

    def _fill_llc(self, addr: int, dirty: bool, is_os: bool, quiet: bool = False) -> None:
        # Cache.fill, inlined (demand fill: not a prefetch).
        llc = self.llc
        line = addr >> llc._line_shift
        cset = llc._sets[line % llc.num_sets]
        existing = cset.get(line)
        if existing is not None:
            cset[line] = (existing | dirty) & 1
            return
        if len(cset) >= llc.assoc:
            old_line, old_state = next(iter(cset.items()))
            del cset[old_line]
            stats = llc.stats
            if old_state & 1:
                stats.writebacks += 1
                self.dram.write_line(is_os)
            if old_state & 2:
                stats.prefetch_unused_evicted += 1
        cset[line] = 1 if dirty else 0

    # -- prefetch machinery ----------------------------------------------
    def _prefetch_into_l1d(self, addr: int, l1line: int, l1set: dict) -> None:
        # The caller probed the L1-D set (``l1line`` absent from
        # ``l1set``) before paying for this call.
        l1d = self.l1d
        l2 = self.l2
        line = addr >> l2._line_shift
        l2_state = l2._sets[line % l2.num_sets].get(line)
        if l2_state is None:
            llc = self.llc
            line = addr >> llc._line_shift
            if line not in llc._sets[line % llc.num_sets]:
                # DCU prefetches that would go off-chip are dropped by the
                # hardware; modeling them as LLC fills would overstate
                # reach.
                return
        # If the L2 copy is itself a still-in-flight prefetch, the L1 copy
        # inherits the residual latency — chained prefetchers cannot make
        # data arrive sooner than memory delivers it.
        inherited = (l2_state >> 2
                     if l2_state is not None and l2_state & 2 else 0)
        # Cache.fill, inlined: the probe above proved the line absent,
        # and nothing since touched this L1-D set.
        stats = l1d.stats
        if len(l1set) >= l1d.assoc:
            old_line, old_state = next(iter(l1set.items()))
            del l1set[old_line]
            if old_state & 1:
                stats.writebacks += 1
            if old_state & 2:
                stats.prefetch_unused_evicted += 1
        l1set[l1line] = 2 | inherited << 2
        stats.prefetch_issued += 1

    def _run_l2_prefetchers(self, addr: int, hit: bool, is_os: bool,
                            now: int | None = None) -> None:
        # AdjacentLinePrefetcher.observe, inlined (propose the buddy line
        # on a miss); the stream prefetcher keeps its stateful method.
        # Issue order (adjacent first, then stream) matches the proposal
        # order of the aggregated walk.
        l2 = self.l2
        l2sets = l2._sets
        l2shift = l2._line_shift
        l2nsets = l2.num_sets
        adjacent = self._adjacent
        if adjacent is not None and not hit:
            lb = adjacent.line_bytes
            line = addr >> self._adj_shift if self._adj_shift >= 0 else addr // lb
            t = (line ^ 1) * lb
            tl = t >> l2shift
            tset = l2sets[tl % l2nsets]
            if tl not in tset:
                self._prefetch_into_l2(t, is_os, now, tl, tset)
        stream = self._stream
        if stream is not None:
            # StreamPrefetcher.observe, inlined: train on every L2
            # demand access, propose ``degree`` lines ahead once the
            # stream is confident.  Proposal order (ascending distance)
            # and entry updates match the method exactly; resident
            # proposals are dropped by the same L2 probe
            # _prefetch_into_l2 would perform.
            sshift = stream._line_shift
            if sshift >= 0:
                sline = addr >> sshift
                spage = addr >> stream._page_shift
            else:
                sline = addr // stream.line_bytes
                spage = addr // stream.page_bytes
            table = stream._table
            entry = table.get(spage)
            if entry is None:
                if len(table) >= stream.table_entries:
                    table.pop(next(iter(table)))
                table[spage] = StreamEntry(sline)
            else:
                del table[spage]
                table[spage] = entry
                delta = sline - entry.last_line
                if delta:
                    direction = 1 if delta > 0 else -1
                    if direction == entry.direction:
                        entry.confidence = min(entry.confidence + 1, 4)
                    else:
                        entry.direction = direction
                        entry.confidence = 0
                    if entry.confidence >= stream.train_threshold:
                        page_base = spage * stream.lines_per_page
                        page_end = page_base + stream.lines_per_page
                        lb = stream.line_bytes
                        for k in range(1, stream.degree + 1):
                            target = sline + direction * k
                            if page_base <= target < page_end:
                                t = target * lb
                                tl = t >> l2shift
                                tset = l2sets[tl % l2nsets]
                                if tl not in tset:
                                    self._prefetch_into_l2(t, is_os, now,
                                                           tl, tset)
                    entry.last_line = sline

    def _prefetch_into_l2(self, addr: int, is_os: bool, now: int | None,
                          l2line: int, l2set: dict) -> None:
        # The caller probed the L2 set (``l2line`` absent from
        # ``l2set``) before paying for this call.
        l2 = self.l2
        llc = self.llc
        line = addr >> llc._line_shift
        if line not in llc._sets[line % llc.num_sets]:
            # Bring it on chip first; prefetch fills consume real bandwidth
            # and, when demanded soon after issue, still expose a large
            # share of the memory latency (a *late* prefetch).
            self.dram.read_line(is_os)
            pf_penalty = (self.params.memory_latency * 2) // 5
            pf_penalty += self._dram_queue_delay(now)
            self._fill_llc(addr, dirty=False, is_os=is_os)
        else:
            pf_penalty = (self.llc.latency * 2) // 5
        # Cache.fill, inlined (prefetched install): the probe above
        # proved the line absent, and the LLC fill never touches the L2.
        stats = l2.stats
        if len(l2set) >= l2.assoc:
            old_line, old_state = next(iter(l2set.items()))
            del l2set[old_line]
            if old_state & 1:
                stats.writebacks += 1
                self._fill_llc(old_line << l2._line_shift,
                               dirty=True, is_os=is_os, quiet=True)
            if old_state & 2:
                stats.prefetch_unused_evicted += 1
        l2set[l2line] = 2 | pf_penalty << 2
        stats.prefetch_issued += 1

    def prefetch_instruction(self, addr: int) -> None:
        """L1-I next-line prefetch hook, driven by the core's fetch unit."""
        pf = self._l1i_next
        if pf is None:
            return
        # NextLinePrefetcher.observe, inlined (see _run_dcu).
        lb = pf.line_bytes
        line = addr >> self._l1i_next_shift if self._l1i_next_shift >= 0 \
            else addr // lb
        if line == pf._last_line:
            return
        pf._last_line = line
        target = (line + 1) * lb
        l1i = self.l1i
        tline = target >> l1i._line_shift
        tset = l1i._sets[tline % l1i.num_sets]
        if tline in tset:
            return
        self._l1i_prefetch_miss(target, tline, tset)

    def _l1i_prefetch_miss(self, target: int, tline: int, tset: dict) -> None:
        """:meth:`prefetch_instruction` past the L1-I probe (line absent)."""
        if not self.l2.contains(target) and not self.llc.contains(target):
            return  # next-line I-prefetch does not go off-chip
        # Cache.fill, inlined (prefetched install, line absent).
        l1i = self.l1i
        stats = l1i.stats
        if len(tset) >= l1i.assoc:
            old_line, old_state = next(iter(tset.items()))
            del tset[old_line]
            if old_state & 1:
                stats.writebacks += 1
            if old_state & 2:
                stats.prefetch_unused_evicted += 1
        tset[tline] = 2
        stats.prefetch_issued += 1

    def invalidate_private(self, addr: int) -> None:
        """Coherence invalidation: drop the line from L1-D/L1-I/L2."""
        self.l1d.invalidate(addr)
        self.l1i.invalidate(addr)
        self.l2.invalidate(addr)

    # ------------------------------------------------------------------
    def warm_batch(self, ops) -> None:
        """Run a warming access sequence through the hierarchy.

        ``ops`` is an iterable of ``(addr, is_write, is_instr, is_os)``
        tuples (see :meth:`repro.trace.columns.ColumnBatch.access_ops`).
        Each op is exactly an :meth:`access_timed` call; the translate +
        L1-hit case — the overwhelmingly common warming outcome — is
        inlined here so the per-access call overhead is only paid on
        misses.  Statistic-for-statistic identical to calling
        :meth:`access_timed` per op.
        """
        page_shift = self._page_shift
        iside = self._instr_side
        dside = self._data_side
        access = self.access_timed
        record_write = self.directory.record_write
        core_id = self.core_id
        for addr, is_write, is_instr, is_os in ops:
            tlb, l1map, tstats, l1, l1stats = iside if is_instr else dside
            if page_shift and (addr >> page_shift) in l1map:
                line = addr >> l1._line_shift
                cset = l1._sets[line % l1.num_sets]
                st = cset.get(line)
                if st is not None and not st & 2:
                    page = addr >> page_shift
                    del l1map[page]
                    l1map[page] = None
                    tstats.l1_hits += 1
                    if is_write:
                        record_write(addr, core_id)
                        st |= 1
                    del cset[line]
                    cset[line] = st
                    l1.consumed_pf_penalty = 0
                    l1stats.demand_hits += 1
                    if is_instr:
                        l1stats.inst_hits += 1
                        if is_os:
                            l1stats.os_inst_hits += 1
                    else:
                        l1stats.data_hits += 1
                        if is_os:
                            l1stats.os_data_hits += 1
                    continue
            access(addr, is_write, is_instr, is_os)

    def warm_access(self, addr: int, is_write: bool = False, is_instr: bool = False) -> None:
        """Functional-only access used to warm caches without timing."""
        self.access(addr, is_write, is_instr, is_os=False)
