"""Cycle-approximate out-of-order core.

The model captures the structures the paper's analysis depends on:

* 4-wide fetch/dispatch/issue/commit, 128-entry ROB, 36 reservation
  stations, 48/32-entry load/store queues (Table 1);
* instruction fetch through the L1-I with next-line prefetch — I-cache
  misses stall the frontend (Fig. 2's mechanism);
* true-dependence-limited issue (ILP) and super-queue-limited off-core
  memory parallelism (MLP, Fig. 3);
* a branch predictor whose mispredictions charge a frontend redirect
  penalty (the wrong-path flushes of §4's PARSEC/SPECint discussion);
* in-order commit with the §3.1 cycle classification: a cycle Commits if
  at least one instruction retires, else it is Stalled; Memory cycles
  are super-queue-busy cycles plus L2-instruction-hit and TLB stalls.

One cycle loop, :func:`_cycle_loop`, times every measurement: a single
thread (Figures 1/2/4/5/7), an SMT pair (Figure 3) and each core of a
shared-LLC chip (Figure 6).  It reads each hardware thread as positional
columns and allocates nothing per micro-op:

* a ROB entry is a dispatch slot, an integer; per-op pipeline state
  (``completed``, ``issued``, ``ndeps``) lives in flat columns indexed
  by slot, which keeps the cyclic GC quiet as well;
* fetch round-robins over per-thread column cursors; a thread stalled
  on an I-cache miss or a branch redirect yields its turn;
* the branch predictor and the translate + L1-hit slice of
  :meth:`~repro.uarch.hierarchy.MemoryHierarchy.access_timed` are
  inlined (same tables, same statistics, state written back on exit);
* counters accumulate in locals and land in the :class:`CoreResult`
  once, at the end.

Two thin entry points feed it.  :meth:`Core.run` takes live ``MicroOp``
iterators (SMT pairs, chip segments, ablations), each wrapped in an
appendable column buffer that pulls one op exactly when fetch needs it;
:func:`repro.uarch.fastpath.replay_columns` hands it a finished
:class:`~repro.trace.columns.ColumnBatch` without copying.  Both run to
completion; neither calls the other.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field
from operator import attrgetter
from typing import TYPE_CHECKING, Iterable, Iterator

from repro.uarch.branch import BranchPredictor
from repro.uarch.counters import COUNTER_NAMES, CounterSet
from repro.uarch.hierarchy import MemoryHierarchy
from repro.uarch.params import MachineParams
from repro.uarch.uop import MicroOp

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.trace.columns import ColumnBatch

#: ``CoreResult`` counters that are per-run deltas of a hierarchy
#: statistic, and the statistic each one reads.
_HIERARCHY_COUNTERS = tuple(
    (name, attrgetter(path)) for name, path in (
        ("l1i_misses", "l1i.stats.inst_misses"),
        ("l1i_misses_os", "l1i.stats.os_inst_misses"),
        ("l2i_misses", "l2.stats.inst_misses"),
        ("l2i_misses_os", "l2.stats.os_inst_misses"),
        ("l1d_misses", "l1d.stats.data_misses"),
        ("l2_demand_hits", "l2.stats.demand_hits"),
        ("l2_demand_accesses", "l2.stats.demand_accesses"),
        ("llc_misses", "llc.stats.demand_misses"),
        ("llc_data_refs", "directory.stats.llc_data_refs"),
        ("remote_dirty_hits", "directory.stats.remote_dirty_hits"),
        ("remote_dirty_hits_os", "directory.stats.os_remote_dirty_hits"),
        ("offchip_bytes", "dram.stats.total_bytes"),
        ("offchip_bytes_os", "dram.stats.os_bytes"),
    )
)


def _memory_stalls(hier: MemoryHierarchy) -> int:
    """Frontend/TLB stall cycles the §3.1 Memory class adds to the
    super-queue's busy cycles."""
    return (hier.l2_instr_hit_stalls + hier.itlb_miss_stalls
            + hier.stlb_miss_stalls)


@dataclass
class CoreResult:
    """Counters gathered over one measured execution."""

    cycles: int = 0
    instructions: int = 0
    os_instructions: int = 0
    committing_cycles: int = 0
    committing_cycles_os: int = 0
    stalled_cycles: int = 0
    stalled_cycles_os: int = 0
    memory_cycles: int = 0
    superq_busy_cycles: int = 0
    superq_requests: int = 0
    mlp: float = 0.0
    loads: int = 0
    stores: int = 0
    branches: int = 0
    branch_mispredicts: int = 0
    l1i_misses: int = 0
    l1i_misses_os: int = 0
    l2i_misses: int = 0
    l2i_misses_os: int = 0
    l1d_misses: int = 0
    l2_demand_hits: int = 0
    l2_demand_accesses: int = 0
    llc_misses: int = 0
    llc_data_refs: int = 0
    remote_dirty_hits: int = 0
    remote_dirty_hits_os: int = 0
    offchip_bytes: int = 0
    offchip_bytes_os: int = 0
    per_thread_instructions: list[int] = field(default_factory=list)

    def to_counters(self) -> CounterSet:
        c = CounterSet()
        for name in COUNTER_NAMES:
            c[name] = float(getattr(self, name))
        return c


class Core:
    """One out-of-order core executing 1 (baseline) or 2 (SMT) threads."""

    def __init__(
        self,
        params: MachineParams,
        hierarchy: MemoryHierarchy | None = None,
        core_id: int = 0,
    ) -> None:
        self.params = params
        self.core_id = core_id
        self.hierarchy = hierarchy if hierarchy is not None else MemoryHierarchy(
            params, core_id=core_id
        )
        self.branch_predictor = BranchPredictor()
        self._cycle = 0

    # ------------------------------------------------------------------
    def run(self, traces: Iterable[Iterator[MicroOp]]) -> CoreResult:
        """Execute the given per-thread traces to completion."""
        line_shift = self.params.line_bytes.bit_length() - 1
        iterators = [iter(t) for t in traces]
        if not iterators:
            return CoreResult()
        shared = len(iterators) > 1
        return _cycle_loop(self, [
            _live_view(it, line_shift, [] if shared else None)
            for it in iterators])


def _live_view(trace: Iterator[MicroOp], line_shift: int,
               slot_of: list[int] | None) -> tuple:
    """A live ``MicroOp`` iterator as appendable columns.

    Returns the :func:`_cycle_loop` view of the thread.  Its ``pull``
    is called by the fetch stage exactly when the thread needs its next
    op, never ahead of time: SMT threads share one app, whose RNG
    advances with every op generated, so stream content depends on pull
    order.  An op whose instruction fetch misses stays pulled but
    undispatched until the miss resolves.

    Dependencies resolve at pull time.  Every earlier op of the thread
    has dispatched by then, so a producer's ROB slot is already known:
    its column index for a lone thread, ``slot_of`` of it when threads
    share the ROB.  Only the latest op with a given ``seq`` can be a
    producer, and one not yet seen is none.
    """
    kinds: list[int] = []
    pcs: list[int] = []
    addrs: list[int] = []
    flags: list[int] = []
    targets: list[int] = []
    dep_counts: list[int] = []
    dep_idx: list[int] = []
    os_flags: list[int] = []
    line_starts: list[bool] = []
    position: dict[int, int] = {}
    last_line = -1

    def pull() -> bool:
        nonlocal last_line
        uop = next(trace, None)
        if uop is None:
            return False
        is_os = 1 if uop.is_os else 0
        pc = uop.pc
        kinds.append(uop.kind)
        pcs.append(pc)
        addrs.append(uop.addr)
        flags.append(is_os | (2 if uop.taken else 0))
        targets.append(uop.target)
        os_flags.append(is_os)
        line = pc >> line_shift
        line_starts.append(line != last_line)
        last_line = line
        deps = uop.deps
        dep_counts.append(len(deps))
        for dep in deps:
            j = position.get(dep, -1)
            if j >= 0 and slot_of is not None:
                j = slot_of[j]
            dep_idx.append(j)
        position[uop.seq] = len(kinds) - 1
        return True

    return (kinds, pcs, addrs, flags, targets, dep_counts, dep_idx, os_flags,
            line_starts, pull, slot_of, 0)


def _batch_view(batch: "ColumnBatch", line_shift: int) -> tuple:
    """A finished :class:`~repro.trace.columns.ColumnBatch` as the
    :func:`_cycle_loop` view of a lone thread, sharing its columns.

    A lone thread dispatches in column order, so the batch's dependency
    column indexes already are ROB slots.
    """
    return (batch.kinds, batch.pcs, batch.addrs, batch.flags, batch.targets,
            batch.dep_counts, batch.dep_indexes(), batch.os_flags(),
            batch.line_starts(line_shift), None, None, batch.length)


def _cycle_loop(core: Core, threads: list[tuple]) -> CoreResult:
    """Run per-thread column views to completion on ``core``.

    A view is ``(kinds, pcs, addrs, flags, targets, dep_counts, dep_idx,
    os_flags, line_starts, pull, slot_of, length)``.  The first nine are
    positional columns with the meaning of
    :class:`repro.trace.columns.ColumnBatch`'s, except that ``dep_idx``
    holds the producer's ROB slot (-1 for none).  ``pull`` appends a live
    thread's next op and returns False at the end of its stream (None
    for a finished batch); ``slot_of`` maps column index to ROB slot
    when threads share the ROB (else None); ``length`` counts the ops
    already in the columns.
    """
    params = core.params
    hier = core.hierarchy
    predictor = core.branch_predictor
    width = params.width
    rob_capacity = params.rob_entries
    rs_capacity = params.reservation_stations
    load_buffer = params.load_buffer
    alu_lat = params.alu_latency
    mispredict_penalty = params.branch_mispredict_penalty

    access = hier.access_timed
    l1i_next = hier._l1i_next
    l1i_next_shift = hier._l1i_next_shift
    l1i_prefetch_miss = hier._l1i_prefetch_miss

    # The translate + L1-hit slice of access_timed, inlined per side:
    # the overwhelmingly common memory outcome.  Anything else (TLB
    # miss, prefetched line, L1 miss) falls back to the full walk.
    # Mirrors access_timed statistic-for-statistic.  A
    # non-power-of-two page size (page_shift 0) disables the inline
    # probe entirely.
    page_shift = hier._page_shift
    _dtlb, dl1map, dtstats, l1d, l1dstats = hier._data_side
    _itlb, il1map, itstats, l1i, l1istats = hier._instr_side
    l1d_sets = l1d._sets
    l1d_shift = l1d._line_shift
    l1d_nsets = l1d.num_sets
    l1d_latency = l1d.latency
    l1i_sets = l1i._sets
    l1i_shift = l1i._line_shift
    l1i_nsets = l1i.num_sets
    record_write = hier.directory.record_write
    core_id = hier.core_id
    heappush = heapq.heappush
    heappop = heapq.heappop

    # Branch predictor, inlined: same tables and update order as
    # BranchPredictor.predict_and_update; state written back on exit.
    bcounters = predictor._counters
    hmask = predictor._history_mask
    history = predictor._history
    btb = predictor._btb
    btb_entries = predictor._btb_entries
    branches = 0
    mispredicts = 0
    btb_misses = 0

    # Super-queue occupancy, tracked inline (the standalone SuperQueue
    # class keeps the same statistics for unit tests).
    superq_capacity = params.mshr_entries
    superq: list[int] = []
    superq_busy = 0
    superq_area = 0
    superq_last = 0
    superq_requests = 0

    # A ROB entry is a dispatch slot: slots are handed out in dispatch
    # order, so the ROB is exactly ``range(rob_head, slot)`` and needs no
    # container.  Per-op pipeline state lives in flat columns indexed by
    # slot.  A lone thread dispatches in column order, so its slot *is*
    # its column index and the backend reads the thread's own columns;
    # threads sharing the ROB interleave, so dispatch copies the three
    # fields the backend reads into slot order.
    nthreads = len(threads)
    shared = nthreads > 1
    if shared:
        slot_kinds: list[int] = []
        slot_addrs: list[int] = []
        slot_os: list[int] = []
    else:
        slot_kinds, _, slot_addrs, _, _, _, _, slot_os = threads[0][:8]
    # Per-slot state covers every op already in the columns and grows
    # by one slot per live pull.
    capacity = sum(view[11] for view in threads)
    completed = bytearray(capacity)
    issued_b = bytearray(capacity)
    ndeps = [0] * capacity
    waiters: dict[int, list[int]] = {}
    waiters_pop = waiters.pop
    # has_waiters[idx] keeps the wakeup stage out of the waiters dict
    # for the common producer-with-no-consumers-in-flight case.
    has_waiters = bytearray(capacity)
    rob_head = 0
    slot = 0
    ready: deque[int] = deque()
    ready_popleft = ready.popleft
    ready_append = ready.append
    waiting = 0  # dispatched but not issued (reservation stations)
    outstanding_loads = 0

    completing: dict[int, list[int]] = {}
    completing_get = completing.get
    completing_pop = completing.pop
    event_heap: list[int] = []
    # Ops completing exactly one cycle out (single-cycle ALU and store
    # results — the overwhelmingly common case) bypass the event heap.
    # An op can only enter this list on the cycle before it fires (issue
    # activity inhibits the idle skip), and every heap bucket due the
    # same cycle was pushed at least a cycle earlier, so draining the
    # heap first preserves the chronological wakeup order of the
    # merged-bucket scheme.
    nextc: list[int] = []
    nextc_append = nextc.append

    # Counters are deltas over this run: the hierarchy may be warm.
    hier_before = [get(hier) for _, get in _HIERARCHY_COUNTERS]
    stalls_before = _memory_stalls(hier)
    cycle = core._cycle

    # Frontend state.  Fetch round-robins over threads; a stalled or
    # exhausted thread yields its turn.  The thread being fetched works
    # in locals: its column cursor (others' are parked as ``[i,
    # dep_off, pending, length]``), stall deadline and last dispatched
    # OS bit.  Threads sharing the ROB also keep the last two, and
    # exhaustion, per thread for turn-taking, the idle skip and stall
    # attribution; a lone thread needs only its locals.
    stall_t = [0] * nthreads
    exhausted_t = [False] * nthreads
    last_os_t = [0] * nthreads
    running = nthreads
    fetch_turn = 0
    parked = [[0, 0, False, view[11]] for view in threads]
    t = cur = 0
    (kinds, pcs, addrs, flags, targets, dep_counts, dep_idx, os_flags,
     line_starts, pull, slot_of, n) = threads[0]
    i = 0            # next column index to decode
    dep_off = 0      # cursor into the flattened dependency column
    pending = False  # index i decoded but stalled on its I-fetch
    stall_until = 0
    last_is_os = 0

    # Result counters, accumulated in locals.
    instructions = 0
    os_instructions = 0
    committing_cycles = 0
    committing_cycles_os = 0
    stalled_cycles = 0
    stalled_cycles_os = 0
    loads = 0
    stores = 0

    def superq_advance(now: int) -> None:
        nonlocal superq_busy, superq_area, superq_last
        if now <= superq_last:
            return
        t = superq_last
        superq_last = now
        while superq and t < now:
            head = superq[0]
            if head > now:
                width_c = now - t
                superq_busy += width_c
                superq_area += width_c * len(superq)
                t = now
                break
            if head > t:
                width_c = head - t
                superq_busy += width_c
                superq_area += width_c * len(superq)
                t = head
            heappop(superq)
        if superq and t < now:
            width_c = now - t
            superq_busy += width_c
            superq_area += width_c * len(superq)

    while True:
        # ---- wakeup completions scheduled for this cycle ----------
        if event_heap and event_heap[0] <= cycle:
            while event_heap and event_heap[0] <= cycle:
                when = heappop(event_heap)
                for idx in completing_pop(when, ()):  # noqa: B909
                    completed[idx] = 1
                    if slot_kinds[idx] == 1:
                        outstanding_loads -= 1
                    if has_waiters[idx]:
                        for widx in waiters_pop(idx):
                            nd = ndeps[widx] - 1
                            ndeps[widx] = nd
                            if not nd and not issued_b[widx]:
                                ready_append(widx)
        if nextc:
            for idx in nextc:
                completed[idx] = 1
                if slot_kinds[idx] == 1:
                    outstanding_loads -= 1
                if has_waiters[idx]:
                    for widx in waiters_pop(idx):
                        nd = ndeps[widx] - 1
                        ndeps[widx] = nd
                        if not nd and not issued_b[widx]:
                            ready_append(widx)
            nextc.clear()

        # ---- commit (in order, up to width) ------------------------
        committed_this_cycle = 0
        first_commit_os = 0
        while rob_head < slot and committed_this_cycle < width:
            head = rob_head
            if not completed[head]:
                break
            rob_head = head + 1
            head_os = slot_os[head]
            if committed_this_cycle == 0:
                first_commit_os = head_os
            committed_this_cycle += 1
            instructions += 1
            if head_os:
                os_instructions += 1

        if committed_this_cycle:
            committing_cycles += 1
            if first_commit_os:
                committing_cycles_os += 1
        else:
            stalled_cycles += 1
            if rob_head < slot:
                if slot_os[rob_head]:
                    stalled_cycles_os += 1
            elif (last_os_t[fetch_turn % nthreads] if shared
                  else last_is_os):
                stalled_cycles_os += 1

        # ---- issue (up to width ready micro-ops) -------------------
        issued = 0
        while ready and issued < width:
            idx = ready_popleft()
            kind = slot_kinds[idx]
            if kind == 1:  # LOAD
                if outstanding_loads >= load_buffer:
                    ready.appendleft(idx)
                    break
                if len(superq) >= superq_capacity:
                    superq_advance(cycle)
                if len(superq) >= superq_capacity:
                    # Cannot start another off-core miss; conservatively
                    # wait (we do not know hit/miss before access).
                    ready.appendleft(idx)
                    break
                a = slot_addrs[idx]
                st = None
                if page_shift and (a >> page_shift) in dl1map:
                    lline = a >> l1d_shift
                    lset = l1d_sets[lline % l1d_nsets]
                    st = lset.get(lline)
                if st is not None and not st & 2:
                    page = a >> page_shift
                    del dl1map[page]
                    dl1map[page] = None
                    dtstats.l1_hits += 1
                    del lset[lline]
                    lset[lline] = st
                    l1d.consumed_pf_penalty = 0
                    l1dstats.demand_hits += 1
                    l1dstats.data_hits += 1
                    if slot_os[idx]:
                        l1dstats.os_data_hits += 1
                    done = cycle + l1d_latency
                    outstanding_loads += 1
                else:
                    latency, _level, off_core, _chip = access(
                        a, False, False, slot_os[idx], cycle)
                    done = cycle + latency
                    outstanding_loads += 1
                    if off_core:
                        superq_advance(cycle)
                        heappush(superq, done)
                        superq_requests += 1
            elif kind == 2:  # STORE
                # Stores drain through the store buffer; commit is not
                # held up by their miss latency, but the access still
                # updates cache state, bandwidth, and the directory.
                a = slot_addrs[idx]
                st = None
                if page_shift and (a >> page_shift) in dl1map:
                    lline = a >> l1d_shift
                    lset = l1d_sets[lline % l1d_nsets]
                    st = lset.get(lline)
                if st is not None and not st & 2:
                    page = a >> page_shift
                    del dl1map[page]
                    dl1map[page] = None
                    dtstats.l1_hits += 1
                    record_write(a, core_id)
                    del lset[lline]
                    lset[lline] = st | 1
                    l1d.consumed_pf_penalty = 0
                    l1dstats.demand_hits += 1
                    l1dstats.data_hits += 1
                    if slot_os[idx]:
                        l1dstats.os_data_hits += 1
                else:
                    access(a, True, False, slot_os[idx], cycle)
                done = cycle + 1
            else:  # ALU or BRANCH
                done = cycle + alu_lat
            issued_b[idx] = 1
            waiting -= 1
            issued += 1
            if done == cycle + 1:
                nextc_append(idx)
            else:
                bucket = completing_get(done)
                if bucket is None:
                    completing[done] = [idx]
                    heappush(event_heap, done)
                else:
                    bucket.append(idx)

        # ---- fetch + dispatch --------------------------------------
        dispatched = 0
        attempts = 0
        while True:
            if shared:
                if (
                    dispatched >= width
                    or slot - rob_head >= rob_capacity
                    or waiting >= rs_capacity
                    or attempts >= nthreads
                ):
                    break
                t = fetch_turn % nthreads
                fetch_turn += 1
                attempts += 1
                if exhausted_t[t] or stall_t[t] > cycle:
                    continue
                attempts = 0  # this thread can supply uops this cycle
                if t != cur:
                    park = parked[cur]
                    park[0] = i
                    park[1] = dep_off
                    park[2] = pending
                    park[3] = n
                    cur = t
                    (kinds, pcs, addrs, flags, targets, dep_counts, dep_idx,
                     os_flags, line_starts, pull, slot_of, _) = threads[t]
                    i, dep_off, pending, n = parked[t]
                stall_until = stall_t[t]
                last_is_os = last_os_t[t]
            elif not running or stall_until > cycle:
                break
            while (
                dispatched < width
                and slot - rob_head < rob_capacity
                and waiting < rs_capacity
                and stall_until <= cycle
            ):
                if pending:
                    pending = False
                else:
                    if i >= n:
                        if pull is None or not pull():
                            exhausted_t[t] = True
                            running -= 1
                            break
                        n += 1
                        completed.append(0)
                        issued_b.append(0)
                        ndeps.append(0)
                        has_waiters.append(0)
                    if line_starts[i]:
                        pc = pcs[i]
                        st = None
                        if page_shift and (pc >> page_shift) in il1map:
                            fline = pc >> l1i_shift
                            fset = l1i_sets[fline % l1i_nsets]
                            st = fset.get(fline)
                        if st is not None and not st & 2:
                            page = pc >> page_shift
                            del il1map[page]
                            il1map[page] = None
                            itstats.l1_hits += 1
                            del fset[fline]
                            fset[fline] = st
                            l1i.consumed_pf_penalty = 0
                            l1istats.demand_hits += 1
                            l1istats.inst_hits += 1
                            if os_flags[i]:
                                l1istats.os_inst_hits += 1
                            level = "l1"
                        else:
                            latency, level, off_core, _chip = access(
                                pc, False, True, os_flags[i], cycle)
                        if l1i_next is not None:
                            # prefetch_instruction, inlined up to the
                            # L1-I probe.
                            pline = (pc >> l1i_next_shift
                                     if l1i_next_shift >= 0
                                     else pc // l1i_next.line_bytes)
                            if pline != l1i_next._last_line:
                                l1i_next._last_line = pline
                                tgt = (pline + 1) * l1i_next.line_bytes
                                tl = tgt >> l1i_shift
                                tset = l1i_sets[tl % l1i_nsets]
                                if tl not in tset:
                                    l1i_prefetch_miss(tgt, tl, tset)
                        if level != "l1":
                            stall_until = cycle + latency
                            if off_core:
                                superq_advance(cycle)
                                heappush(superq, stall_until)
                                superq_requests += 1
                            pending = True
                            break
                    if kinds[i] == 3:  # BRANCH
                        branches += 1
                        site = pcs[i] >> 4
                        index = site & hmask
                        counter = bcounters[index]
                        if flags[i] & 2:  # taken
                            mispredicted = counter < 2
                            btb_missed = False
                            bslot = site % btb_entries
                            if not mispredicted and btb.get(bslot) != targets[i]:
                                btb_misses += 1
                                btb_missed = True
                            btb[bslot] = targets[i]
                            if counter < 3:
                                bcounters[index] = counter + 1
                            history = ((history << 1) | 1) & hmask
                        else:
                            mispredicted = counter >= 2
                            btb_missed = False
                            if counter > 0:
                                bcounters[index] = counter - 1
                            history = (history << 1) & hmask
                        if mispredicted:
                            mispredicts += 1
                            # The branch itself still dispatches below.
                            stall_until = cycle + mispredict_penalty
                        elif btb_missed:
                            # Correct direction, unknown target: the
                            # frontend re-steers once the target is
                            # computed at decode/execute.
                            stall_until = cycle + 8
                # Dispatch into the ROB slot ``slot``.
                kind = kinds[i]
                last_is_os = os_flags[i]
                if kind == 1:
                    loads += 1
                elif kind == 2:
                    stores += 1
                if shared:
                    slot_kinds.append(kind)
                    slot_addrs.append(addrs[i])
                    slot_os.append(last_is_os)
                    slot_of.append(slot)
                dc = dep_counts[i]
                nd = 0
                if dc:
                    end = dep_off + dc
                    while dep_off < end:
                        j = dep_idx[dep_off]
                        dep_off += 1
                        # No producer in the window (-1), or one already
                        # completed: no dependency to wait on.
                        if j >= 0 and not completed[j]:
                            nd += 1
                            if has_waiters[j]:
                                waiters[j].append(slot)
                            else:
                                has_waiters[j] = 1
                                waiters[j] = [slot]
                    if nd:
                        ndeps[slot] = nd
                waiting += 1
                dispatched += 1
                if not nd:
                    ready_append(slot)
                i += 1
                slot += 1
            if shared:
                stall_t[t] = stall_until
                last_os_t[t] = last_is_os
            else:
                break

        # ---- termination / idle-cycle skipping ---------------------
        if rob_head >= slot and not running:
            cycle += 1
            break

        if committed_this_cycle == 0 and issued == 0 and dispatched == 0:
            if shared:
                candidates = [stall for stall, done
                              in zip(stall_t, exhausted_t)
                              if not done and stall > cycle]
            else:
                candidates = [stall_until] \
                    if running and stall_until > cycle else []
            if event_heap:
                candidates.append(event_heap[0])
            if candidates:
                target = min(candidates)
                if target > cycle + 1:
                    skipped = target - cycle - 1
                    stalled_cycles += skipped
                    if rob_head < slot:
                        if slot_os[rob_head]:
                            stalled_cycles_os += skipped
                    elif (last_os_t[fetch_turn % nthreads] if shared
                          else last_is_os):
                        stalled_cycles_os += skipped
                    cycle = target - 1
            else:
                raise RuntimeError(
                    "core deadlock: nothing in flight but trace not done"
                )
        cycle += 1

    superq_advance(cycle)
    core._cycle = cycle
    parked[cur][0] = i

    predictor._history = history
    pstats = predictor.stats
    pstats.branches += branches
    pstats.mispredicts += mispredicts
    pstats.btb_misses += btb_misses

    # Every dispatched op commits before the loop ends, so a thread's
    # instruction count is its final column cursor.
    result = CoreResult(per_thread_instructions=[park[0] for park in parked])
    result.instructions = instructions
    result.os_instructions = os_instructions
    result.committing_cycles = committing_cycles
    result.committing_cycles_os = committing_cycles_os
    result.stalled_cycles = stalled_cycles
    result.stalled_cycles_os = stalled_cycles_os
    result.loads = loads
    result.stores = stores
    result.cycles = committing_cycles + stalled_cycles
    result.superq_busy_cycles = superq_busy
    result.superq_requests = superq_requests
    result.mlp = superq_area / superq_busy if superq_busy else 0.0
    result.memory_cycles = min(
        result.cycles,
        superq_busy + _memory_stalls(hier) - stalls_before,
    )
    for (name, get), before in zip(_HIERARCHY_COUNTERS, hier_before):
        setattr(result, name, get(hier) - before)
    result.branches = branches
    result.branch_mispredicts = mispredicts
    return result
