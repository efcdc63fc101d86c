"""Multi-core chip: private L1/L2 per core, shared LLC, DRAM, directory.

The paper runs workloads on four active cores of a six-core chip (§3.1),
and measures read-write sharing by splitting threads across two sockets
(§3.1).  The chip model wires per-core hierarchies to one shared LLC,
one set of memory channels, and one last-writer directory.

Timing interleave: cores execute their traces in round-robin *segments*
(a segment is one burst of micro-ops from that thread).  Within a
segment, a core runs alone; across segments, all cache, directory, and
bandwidth state is shared.  This captures the capacity, sharing, and
bandwidth interactions the experiments measure without simulating
cycle-level inter-core arbitration (which the paper's own counter
methodology cannot observe either).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

from repro.uarch.cache import Cache
from repro.uarch.coherence import LastWriterDirectory
from repro.uarch.core import Core, CoreResult
from repro.uarch.counters import COUNTER_NAMES
from repro.uarch.dram import MemoryChannels
from repro.uarch.hierarchy import MemoryHierarchy
from repro.uarch.params import MachineParams
from repro.uarch.uop import MicroOp

#: Counters that add across cores and segments: every one but ``mlp``,
#: a ratio re-weighted by super-queue busy cycles instead.
_SUMMED_COUNTERS = tuple(name for name in COUNTER_NAMES if name != "mlp")


@dataclass
class ChipResult:
    """Aggregate of the per-core results of one chip execution."""

    per_core: list[CoreResult] = field(default_factory=list)

    @property
    def cycles(self) -> int:
        """Wall-clock cycles: the longest core occupies the chip."""
        return max((r.cycles for r in self.per_core), default=0)

    @property
    def total_cycles(self) -> int:
        return sum(r.cycles for r in self.per_core)

    @property
    def instructions(self) -> int:
        return sum(r.instructions for r in self.per_core)

    def summed(self) -> CoreResult:
        total = CoreResult()
        for r in self.per_core:
            for name in _SUMMED_COUNTERS:
                setattr(total, name, getattr(total, name) + getattr(r, name))
        busy = sum(r.superq_busy_cycles for r in self.per_core)
        if busy:
            total.mlp = (
                sum(r.mlp * r.superq_busy_cycles for r in self.per_core) / busy
            )
        return total


class Chip:
    """A CMP with ``active_cores`` cores sharing LLC/memory/directory."""

    def __init__(self, params: MachineParams, num_cores: int | None = None) -> None:
        self.params = params
        self.num_cores = num_cores if num_cores is not None else params.active_cores
        self.llc = Cache("LLC", params.llc)
        self.dram = MemoryChannels(
            params.memory_channels, params.peak_bandwidth_bytes_per_s, params.line_bytes
        )
        # Two sockets: the first half of the cores on socket 0 (§3.1).
        self.directory = LastWriterDirectory(
            params.line_bytes, cores_per_socket=max(1, self.num_cores // 2)
        )
        self.cores = [
            Core(
                params,
                MemoryHierarchy(
                    params,
                    core_id=i,
                    shared_llc=self.llc,
                    dram=self.dram,
                    directory=self.directory,
                ),
                core_id=i,
            )
            for i in range(self.num_cores)
        ]
        for core in self.cores:
            self.directory.attach_core(
                core.core_id, core.hierarchy.invalidate_private
            )

    def run_segments(
        self, per_core_segments: Sequence[Sequence[Iterator[MicroOp]]]
    ) -> ChipResult:
        """Round-robin execution of per-core trace segments."""
        if len(per_core_segments) > self.num_cores:
            raise ValueError(
                f"{len(per_core_segments)} traces for {self.num_cores} cores"
            )
        result = ChipResult(per_core=[CoreResult() for _ in per_core_segments])
        queues = [list(segs) for segs in per_core_segments]
        while any(queues):
            for core_index, queue in enumerate(queues):
                if not queue:
                    continue
                segment = queue.pop(0)
                partial = self.cores[core_index].run([segment])
                _accumulate(result.per_core[core_index], partial)
        return result

    def run(self, per_core_traces: Sequence[Iterator[MicroOp]]) -> ChipResult:
        """Run one whole trace per core (single segment each)."""
        return self.run_segments([[t] for t in per_core_traces])


def _accumulate(total: CoreResult, part: CoreResult) -> None:
    busy_before = total.superq_busy_cycles
    for name in _SUMMED_COUNTERS:
        setattr(total, name, getattr(total, name) + getattr(part, name))
    busy_total = total.superq_busy_cycles
    if busy_total:
        total.mlp = (
            total.mlp * busy_before + part.mlp * part.superq_busy_cycles
        ) / busy_total
