"""Machine parameters (the paper's Table 1).

The baseline configuration mirrors the 32 nm Intel Xeon X5670 used in the
paper: 6 out-of-order cores at 2.93 GHz, 4-wide issue/retire, 128-entry
reorder buffer, 48/32-entry load/store buffers, 36 reservation stations,
32 KB split L1 caches (4-cycle), 256 KB per-core L2 (6-cycle), a 12 MB
shared LLC (29-cycle), and 3 DDR3 channels delivering up to 32 GB/s.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace


@dataclass(frozen=True)
class CacheParams:
    """Geometry and latency of one cache level."""

    size_bytes: int
    assoc: int
    latency: int
    line_bytes: int = 64

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.line_bytes * self.assoc)

    def __post_init__(self) -> None:
        if self.size_bytes % (self.line_bytes * self.assoc):
            raise ValueError(
                f"cache size {self.size_bytes} not divisible into "
                f"{self.assoc}-way sets of {self.line_bytes}B lines"
            )


@dataclass(frozen=True)
class PrefetcherParams:
    """Which hardware prefetchers are enabled (BIOS switches in §4.3)."""

    l1i_next_line: bool = True
    adjacent_line: bool = True
    hw_prefetcher: bool = True  # L2 stream prefetcher
    dcu_streamer: bool = True  # L1-D streaming prefetcher
    hw_prefetch_degree: int = 2

    def all_disabled(self) -> "PrefetcherParams":
        return PrefetcherParams(False, False, False, False)


@dataclass(frozen=True)
class MachineParams:
    """Full parameter set for the simulated server processor."""

    freq_hz: float = 2.93e9
    num_cores: int = 6
    active_cores: int = 4  # the paper limits workloads to four cores
    smt_threads: int = 1

    # Core micro-architecture (Table 1).
    width: int = 4
    rob_entries: int = 128
    load_buffer: int = 48
    store_buffer: int = 32
    reservation_stations: int = 36
    mshr_entries: int = 16  # L2 misses in flight per core (§4.3)
    fetch_queue: int = 16
    branch_mispredict_penalty: int = 15
    alu_latency: int = 1

    # Memory hierarchy (Table 1).
    l1i: CacheParams = field(default_factory=lambda: CacheParams(32 * 1024, 4, 4))
    l1d: CacheParams = field(default_factory=lambda: CacheParams(32 * 1024, 8, 4))
    l2: CacheParams = field(default_factory=lambda: CacheParams(256 * 1024, 8, 6))
    llc: CacheParams = field(default_factory=lambda: CacheParams(12 * 1024 * 1024, 16, 29))
    memory_latency: int = 200
    memory_channels: int = 3
    peak_bandwidth_bytes_per_s: float = 32e9

    # TLBs.
    page_bytes: int = 4096
    itlb_entries: int = 64
    dtlb_entries: int = 64
    stlb_entries: int = 512
    tlb_miss_penalty: int = 30

    prefetch: PrefetcherParams = field(default_factory=PrefetcherParams)

    line_bytes: int = 64

    def with_llc_mb(self, megabytes: float) -> "MachineParams":
        # repro-lint: pure -- derived configs feed config_fingerprint
        """Return a copy with the LLC resized (Figure 4 sweeps)."""
        size = int(megabytes * 1024 * 1024)
        assoc = self.llc.assoc
        # Keep the set count a power-of-two-free divisor by adjusting assoc
        # when the size does not divide evenly.
        while size % (self.line_bytes * assoc):
            assoc -= 1
            if assoc == 0:
                raise ValueError(f"cannot build an LLC of {megabytes} MB")
        return replace(self, llc=CacheParams(size, assoc, self.llc.latency))

    def with_prefetchers(self, prefetch: PrefetcherParams) -> "MachineParams":
        return replace(self, prefetch=prefetch)

    def with_smt(self, threads: int = 2) -> "MachineParams":
        return replace(self, smt_threads=threads)

    @staticmethod
    def table1_rows() -> list[tuple[str, str]]:
        """Human-readable Table 1, derived from the default parameters."""
        p = MachineParams()
        return [
            ("Processor", "32nm Intel Xeon X5670, operating at 2.93GHz"),
            ("CMP width", f"{p.num_cores} OoO cores"),
            ("Core width", f"{p.width}-wide issue and retire"),
            ("Reorder buffer", f"{p.rob_entries} entries"),
            ("Load/Store buffer", f"{p.load_buffer}/{p.store_buffer} entries"),
            ("Reservation stations", f"{p.reservation_stations} entries"),
            ("L1 cache", f"{p.l1i.size_bytes // 1024}KB, split I/D, "
                         f"{p.l1i.latency}-cycle access latency"),
            ("L2 cache", f"{p.l2.size_bytes // 1024}KB per core, "
                         f"{p.l2.latency}-cycle access latency"),
            ("LLC (L3 cache)", f"{p.llc.size_bytes // (1024 * 1024)}MB, "
                               f"{p.llc.latency}-cycle access latency"),
            ("Memory", f"24GB, {p.memory_channels} DDR3 channels, delivering "
                       f"up to {int(p.peak_bandwidth_bytes_per_s / 1e9)}GB/s"),
        ]
