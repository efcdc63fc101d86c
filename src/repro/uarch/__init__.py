"""Micro-architectural simulator substrate.

This package models the server processor of the paper's Table 1 — an
Intel Xeon X5670-class chip: aggressive 4-wide out-of-order cores, a
three-level cache hierarchy (32 KB split L1, 256 KB per-core L2, 12 MB
shared LLC), hardware prefetchers (next-line, adjacent-line, HW stream,
DCU streamer), two-way SMT, a last-writer coherence directory, and DDR3
bandwidth accounting.  It exposes the same performance-counter surface
the paper reads through VTune.
"""

from repro.uarch.params import MachineParams
from repro.uarch.uop import MicroOp, OpKind
from repro.uarch.cache import Cache, CacheStats
from repro.uarch.hierarchy import MemoryHierarchy, AccessResult
from repro.uarch.core import Core, CoreResult
from repro.uarch.inorder import InOrderCore
from repro.uarch.chip import Chip, ChipResult

__all__ = [
    "MachineParams",
    "MicroOp",
    "OpKind",
    "Cache",
    "CacheStats",
    "MemoryHierarchy",
    "AccessResult",
    "Core",
    "CoreResult",
    "InOrderCore",
    "Chip",
    "ChipResult",
]
