"""LLC-capacity sensitivity methodology (Figure 4, §3.1).

The paper cannot resize its hardware LLC, so it dedicates two cores to
*cache-polluting threads* — pseudo-random walks over arrays sized so
that all accesses miss the upper caches and hit (and thereby occupy)
the LLC, shrinking the capacity left to the workload.

The simulator can do both: run the actual polluter threads on a shared
chip (``method="polluter"``, faithful to the paper) or resize the LLC
directly (``method="resize"``, exact and cheaper — the default for the
benchmark harness).  A test asserts the two methods agree.
"""

from __future__ import annotations

import random
from typing import Iterator

from repro.uarch.cache import Cache
from repro.uarch.params import MachineParams
from repro.uarch.uop import MicroOp, OpKind

_LINE = 64
_POLLUTER_BASE = 0x70_0000_0000  # far away from any workload region
_POLLUTER_CODE = 0x0030_0000


def polluter_trace(
    array_bytes: int,
    num_uops: int,
    seed: int = 0,
    tid: int = 0,
) -> Iterator[MicroOp]:
    """The §3.1 polluter thread: a pseudo-random array walk.

    Every access targets a distinct line of the array in a shuffled
    order, so upper-level caches miss and the LLC retains the whole
    array (the paper verifies ~100 % LLC hit ratio for the polluters).
    """
    lines = max(1, array_bytes // _LINE)
    rng = random.Random(seed)
    order = list(range(lines))
    rng.shuffle(order)
    seq = 0
    position = 0
    emitted = 0
    while emitted < num_uops:
        line = order[position % lines]
        position += 1
        seq += 1
        emitted += 1
        yield MicroOp(
            OpKind.LOAD,
            _POLLUTER_CODE + (seq % 1024) * 4,
            _POLLUTER_BASE + line * _LINE,
            (),
            seq,
            tid=tid,
        )
        if emitted < num_uops:
            seq += 1
            emitted += 1
            yield MicroOp(OpKind.ALU, _POLLUTER_CODE + (seq % 1024) * 4,
                          0, (), seq, tid=tid)


def warm_polluter(llc: Cache, array_bytes: int) -> None:
    """Pre-install the polluter array in the LLC (its steady state),
    at the LLC's own line size."""
    llc.install_ranges([(_POLLUTER_BASE, array_bytes)])


def polluted_params(params: MachineParams, effective_mb: float) -> MachineParams:
    """The 'resize' method: an LLC of ``effective_mb`` megabytes."""
    return params.with_llc_mb(effective_mb)


def polluter_array_bytes(params: MachineParams, effective_mb: float) -> int:
    """How much LLC the polluters must occupy to leave ``effective_mb``."""
    total = params.llc.size_bytes
    target = int(effective_mb * (1 << 20))
    if target > total:
        raise ValueError(
            f"effective capacity {effective_mb} MB exceeds the "
            f"{total // (1 << 20)} MB LLC"
        )
    return total - target
