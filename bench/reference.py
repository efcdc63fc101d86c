"""Host speed: a fixed reference kernel timed beside every pass.

The machines this benchmark runs on are shared, and their speed drifts
by tens of percent over minutes as neighbours come and go; every host
time in a pass (set-up included) moves with it.  Measured on a shared
2-vCPU host, the medians of ten back-to-back runs of one workload spread
30-47% between their quartiles, far wider than any bound worth setting.

So each pass also times this kernel, in the same process, right before
its timed call, and every host-time metric is rescaled to a host on
which the kernel takes :data:`NOMINAL_S`.  What the kernel is matters:

* a short pure-Python LRU walk timed in the *parent* between passes did
  not track the drift (its ratio to wall time spread wider than raw
  wall time);
* this kernel is a small set-associative cache walk over a dict-backed
  memory, the same kind of interpreted dict-and-list work as the
  simulator, timed in the pass's own process.  Over 25 groups of five
  passes per workload, part of the time with a second simulator process
  on the other vCPU, rescaling cut the spread of the group medians from
  12-20% to 4-6%.

:data:`SAMPLES` calls run right before the pass and as many right
after it, and the fastest of them is the pass's kernel time: a
neighbour's burst can only slow a call, never speed it up, and one
that covers the calls on one side of the pass rarely covers both.  The
kernel's footprint is a few megabytes, and the pass's peak RSS is read
before the calls after it.
"""

from __future__ import annotations

import time

#: The kernel time rescaled results are expressed at: a round figure
#: near the kernel's median on the host the baseline was taken on, so
#: rescaled times there read close to raw seconds.
NOMINAL_S = 0.1
#: Kernel calls on each side of a pass.
SAMPLES = 2


def kernel_s(steps: int = 200_000) -> float:
    """Host time of one fixed walk through an 8-way, 1024-set LRU cache."""
    memory = {i: i * 7 for i in range(1 << 16)}
    mask = (1 << 16) - 1
    sets: list[list[int]] = [[] for _ in range(1024)]
    x, total = 1, 0
    start = time.perf_counter()
    for i in range(steps):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        line = ((x >> 3) if i & 3 else i * 64) >> 6
        ways = sets[line & 1023]
        if line in ways:
            ways.remove(line)
        elif len(ways) == 8:
            del ways[0]
        ways.append(line)
        total += memory[line & mask]
    return time.perf_counter() - start


def host_timed(unit: str) -> bool:
    """Whether a metric in ``unit`` moves with host speed."""
    return unit == "s" or unit.endswith("/s")


def rescale(value: float, unit: str, kernel: float) -> float:
    """``value`` as measured on a host whose kernel time is ``kernel``,
    rescaled to one whose kernel time is :data:`NOMINAL_S`."""
    if unit == "s":
        return value * NOMINAL_S / kernel
    if unit.endswith("/s"):
        return value * kernel / NOMINAL_S
    return value
