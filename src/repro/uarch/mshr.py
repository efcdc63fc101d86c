"""MSHR / super-queue occupancy accounting.

The paper computes *Memory cycles* from "MSHR occupancy statistics ...
the number of cycles when there is at least one L2 miss being serviced"
(§3.1, footnote 1: the super queue).  The core registers every off-core
(L2-missing) request here with its completion cycle; the tracker answers
(a) how many cycles had ≥ 1 request outstanding and (b) the average
number outstanding over those cycles — the MLP metric of Figure 3.
"""

from __future__ import annotations


class SuperQueue:
    """Tracks outstanding off-core requests over simulated cycles.

    ``advance(cycle)`` must be called with monotonically non-decreasing
    cycle numbers; it integrates occupancy over the elapsed interval.
    """

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._completions: list[int] = []  # completion cycles, unsorted
        self._last_cycle = 0
        self.busy_cycles = 0  # cycles with >=1 outstanding request
        self.occupancy_sum = 0  # sum over busy cycles of #outstanding
        self.requests = 0

    @property
    def outstanding(self) -> int:
        return len(self._completions)

    def has_capacity(self) -> bool:
        return len(self._completions) < self.capacity

    def insert(self, completion_cycle: int) -> None:
        self._completions.append(completion_cycle)
        self.requests += 1

    def advance(self, cycle: int) -> None:
        """Integrate occupancy from the last observed cycle up to `cycle`."""
        if cycle <= self._last_cycle:
            return
        start = self._last_cycle
        self._last_cycle = cycle
        if not self._completions:
            return
        # Integrate piecewise: occupancy only changes at completion times.
        pending = sorted(self._completions)
        self._completions = [c for c in pending if c > cycle]
        t = start
        n = len(pending)
        i = 0
        while t < cycle and i < n:
            next_completion = pending[i]
            seg_end = min(next_completion, cycle)
            if seg_end > t:
                width = seg_end - t
                live = n - i
                self.busy_cycles += width
                self.occupancy_sum += width * live
                t = seg_end
            if next_completion <= cycle:
                i += 1

    @property
    def mlp(self) -> float:
        """Average outstanding off-core requests over non-idle cycles."""
        return self.occupancy_sum / self.busy_cycles if self.busy_cycles else 0.0
