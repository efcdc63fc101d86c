"""Simulated time for the fleet layer: a deterministic event loop.

Everything in :mod:`repro.cluster` runs against *simulated
microseconds*, never the wall clock — the ``cluster-clock`` lint rule
enforces that ``time.time``/``time.monotonic``/``time.sleep`` cannot
appear anywhere in this package.  The loop is a classic discrete-event
simulator: a heap of ``(when, seq, action)`` entries where ``seq`` is a
monotonically increasing tie-breaker, so two events scheduled for the
same instant always fire in scheduling order.  Determinism therefore
holds by construction: the same seeds schedule the same events in the
same order on every interpreter.

There is no cancellation and no early stop: every scheduled action
fires and counts in ``fired`` (a summary's ``events_fired``), and a
stale timer checks its request's ``done``/``settled`` flags instead.
"""

from __future__ import annotations

import heapq
from typing import Callable

from repro.faults.watchdog import DeterministicRunError


class HorizonOverrunError(DeterministicRunError):
    """An event was scheduled past the run's horizon: the fleet cannot
    drain its load, and rerunning the cell would schedule it again."""


class EventLoop:
    """A deterministic simulated-time event loop (integer microseconds)."""

    def __init__(self) -> None:
        self.now = 0
        self._heap: list[tuple[int, int, Callable[[], None]]] = []
        self._seq = 0
        self.fired = 0

    def at(self, when: int, action: Callable[[], None]) -> None:
        """Schedule ``action`` for absolute simulated time ``when``."""
        if when < self.now:
            raise ValueError(
                f"cannot schedule into the past ({when} < now {self.now})")
        heapq.heappush(self._heap, (int(when), self._seq, action))
        self._seq += 1

    def after(self, delay: int, action: Callable[[], None]) -> None:
        """Schedule ``action`` ``delay`` microseconds from now."""
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        heapq.heappush(self._heap, (self.now + int(delay), self._seq, action))
        self._seq += 1

    def __len__(self) -> int:
        return len(self._heap)

    def run(self, horizon: int | None = None) -> int:
        """Drain the heap in ``(when, seq)`` order; returns final time.

        ``horizon`` is a hard runaway guard: a simulation that
        schedules past it raises :class:`HorizonOverrunError` instead
        of hanging the sweep (the cluster analogue of the runaway-trace
        watchdog).
        """
        heap = self._heap
        pop = heapq.heappop
        limit = float("inf") if horizon is None else horizon
        while heap:
            when, _seq, action = pop(heap)
            if when > limit:
                raise HorizonOverrunError(
                    f"simulation ran past its {horizon}us horizon "
                    f"(event at {when}us); the fleet cannot drain its "
                    "load — check arrival rate vs. service capacity")
            self.now = when
            self.fired += 1
            action()
        return self.now
