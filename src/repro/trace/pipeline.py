"""The capture/replay pipeline: memoization, store plumbing, and taps.

:func:`materialize` is the single entry point the runner uses to obtain
a trace: an in-process memo (content-keyed by fingerprint, so always
safe to consult) in front of the on-disk :class:`~repro.trace.store.TraceStore`,
in front of :func:`capture_fresh`, which captures now and is also the
one way to get the live app that produced a trace (the faults figure
reads its service metrics).  The memo is bounded by encoded bytes
(large enough for a full figure sweep's distinct traces) and survives
``use_cache=False`` runs because a trace is a pure function of its
key: skipping the memo could only change wall-clock time, never a
counter.

:data:`TAPS` is the pipeline's observability surface: per-stage
counters and wall-clock accumulators (capture, encode, store, decode,
replay) surfaced by ``python -m repro trace stats`` and appended to
sweep progress output.  Timings use ``time.perf_counter`` — they are
reported, never used to make a decision, so determinism holds.

:func:`materialize_cells` is the sweep-side hook: given a cell list it
captures each *distinct* trace key exactly once before the cells fan
out, so parallel workers find every trace in the store and a sweep
performs O(traces) captures rather than O(cells).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, fields, replace
from time import perf_counter
from typing import TYPE_CHECKING, Sequence

from repro.trace.capture import CapturedTrace, TraceKey, capture
from repro.trace.replay import replay_trace
from repro.trace.store import TraceStore

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.apps.base import ServerApp
    from repro.core.sweep import Cell
    from repro.uarch.core import CoreResult
    from repro.uarch.params import MachineParams

__all__ = ["TraceTaps", "TAPS", "capture_fresh", "materialize", "replay",
           "reset", "trace_keys_for_cells", "materialize_cells"]


@dataclass
class TraceTaps:
    """Per-stage pipeline counters and wall-clock accumulators."""

    captures: int = 0
    capture_uops: int = 0
    capture_seconds: float = 0.0
    capture_errors: int = 0
    encoded_bytes: int = 0
    memo_hits: int = 0
    store_hits: int = 0
    store_misses: int = 0
    store_seconds: float = 0.0
    replays: int = 0
    replay_uops: int = 0
    replay_seconds: float = 0.0
    #: Sweep cells handed to pool workers, whose taps stay there.
    worker_cells: int = 0

    def reset(self) -> None:
        """Zero every tap (test isolation; ``trace stats`` baselines)."""
        for f in fields(self):
            setattr(self, f.name, f.default)

    def capture_rate(self) -> float:
        """Capture+encode throughput in uops/s (0 before any capture)."""
        return (self.capture_uops / self.capture_seconds
                if self.capture_seconds > 0 else 0.0)

    def replay_rate(self) -> float:
        """Decode+replay throughput in uops/s (0 before any replay)."""
        return (self.replay_uops / self.replay_seconds
                if self.replay_seconds > 0 else 0.0)

    def summary(self) -> str:
        """One line for sweep progress output and ``trace stats``.

        Taps count this process only, so once cells ran in pool
        workers the line says so, with how many did.
        """
        workers = (f" [this process only; {self.worker_cells} cell(s) "
                   "ran in worker processes]" if self.worker_cells else "")
        return (
            f"trace pipeline: {self.captures} capture(s) "
            f"({self.capture_uops} uops, {self.capture_seconds:.2f}s, "
            f"{self.capture_rate():,.0f} uops/s), "
            f"{self.replays} replay(s) "
            f"({self.replay_uops} uops, {self.replay_seconds:.2f}s, "
            f"{self.replay_rate():,.0f} uops/s), "
            f"store {self.store_hits} hit(s) / "
            f"{self.store_misses} miss(es), "
            f"{self.memo_hits} memo hit(s){workers}"
        )


#: Process-global taps; reset alongside the runner cache.
TAPS = TraceTaps()

#: Fingerprint → trace.  Content-keyed, so a hit is always
#: observationally identical to a fresh capture.  It holds no app: an
#: app lives only as long as the capture that built it, or its caller.
_MEMO: OrderedDict[str, CapturedTrace] = OrderedDict()
#: Eviction is by encoded bytes, not entry count: under ``--no-cache``
#: the memo is the *only* capture dedup, and Figure 4's size-major cell
#: order cycles through every workload before reusing one — a small
#: count-based LRU would evict each trace just before its next use and
#: re-capture O(cells) times.  The budget comfortably holds a full
#: figure sweep's distinct traces (~15 workloads x ~6 MB at default
#: windows) while still bounding a long-lived process.
_MEMO_BUDGET_BYTES = 256 * 1024 * 1024


def reset() -> None:
    """Drop the trace memo and zero the taps (test isolation)."""
    _MEMO.clear()
    TAPS.reset()


def _tick() -> float:
    # repro-lint: sanitizer -- feeds only the TAPS latency taps, never result data
    """Wall-clock read for the observability taps.

    Isolated (and blessed for the whole-program taint pass) so the
    harness-timing exemption is explicit: anything else in this module
    that wants a clock has to go through here or answer to the linter.
    """
    return perf_counter()


def _memo_put(fingerprint: str, captured: CapturedTrace) -> None:
    _MEMO[fingerprint] = captured
    _MEMO.move_to_end(fingerprint)
    total = sum(trace.nbytes() for trace in _MEMO.values())
    while total > _MEMO_BUDGET_BYTES and len(_MEMO) > 1:
        _, evicted = _MEMO.popitem(last=False)
        total -= evicted.nbytes()


def capture_fresh(key: TraceKey, use_store: bool = True
                  ) -> tuple[CapturedTrace, "ServerApp"]:
    """Capture ``key`` now, whatever the memo and store hold.

    Counts the capture in the taps, writes the trace to the store when
    ``use_store``, memoizes the trace (never the app), and returns the
    trace with the live app that produced it.
    """
    started = _tick()
    captured, app = capture(key)
    TAPS.captures += 1
    TAPS.capture_seconds += _tick() - started
    TAPS.capture_uops += captured.total_uops()
    TAPS.encoded_bytes += captured.nbytes()
    if use_store:
        TraceStore().put(captured)
    _memo_put(captured.fingerprint, captured)
    return captured, app


def materialize(key: TraceKey, use_store: bool = True) -> CapturedTrace:
    """The trace for ``key``: memo, then store, then :func:`capture_fresh`.

    ``use_store=False`` skips the on-disk store in both directions.
    """
    fingerprint = key.fingerprint()
    hit = _MEMO.get(fingerprint)
    if hit is not None:
        _MEMO.move_to_end(fingerprint)
        TAPS.memo_hits += 1
        return hit
    if use_store:
        store = TraceStore()
        started = _tick()
        captured = store.get(fingerprint)
        TAPS.store_seconds += _tick() - started
        if captured is not None:
            TAPS.store_hits += 1
            _memo_put(fingerprint, captured)
            return captured
        TAPS.store_misses += 1
    return capture_fresh(key, use_store)[0]


def replay(captured: CapturedTrace,
           params: "MachineParams") -> "CoreResult":
    """Tap-instrumented :func:`~repro.trace.replay.replay_trace`."""
    started = _tick()
    result = replay_trace(captured, params)
    TAPS.replays += 1
    TAPS.replay_seconds += _tick() - started
    TAPS.replay_uops += captured.window_uops()
    return result


def trace_keys_for_cells(cells: Sequence["Cell"]) -> list[TraceKey]:
    """The distinct trace keys a cell list will replay, in cell order.

    Only ``single`` and ``members`` cells are trace-driven; ``smt``,
    ``smt-members``, and ``chip`` cells interleave generation with core
    timing and stay live.  Member keys mirror the runner's group
    expansion (halved windows per member) so the keys match what
    ``run_workload_members`` asks for.
    """
    from repro.core.runner import _GROUP_MEMBERS

    keys: list[TraceKey] = []
    seen: set[str] = set()
    for cell in cells:
        if cell.kind == "single":
            cell_keys = [TraceKey.from_config(cell.name, cell.config)]
        elif cell.kind == "members":
            members = _GROUP_MEMBERS.get(cell.name)
            if members is None:
                cell_keys = [TraceKey.from_config(cell.name, cell.config)]
            else:
                member_config = replace(
                    cell.config,
                    window_uops=cell.config.window_uops // 2,
                    warm_uops=cell.config.warm_uops // 2,
                )
                cell_keys = [
                    TraceKey.from_config(cell.name, member_config,
                                         member=member)
                    for member in members
                ]
        else:
            cell_keys = []
        for key in cell_keys:
            fingerprint = key.fingerprint()
            if fingerprint not in seen:
                seen.add(fingerprint)
                keys.append(key)
    return keys


def materialize_cells(cells: Sequence["Cell"],
                      use_store: bool = True) -> int:
    """Capture every distinct trace a cell list needs, exactly once.

    Best-effort by design: a workload that cannot be captured (unknown
    name in a synthetic test cell, a wedged serve loop) is skipped
    here and fails later inside its own supervised cell, where the
    engine's retry/reporting machinery owns the failure.  Returns the
    number of keys materialized.
    """
    done = 0
    for key in trace_keys_for_cells(cells):
        try:
            materialize(key, use_store=use_store)
        except Exception:
            TAPS.capture_errors += 1
            continue  # the owning cell will surface the real error
        done += 1
    return done
