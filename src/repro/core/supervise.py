"""Supervised execution for the sweep engine: crash isolation, per-cell
deadlines, retries, and the resumable checkpoint journal.

:class:`~repro.core.sweep.SweepEngine` hands this module the cells its
store and journal could not serve.  At fleet scale the harness, not the
simulator, becomes the reliability bottleneck, so execution is
supervised:

* each cell is an **independently submitted future** with its own
  wall-clock deadline (``policy.timeout`` seconds; a pool cannot cancel
  a running worker, so an overdue cell's workers are killed and the
  pool respawned — innocent in-flight cells are re-queued uncharged);
* a failed or timed-out cell is **retried** on the shared
  :class:`~repro.faults.retry.RetryPolicy` backoff schedule, jittered
  deterministically per cell fingerprint;
* a dead worker (``BrokenProcessPool`` — SIGKILL, OOM, segfault)
  poisons only the cells in flight: the **pool is respawned** and those
  cells re-queued.  The pool cannot attribute the death to one cell, so
  every in-flight cell is charged an attempt — a crash-looping cell
  exhausts its retries instead of wedging the sweep forever;
* every completed cell is **journaled** to a :class:`SweepCheckpoint`
  (atomic writes via :mod:`repro.blobstore`; an unparsable journal is
  discarded), so a sweep interrupted by Ctrl-C, SIGKILL, or power loss
  resumes by rerunning only the cells absent from the journal.

Cells that exhaust their retries are reported together in a
:class:`SweepCellError` *after* the rest of the sweep completes —
finished work is persisted, never discarded.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import random
import time
from collections.abc import Callable, Sequence
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import TYPE_CHECKING

from repro.blobstore import atomic_write, json_bytes
from repro.core.validate import ValidationError
from repro.faults.retry import RetryPolicy

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.core.sweep import Cell

__all__ = [
    "SweepCellError",
    "SweepCheckpoint",
    "SweepSupervisor",
    "run_serial",
    "sweep_digest",
]

class SweepCellError(RuntimeError):
    """One or more cells failed permanently (retries exhausted).

    Raised *after* every other cell has completed and been persisted,
    so rerunning the sweep (``--resume``) only re-executes the failed
    cells.  ``failures`` holds one record per dead cell with the full
    attempt-by-attempt diagnostics.
    """

    def __init__(self, failures: list[dict]) -> None:
        self.failures = failures
        lines = []
        for failure in failures:
            cell = failure["cell"]
            causes = "; ".join(failure["errors"])
            lines.append(f"  {cell.kind}:{cell.name} "
                         f"(after {failure['attempts']} attempt(s)): {causes}")
        super().__init__(
            f"{len(failures)} sweep cell(s) failed permanently "
            f"(completed cells were persisted):\n" + "\n".join(lines))


def sweep_digest(fingerprints: Sequence[str]) -> str:
    """A stable identity for one sweep: the set of its cell prints."""
    text = ",".join(sorted(set(fingerprints)))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class SweepCheckpoint:
    """On-disk journal of completed cells for one sweep.

    One JSON document, ``{"version", "meta", "cells"}``, rewritten
    atomically after every cell, so a kill leaves the previous journal
    or the new one, never a torn one.  The meta holds the
    :func:`sweep_digest` of the cell fingerprints and the store schema,
    so a journal never replays into another sweep or build.  Each cell
    entry is ``{"runs": payload}``: what the cell's ``execute`` shipped.
    """

    FORMAT_VERSION = 1

    def __init__(self, directory: str | pathlib.Path,
                 fingerprints: Sequence[str], resume: bool = False) -> None:
        from repro.core.store import SCHEMA_VERSION

        digest = sweep_digest(fingerprints)
        self.path = pathlib.Path(directory) / f"sweep-{digest[:24]}.json"
        self.meta = {"sweep": digest, "store_schema": SCHEMA_VERSION}
        self.cells: dict[str, dict] = {}
        if resume:
            self.cells = self._load()
        else:
            self.complete()

    def _load(self) -> dict[str, dict]:
        try:
            raw = json.loads(self.path.read_bytes())
        except (OSError, ValueError):  # missing, torn, or not UTF-8
            return {}
        if not isinstance(raw, dict) or raw.get("meta") != self.meta \
                or raw.get("version") != self.FORMAT_VERSION \
                or not isinstance(raw.get("cells"), dict):
            return {}  # another build or another sweep: never mix it in
        return {str(k): v for k, v in raw["cells"].items()
                if isinstance(v, dict)}

    def __len__(self) -> int:
        return len(self.cells)

    def get(self, fingerprint: str) -> list | None:
        """The journaled payload for one cell, or None."""
        payload = self.cells.get(fingerprint, {}).get("runs")
        return payload if isinstance(payload, list) else None

    def put(self, fingerprint: str, payload: list) -> None:
        """Journal one completed cell atomically."""
        self.cells[fingerprint] = {"runs": payload}
        atomic_write(self.path, json_bytes({
            "version": self.FORMAT_VERSION,
            "meta": self.meta,
            "cells": self.cells,
        }))

    def complete(self) -> None:
        """Forget every cell and remove the file: the sweep finished
        whole, or a run without ``--resume`` starts over."""
        self.cells = {}
        self.path.unlink(missing_ok=True)


def _now() -> float:
    # repro-lint: sanitizer -- retry/deadline bookkeeping only; results never derive from it
    """Monotonic clock for supervisor scheduling decisions."""
    return time.monotonic()


def _task_rng(fingerprint: str) -> random.Random:
    # repro-lint: sanitizer -- seeded from the cell fingerprint, not the OS
    """Deterministic per-cell jitter source (no wall-clock, no PID)."""
    return random.Random(int(fingerprint[:16], 16))


class _Task:
    """Supervisor-side state of one pending cell."""

    __slots__ = ("index", "cell", "fingerprint", "attempts", "errors",
                 "not_before", "started", "schedule")

    def __init__(self, index: int, cell: "Cell", fingerprint: str,
                 policy: RetryPolicy) -> None:
        self.index = index
        self.cell = cell
        self.fingerprint = fingerprint
        self.attempts = 0
        self.errors: list[str] = []
        self.not_before = 0.0
        self.started = 0.0
        self.schedule = policy.schedule(_task_rng(fingerprint))

    def failure_record(self) -> dict:
        return {"cell": self.cell, "fingerprint": self.fingerprint,
                "attempts": self.attempts, "errors": list(self.errors)}


class SweepSupervisor:
    """Drives pending cells through a process pool, surviving workers.

    ``worker`` is the picklable pool entry point (by default the sweep
    module's ``_cell_worker``; tests inject misbehaving wrappers);
    ``on_complete(index, cell, fingerprint, payload)`` is invoked in
    the supervising process as each cell finishes, in *completion*
    order — a :class:`~repro.core.validate.ValidationError` it raises
    counts as a cell failure and triggers a retry, so a torn or
    miscomputed worker payload is recomputed rather than trusted.
    """

    def __init__(self, worker: Callable, jobs: int, policy: RetryPolicy,
                 use_cache: bool = True) -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.worker = worker
        self.jobs = jobs
        self.policy = policy
        self.use_cache = use_cache

    def run(self, pending: Sequence[tuple], on_complete: Callable) -> list[dict]:
        """Execute every pending cell; returns permanent-failure records."""
        waiting = [_Task(index, cell, fingerprint, self.policy)
                   for index, cell, fingerprint in pending]
        failed: list[_Task] = []
        in_flight: dict = {}
        workers = min(self.jobs, max(1, len(waiting)))
        pool: ProcessPoolExecutor | None = None
        try:
            while waiting or in_flight:
                if pool is None:
                    pool = ProcessPoolExecutor(max_workers=workers)
                if not self._submit_ready(pool, waiting, in_flight, workers):
                    # The pool broke while (or before) accepting work.
                    pool = self._respawn(pool, in_flight, waiting, failed)
                    continue
                if not in_flight:
                    # Everything is backing off: sleep to the earliest wakeup.
                    wake = min(task.not_before for task in waiting)
                    time.sleep(max(0.0, wake - _now()))
                    continue
                done, _ = wait(list(in_flight),
                               timeout=self._wait_budget(in_flight, waiting),
                               return_when=FIRST_COMPLETED)
                broken = False
                for future in done:
                    task = in_flight.pop(future)
                    try:
                        payload = future.result()
                    except BrokenProcessPool:
                        broken = True
                        self._fail(task, "worker process died mid-cell "
                                   "(killed, OOM, or crashed)",
                                   waiting, failed)
                    except Exception as exc:  # worker raised: retry the cell
                        self._fail(task, f"{type(exc).__name__}: {exc}",
                                   waiting, failed)
                    else:
                        try:
                            on_complete(task.index, task.cell,
                                        task.fingerprint, payload)
                        except ValidationError as exc:
                            self._fail(task, str(exc), waiting, failed)
                if broken:
                    pool = self._respawn(pool, in_flight, waiting, failed)
                    continue
                pool = self._enforce_deadlines(pool, in_flight, waiting,
                                               failed)
        finally:
            if pool is not None:
                pool.shutdown(wait=False, cancel_futures=True)
        return [task.failure_record() for task in failed]

    # ------------------------------------------------------------------
    def _submit_ready(self, pool, waiting, in_flight, workers) -> bool:
        """Submit due tasks up to capacity; False if the pool is broken."""
        now = _now()
        ready = [task for task in waiting if task.not_before <= now]
        for task in ready:
            if len(in_flight) >= workers:
                break
            waiting.remove(task)
            try:
                future = pool.submit(self.worker, (task.cell, self.use_cache))
            except BrokenProcessPool:
                task.not_before = 0.0
                waiting.append(task)
                return False
            task.started = _now()
            in_flight[future] = task
        return True

    def _wait_budget(self, in_flight, waiting) -> float | None:
        """How long ``wait`` may block before the loop must act again."""
        now = _now()
        budgets = []
        if self.policy.timeout is not None:
            budgets.extend(task.started + self.policy.timeout - now
                           for task in in_flight.values())
        if waiting:  # a backoff may expire while capacity is free
            budgets.extend(task.not_before - now for task in waiting)
        if not budgets:
            return None  # only completion (or a pool break) can wake us
        # A hair past the earliest event so deadlines are strictly overdue.
        return max(0.0, min(budgets)) + 0.01

    def _fail(self, task, reason: str, waiting, failed) -> None:
        task.errors.append(reason)
        task.attempts += 1
        if task.attempts > self.policy.max_retries:
            failed.append(task)
            return
        delay = task.schedule[task.attempts - 1] if task.schedule else 0.0
        task.not_before = _now() + delay
        waiting.append(task)

    def _respawn(self, pool, in_flight, waiting, failed):
        """The pool broke: charge every in-flight cell and start over.

        The executor cannot attribute a worker death to one cell, so
        each cell that was in flight is charged one attempt; innocents
        retry and complete, while a crash-looping cell runs out of
        retries instead of breaking pools forever.
        """
        for task in in_flight.values():
            self._fail(task, "in flight when the worker pool broke",
                       waiting, failed)
        in_flight.clear()
        self._kill(pool)
        return None

    def _enforce_deadlines(self, pool, in_flight, waiting, failed):
        """Kill the pool when a cell is overdue; re-queue the innocent."""
        deadline = self.policy.timeout
        if deadline is None or not in_flight:
            return pool
        now = _now()
        overdue = [task for task in in_flight.values()
                   if now - task.started > deadline]
        if not overdue:
            return pool
        for task in overdue:
            self._fail(task, f"cell exceeded its {deadline:g}s deadline",
                       waiting, failed)
        for task in in_flight.values():
            if task not in overdue:  # innocent: re-queued uncharged
                task.not_before = 0.0
                waiting.append(task)
        in_flight.clear()
        self._kill(pool)
        return None

    @staticmethod
    def _kill(pool) -> None:
        """Terminate the pool's workers; running cells cannot be
        cancelled politely (``shutdown`` would wait on the wedged one)."""
        processes = getattr(pool, "_processes", None) or {}
        for process in list(processes.values()):
            if process.is_alive():
                process.terminate()
        pool.shutdown(wait=False, cancel_futures=True)


def run_serial(pending: Sequence[tuple], execute: Callable,
               policy: RetryPolicy, on_complete: Callable) -> list[dict]:
    """The supervisor's single-process counterpart.

    Worker-crash isolation and deadlines need a process boundary, but
    retries-with-backoff and incremental checkpointing apply equally to
    serial sweeps; a transient failure (or an invalid result caught by
    ``on_complete``) is re-executed on the same policy schedule.
    """
    failed: list[dict] = []
    for index, cell, fingerprint in pending:
        task = _Task(index, cell, fingerprint, policy)
        while True:
            try:
                on_complete(index, cell, fingerprint, execute(cell))
                break
            except ValidationError as exc:
                reason = str(exc)
            except Exception as exc:
                reason = f"{type(exc).__name__}: {exc}"
            task.errors.append(reason)
            task.attempts += 1
            if task.attempts > policy.max_retries:
                failed.append(task.failure_record())
                break
            delay = task.schedule[task.attempts - 1] if task.schedule else 0.0
            time.sleep(delay)
    return failed
