"""Parallel, incrementally-cached sweep engine for the experiment harness.

Three pieces, layered so each is useful on its own:

* :func:`config_fingerprint` — a canonical, collision-free digest of a
  measurement configuration.  It is derived *structurally* from every
  field of the frozen ``RunConfig``/``MachineParams``/``FaultPlan``
  dataclasses (recursing through nested dataclasses and tuples), so a
  configuration dimension can never silently fall out of the cache key
  again: a field added tomorrow participates automatically.  The
  in-process LRU in :mod:`repro.core.runner` and the on-disk store in
  :mod:`repro.core.store` both key on it.

* :class:`Cell` — one declarative unit of sweep work: "measure workload
  *name* under *config* with runner *kind*".  The figure modules emit
  lists of cells instead of calling the runner in ad-hoc loops.

* :class:`SweepEngine` — executes a cell list, optionally fanning the
  cells across a supervised process pool (``jobs > 1``, per-cell
  futures with deadlines, retries, and crash isolation — see
  :mod:`repro.core.supervise`) and consulting a persistent
  :class:`~repro.core.store.ResultStore` first.  Fresh results are
  validated against physical invariants, journaled to a resumable
  checkpoint, and merged in *cell order* regardless of completion
  order, so a parallel sweep produces byte-identical tables to a
  serial one at the same seed.

The fingerprint functions deliberately import nothing from the runner:
``runner.py`` imports them at module load, while this module reaches
back into the runner lazily inside the execution helpers.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields, is_dataclass
from typing import TYPE_CHECKING, Sequence

from repro.trace.codec import TRACE_SCHEMA

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.core.runner import RunConfig, WorkloadRun
    from repro.core.store import ResultStore
    from repro.faults.retry import RetryPolicy

__all__ = [
    "FINGERPRINT_SCHEMA",
    "COST_MODEL_SCHEMA",
    "canonical",
    "config_fingerprint",
    "Cell",
    "SweepEngine",
]

#: Bump when the *meaning* of a configuration field changes (not when
#: fields are added — those change the fingerprint structurally).
FINGERPRINT_SCHEMA = 1

#: Version of the service-cost-model semantics (how per-op quantile
#: tables are derived from uarch replay and how backends sample them).
#: Folded into every fingerprint: a change to the calibration algorithm
#: must invalidate cached fleet cells even when the configuration
#: dataclasses are structurally unchanged.  Lives here (not in
#: ``repro.cluster``) because the fingerprint side must stay importable
#: without touching the fleet package.
COST_MODEL_SCHEMA = 1


def canonical(value: object) -> object:
    """The canonical JSON-able form of a configuration value.

    Dataclasses map to ``{"__type__": ..., field: canonical(value)}``
    over *every* declared field, tuples/lists to lists, scalars to
    themselves.  Anything else is a hard error — an unfingerprintable
    configuration must fail loudly, not alias silently.
    """
    if is_dataclass(value) and not isinstance(value, type):
        doc: dict[str, object] = {"__type__": type(value).__name__}
        for f in fields(value):
            doc[f.name] = canonical(getattr(value, f.name))
        return doc
    if isinstance(value, (list, tuple)):
        return [canonical(item) for item in value]
    if isinstance(value, dict):
        return {str(k): canonical(v) for k, v in sorted(value.items())}
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise TypeError(
        f"cannot fingerprint configuration value of type "
        f"{type(value).__name__!r}: {value!r}"
    )


def config_fingerprint(kind: str, name: str, config: "RunConfig") -> str:
    """A collision-free hex digest identifying one measurement.

    Unlike the historical hand-picked cache key, this covers *all*
    fields of the configuration (memory latency, channel count, peak
    bandwidth, MSHRs, load/store buffers, fetch queue, branch penalty,
    TLB geometry, ...), so sweeps over any machine dimension get
    distinct cache entries.
    """
    document = {
        "schema": FINGERPRINT_SCHEMA,
        # Results are computed from captured traces, so the codec
        # schema is measurement provenance: folding it in means a
        # codec change invalidates every cached result (in-process LRU
        # and on-disk store) instead of silently serving counters
        # derived from an incompatible encoding.
        "trace_schema": TRACE_SCHEMA,
        # Fleet cells embed a ServiceCostModel in their configuration;
        # the model's *derivation* (capture -> replay -> quantile table
        # -> sampled draw) is provenance of its own, so its schema is
        # folded into every fingerprint alongside the trace codec's.
        "cost_model": COST_MODEL_SCHEMA,
        "kind": kind,
        "name": name,
        "config": canonical(config),
    }
    text = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


#: Runner dispatch kinds a cell may name.
CELL_KINDS = ("single", "smt", "members", "smt-members", "chip")


@dataclass(frozen=True)
class Cell:
    """One declarative unit of sweep work.

    ``kind`` selects the runner entry point; ``num_cores``/``segments``
    only apply to ``chip`` cells (they mirror ``run_workload_chip``).
    A chip cell's result is the chip's *summed* per-core counters
    wrapped as a ``WorkloadRun`` — the form every figure consumes.
    """

    kind: str
    name: str
    config: "RunConfig"
    num_cores: int = 4
    segments: int = 8

    def __post_init__(self) -> None:
        if self.kind not in CELL_KINDS:
            raise ValueError(f"unknown cell kind {self.kind!r}; "
                             f"known: {', '.join(CELL_KINDS)}")

    def fingerprint(self) -> str:
        kind = self.kind
        if kind == "chip":
            kind = f"chip{self.num_cores}x{self.segments}"
        return config_fingerprint(kind, self.name, self.config)


def _execute_cell(cell: Cell, use_cache: bool = True) -> list["WorkloadRun"]:
    """Run one cell in-process and return its runs (1+ for groups)."""
    from repro.core import runner

    if cell.kind == "single":
        return [runner.run_workload(cell.name, cell.config, use_cache)]
    if cell.kind == "smt":
        return [runner.run_workload_smt(cell.name, cell.config, use_cache)]
    if cell.kind == "members":
        return runner.run_workload_members(cell.name, cell.config,
                                           use_cache=use_cache)
    if cell.kind == "smt-members":
        return runner.run_workload_members(cell.name, cell.config, smt=True,
                                           use_cache=use_cache)
    chip_run = runner.run_workload_chip(
        cell.name, cell.config, num_cores=cell.num_cores,
        segments=cell.segments, use_cache=use_cache,
    )
    return [runner.WorkloadRun(cell.name, chip_run.config,
                               chip_run.summed, chip_run.app)]


def _cell_worker(task: tuple[Cell, bool]) -> list[dict]:
    """Pool worker: execute a cell, return JSON-safe run payloads.

    ``WorkloadRun.app`` holds live simulator state (generators, open
    traces) that must not cross a process boundary; the payload carries
    only what the figures consume — name, config, and counters.
    """
    from repro.core.store import run_to_dict

    cell, use_cache = task
    return [run_to_dict(run) for run in _execute_cell(cell, use_cache)]


class SweepEngine:
    """Executes cell lists under supervision, with persistence.

    ``jobs``            worker processes (1 = serial, in this process).
    ``use_cache``       consult/populate the runner's in-process LRU and
                        the on-disk store (``False`` forces fresh runs).
    ``store``           a :class:`~repro.core.store.ResultStore`, or
                        None to skip disk persistence entirely.
    ``retry``           the :class:`~repro.faults.retry.RetryPolicy`
                        governing per-cell deadlines and retries (see
                        ``RetryPolicy.for_harness``; delays/timeouts in
                        wall-clock seconds).
    ``checkpoint_dir``  directory for crash-safe sweep journals, or
                        None to skip journaling.
    ``resume``          trust an existing journal for this cell set and
                        rerun only the cells it is missing (otherwise a
                        stale journal is discarded).
    ``worker``          the picklable pool entry point; the default
                        executes cells for real — tests substitute
                        fault-injecting wrappers.

    Parallel cells are individually supervised futures: a worker death
    (SIGKILL, OOM, segfault) or a cell overrunning ``retry.timeout``
    costs only the cells in flight, which are retried with backoff on a
    respawned pool; every completed cell is journaled and stored as it
    finishes, and cells whose retries are exhausted surface together as
    a :class:`~repro.core.supervise.SweepCellError` once the rest of
    the sweep is done.

    ``run`` returns one ``list[WorkloadRun]`` per cell, *in cell
    order*; parallel completion order never leaks into results, so
    tables built from them are byte-identical to a serial sweep.
    """

    def __init__(self, jobs: int = 1, use_cache: bool = True,
                 store: "ResultStore | None" = None,
                 retry: "RetryPolicy | None" = None,
                 checkpoint_dir: "str | None" = None,
                 resume: bool = False,
                 worker=None) -> None:
        from repro.faults.retry import RetryPolicy

        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.jobs = jobs
        self.use_cache = use_cache
        self.store = store
        self.retry = retry if retry is not None else RetryPolicy.for_harness()
        self.checkpoint_dir = checkpoint_dir
        self.resume = resume
        self.worker = worker if worker is not None else _cell_worker

    def run(self, cells: Sequence[Cell]) -> list[list["WorkloadRun"]]:
        from repro.core.store import run_to_dict
        from repro.core.supervise import (SweepCellError, SweepCheckpoint,
                                          SweepSupervisor, run_serial)
        from repro.core.validate import validate_runs

        fingerprints = [cell.fingerprint() for cell in cells]
        checkpoint = None
        if self.checkpoint_dir is not None:
            checkpoint = SweepCheckpoint(self.checkpoint_dir, fingerprints,
                                         resume=self.resume)
        results: list[list["WorkloadRun"] | None] = [None] * len(cells)
        pending: list[tuple[int, Cell, str]] = []
        for index, (cell, fingerprint) in enumerate(zip(cells, fingerprints)):
            hit = None
            if self.store is not None and self.use_cache:
                hit = self.store.get(fingerprint)
            if hit is None and checkpoint is not None:
                hit = self._from_checkpoint(checkpoint, cell, fingerprint)
            if hit is not None:
                results[index] = hit
            else:
                pending.append((index, cell, fingerprint))

        def accept(index: int, cell: Cell, fingerprint: str,
                   runs: list["WorkloadRun"]) -> None:
            # Gatekeeper for every fresh result: an implausible run
            # raises ValidationError here, which the supervisor treats
            # as a cell failure (retried, then reported) — it never
            # reaches the store, the journal, or a figure.
            validate_runs(runs, context=f"cell {cell.kind}:{cell.name}")
            if checkpoint is not None:
                checkpoint.put(fingerprint, [run_to_dict(r) for r in runs])
            if self.store is not None and self.use_cache:
                self.store.put(fingerprint, runs, validate=False)
            results[index] = runs

        failures: list[dict] = []
        if pending:
            self._materialize_traces([cell for _, cell, _ in pending])
            if self.jobs > 1 and len(pending) > 1:
                supervisor = SweepSupervisor(self.worker, self.jobs,
                                             self.retry,
                                             use_cache=self.use_cache)
                failures = supervisor.run(pending, self._payload_acceptor(accept))
            else:
                failures = run_serial(
                    pending, lambda cell: _execute_cell(cell, self.use_cache),
                    self.retry, accept)
        if failures:
            raise SweepCellError(failures)
        if checkpoint is not None:
            checkpoint.complete()
        return results  # type: ignore[return-value]

    def _materialize_traces(self, cells: Sequence[Cell]) -> None:
        """Capture each distinct trace the pending cells replay, once.

        Runs in the parent before cells fan out, so a sweep performs
        O(traces) captures instead of O(cells): serial cells hit the
        in-process memo, pool workers hit the on-disk trace store.
        With ``use_cache`` off the store is skipped in both directions,
        so parallel uncached workers capture for themselves — only the
        parent-side memo sharing is lost.
        """
        from repro.trace.pipeline import materialize_cells

        if self.jobs > 1 and not self.use_cache:
            return  # nothing can carry parent captures to the workers
        materialize_cells(cells, use_store=self.use_cache)

    @staticmethod
    def _payload_acceptor(accept):
        """Wrap ``accept`` to decode pool-worker payloads first; an
        undecodable payload counts as a validation failure (retried)."""
        from repro.core.store import run_from_dict
        from repro.core.validate import ValidationError

        def on_payload(index, cell, fingerprint, payload):
            try:
                runs = [run_from_dict(entry) for entry in payload]
            except (KeyError, TypeError, ValueError) as exc:
                raise ValidationError(
                    f"cell {cell.kind}:{cell.name}",
                    [f"undecodable worker payload: {exc}"]) from exc
            accept(index, cell, fingerprint, runs)
        return on_payload

    def _from_checkpoint(self, checkpoint, cell: Cell,
                         fingerprint: str) -> "list[WorkloadRun] | None":
        """A journaled cell's runs, re-validated; None reruns the cell."""
        from repro.core.store import run_from_dict
        from repro.core.validate import ValidationError, validate_runs

        payload = checkpoint.get(fingerprint)
        if payload is None:
            return None
        try:
            runs = [run_from_dict(entry) for entry in payload]
            validate_runs(runs, context=f"checkpoint {cell.kind}:{cell.name}")
        except (KeyError, TypeError, ValueError, ValidationError):
            return None  # torn or stale journal entry: recompute
        if self.store is not None and self.use_cache:
            self.store.put(fingerprint, runs, validate=False)
        return runs

    def run_flat(self, cells: Sequence[Cell]) -> list["WorkloadRun"]:
        """Like :meth:`run` for single-run cells: one run per cell."""
        flattened: list["WorkloadRun"] = []
        for cell, runs in zip(cells, self.run(cells)):
            if not runs:
                raise ValueError(
                    f"cell {cell.kind}:{cell.name} produced no runs; "
                    "run_flat needs exactly one run per cell (did a "
                    "workload group lose all its members?)")
            flattened.append(runs[0])
        return flattened
