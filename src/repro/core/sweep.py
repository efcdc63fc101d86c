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

* :class:`SweepEngine` — the one loop every sweep runs through.  It
  consults a persistent :class:`~repro.core.store.ResultStore` and the
  resumable checkpoint journal first, then executes the remaining cells
  serially or across a supervised process pool (``jobs > 1``, per-cell
  futures with deadlines, retries, and crash isolation — see
  :mod:`repro.core.supervise`).  Every payload is decoded and validated
  before it is journaled, stored or returned, and results merge in
  *cell order* regardless of completion order, so a parallel sweep
  produces byte-identical tables to a serial one at the same seed.

The engine drives any cell that supplies ``fingerprint()``;
``execute(use_cache)``, the JSON-safe payload a worker ships and the
journal holds; ``decode(payload)`` and ``validate(results, context)``,
which turn a payload into checked results; and ``load(store, fp)`` and
``save(store, fp, results)``, its result-store entry.  :class:`Cell`,
:class:`~repro.cluster.sweep.ClusterCell` and
:class:`~repro.core.experiments.figure8_faults.FaultCell` do;
``kind:name`` labels a cell in failure messages.

The fingerprint functions deliberately import nothing from the runner:
``runner.py`` imports them at module load, while the cell methods reach
back into the runner lazily.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields, is_dataclass
from functools import partial
from typing import TYPE_CHECKING, Sequence

from repro.core.validate import ValidationError, validate_runs
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

    def execute(self, use_cache: bool = True) -> list[dict]:
        """One ``run_to_dict`` payload per run (1+ for groups): name,
        config and counters, never the live ``app``."""
        from repro.core import runner
        from repro.core.store import run_to_dict

        if self.kind in ("single", "smt"):
            measure = runner.run_workload if self.kind == "single" \
                else runner.run_workload_smt
            runs = [measure(self.name, self.config, use_cache)]
        elif self.kind in ("members", "smt-members"):
            runs = runner.run_workload_members(
                self.name, self.config, smt=self.kind == "smt-members",
                use_cache=use_cache)
        else:
            chip = runner.run_workload_chip(
                self.name, self.config, num_cores=self.num_cores,
                segments=self.segments, use_cache=use_cache)
            runs = [runner.WorkloadRun(self.name, chip.config, chip.summed,
                                       chip.app)]
        return [run_to_dict(run) for run in runs]

    def decode(self, payload: list) -> list["WorkloadRun"]:
        """The runs of an :meth:`execute` payload (``app`` is None)."""
        from repro.core.store import run_from_dict

        return [run_from_dict(entry) for entry in payload]

    def validate(self, runs: list["WorkloadRun"], context: str) -> None:
        validate_runs(runs, context=context)

    def load(self, store: "ResultStore",
             fingerprint: str) -> "list[WorkloadRun] | None":
        return store.get(fingerprint)

    def save(self, store: "ResultStore", fingerprint: str,
             runs: list["WorkloadRun"]) -> None:
        store.put(fingerprint, runs, validate=False)


def _cell_worker(task: tuple) -> list:
    """The default worker, in a pool process and serially alike:
    ``(cell, use_cache)`` in, the cell's JSON-safe payload out."""
    cell, use_cache = task
    return cell.execute(use_cache)


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
    ``worker``          ``(cell, use_cache)`` -> payload, called in pool
                        processes and serially alike; the default
                        executes cells — tests inject faulty ones.

    Parallel cells are individually supervised futures: a worker death
    (SIGKILL, OOM, segfault) or a cell overrunning ``retry.timeout``
    costs only the cells in flight, which are retried with backoff on a
    respawned pool; every completed cell is journaled and stored as it
    finishes, and cells whose retries are exhausted surface together as
    a :class:`~repro.core.supervise.SweepCellError` once the rest of
    the sweep is done.

    ``run`` returns each cell's decoded results (a ``list[WorkloadRun]``
    for a :class:`Cell`), *in cell order*; parallel completion order
    never leaks into results, so tables built from them are
    byte-identical to a serial sweep.
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

    def run(self, cells: Sequence) -> list[list]:
        from repro.core.supervise import (SweepCellError, SweepCheckpoint,
                                          SweepSupervisor, run_serial)
        from repro.trace.pipeline import TAPS, materialize_cells

        fingerprints = [cell.fingerprint() for cell in cells]
        checkpoint = None
        if self.checkpoint_dir is not None:
            checkpoint = SweepCheckpoint(self.checkpoint_dir, fingerprints,
                                         resume=self.resume)
        store = self.store if self.use_cache else None
        results: list[list | None] = [None] * len(cells)

        def admit(index: int, cell, fingerprint: str, payload: list,
                  journal: bool) -> None:
            # Gatekeeper for every payload, fresh or journaled: an
            # undecodable or implausible one raises ValidationError
            # here, which the supervisor treats as a cell failure
            # (retried, then reported) — it never reaches the store,
            # the journal, or a figure.
            context = f"cell {cell.kind}:{cell.name}"
            try:
                checked = cell.decode(payload)
            except (KeyError, TypeError, ValueError) as exc:
                raise ValidationError(
                    context, [f"undecodable payload: {exc}"]) from exc
            cell.validate(checked, context)
            if journal and checkpoint is not None:
                checkpoint.put(fingerprint, payload)
            if store is not None:
                cell.save(store, fingerprint, checked)
            results[index] = checked

        accept = partial(admit, journal=True)
        pending: list[tuple[int, object, str]] = []
        for index, (cell, fingerprint) in enumerate(zip(cells, fingerprints)):
            hit = cell.load(store, fingerprint) if store is not None else None
            if hit is not None:
                results[index] = hit
                continue
            journaled = None if checkpoint is None \
                else checkpoint.get(fingerprint)
            if journaled is not None:
                try:
                    admit(index, cell, fingerprint, journaled, journal=False)
                    continue
                except ValidationError:
                    pass  # torn or stale journal entry: recompute
            pending.append((index, cell, fingerprint))

        failures: list[dict] = []
        if pending:
            # Capture each distinct trace the pending cells replay, once,
            # before they fan out: serial cells hit the in-process memo,
            # pool workers the on-disk trace store.  Uncached pool
            # workers cannot see parent captures, so they capture for
            # themselves.  Fleet and Figure 8 cells replay no trace.
            if self.use_cache or self.jobs == 1:
                materialize_cells([cell for _, cell, _ in pending],
                                  use_store=self.use_cache)
            if self.jobs > 1 and len(pending) > 1:
                TAPS.worker_cells += len(pending)
                supervisor = SweepSupervisor(self.worker, self.jobs,
                                             self.retry,
                                             use_cache=self.use_cache)
                failures = supervisor.run(pending, accept)
            else:
                failures = run_serial(
                    pending, lambda cell: self.worker((cell, self.use_cache)),
                    self.retry, accept)
        if failures:
            raise SweepCellError(failures)
        if checkpoint is not None:
            checkpoint.complete()
        return results  # type: ignore[return-value]

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
