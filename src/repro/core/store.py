"""Persistent on-disk result store: one JSON document per fingerprint.

Measurements are deterministic given their configuration, so a result
keyed by :func:`~repro.core.sweep.config_fingerprint` never goes stale
— repeated figure regeneration can skip every cell it has already run,
across process invocations.  Layout::

    ~/.cache/repro/results-v<SCHEMA>/<fingerprint>.json

:class:`ResultStore` is one kind of :class:`~repro.blobstore.BlobStore`,
which owns the root (``REPRO_CACHE_DIR`` override, XDG fallback), the
atomic writes, the ``corrupt/`` quarantine, the doctor scan and the
stats.  This module owns only the document codec.  The schema version
sits in the directory name *and* in every document, so a result
written by an incompatible build is a miss, never a wrong answer.

Documents are intentionally minimal: the run's name, its full
configuration (round-tripped through the same dataclasses), and the
``CoreResult`` counters.  Live app state never touches disk; a run
restored from the store has ``app=None``, which is all the figure
modules need.  The same directory holds fleet summaries (``cluster``)
and service-cost models (``calibration``).

A document that fails to parse, carries the wrong fingerprint
(renamed/copied file), or violates the physical invariants in
:mod:`repro.core.validate` is a :class:`~repro.blobstore.Defect`, and
the blob store quarantines it rather than recomputing over it.
"""

from __future__ import annotations

import dataclasses
import json

from repro.blobstore import (BlobStore, Defect, atomic_write,
                             default_cache_dir, json_bytes)
from repro.core.runner import RunConfig, WorkloadRun
from repro.core.validate import (check_cluster_summary, check_cost_model,
                                 check_result, validate_cluster_summaries,
                                 validate_cost_model, validate_runs)
from repro.faults.plan import FaultEvent, FaultPlan
from repro.uarch.core import CoreResult
from repro.uarch.params import CacheParams, MachineParams, PrefetcherParams

__all__ = [
    "SCHEMA_VERSION",
    "ResultStore",
    "default_cache_dir",
    "run_to_dict",
    "run_from_dict",
]

#: Bump whenever the stored document shape or the semantics of the
#: counters change; old directories are simply ignored (and reported
#: as stale by ``python -m repro cache``).
SCHEMA_VERSION = 1

#: The validation gate :meth:`ResultStore.put` and friends apply per
#: payload kind before a document is written.
_VALIDATORS = {
    "runs": validate_runs,
    "cluster": validate_cluster_summaries,
    "calibration": validate_cost_model,
}


def _config_to_dict(config: RunConfig) -> dict:
    return dataclasses.asdict(config)


def _config_from_dict(data: dict) -> RunConfig:
    params_data = dict(data["params"])
    for cache_field in ("l1i", "l1d", "l2", "llc"):
        params_data[cache_field] = CacheParams(**params_data[cache_field])
    params_data["prefetch"] = PrefetcherParams(**params_data["prefetch"])
    params = MachineParams(**params_data)
    plan_data = data.get("fault_plan")
    plan = None
    if plan_data is not None:
        plan = FaultPlan(
            events=tuple(FaultEvent(**event) for event in plan_data["events"]),
            seed=plan_data["seed"],
        )
    return RunConfig(
        params=params,
        window_uops=data["window_uops"],
        warm_uops=data["warm_uops"],
        seed=data["seed"],
        fault_plan=plan,
    )


def run_to_dict(run: WorkloadRun) -> dict:
    """A JSON-safe payload for one run (also the pool-worker wire form)."""
    return {
        "name": run.name,
        "config": _config_to_dict(run.config),
        "result": dataclasses.asdict(run.result),
    }


def run_from_dict(data: dict) -> WorkloadRun:
    """Rebuild a run from :func:`run_to_dict` output (``app`` is None)."""
    return WorkloadRun(
        name=data["name"],
        config=_config_from_dict(data["config"]),
        result=CoreResult(**data["result"]),
        app=None,
    )


class ResultStore(BlobStore):
    """A directory of fingerprint-keyed result documents."""

    name = "results"
    schema = SCHEMA_VERSION
    suffix = ".json"

    def decode(self, data: bytes, fingerprint: str) -> dict:
        """``{"runs": [WorkloadRun, ...]}`` for microarchitectural
        results, ``{"cluster": [summary, ...]}`` for fleet results or
        ``{"calibration": model}`` for a service-cost model; raises
        :class:`~repro.blobstore.Defect` on a defective document."""
        try:
            raw = json.loads(data)
        except ValueError as exc:  # malformed JSON or non-UTF-8 bytes
            raise Defect(f"not valid JSON ({exc})") from exc
        if not isinstance(raw, dict):
            raise Defect("document is not a JSON object")
        if raw.get("schema") != SCHEMA_VERSION:
            raise Defect(f"schema {raw.get('schema')!r} inside the "
                         f"v{SCHEMA_VERSION} directory")
        if raw.get("fingerprint") != fingerprint:
            raise Defect(f"fingerprint field {raw.get('fingerprint')!r} "
                         "does not match the filename (renamed or copied "
                         "document)")
        if "calibration" in raw:
            payload = {"calibration": raw["calibration"]}
            violations = check_cost_model(raw["calibration"])
        elif "cluster" in raw:
            summaries = raw["cluster"]
            if not isinstance(summaries, list):
                raise Defect("cluster payload is not a list of summaries")
            payload = {"cluster": summaries}
            violations = [
                f"summary {index}: {violation}"
                for index, summary in enumerate(summaries)
                for violation in check_cluster_summary(summary)
            ]
        else:
            try:
                runs = [run_from_dict(entry) for entry in raw["runs"]]
            except (KeyError, TypeError, ValueError) as exc:
                raise Defect(f"undecodable runs "
                             f"({type(exc).__name__}: {exc})") from exc
            payload = {"runs": runs}
            violations = [
                f"run {run.name!r}: {violation}"
                for run in runs
                for violation in check_result(run.result, run.config.params)
            ]
        if violations:
            raise Defect("; ".join(violations))
        return payload

    def get(self, fingerprint: str) -> list[WorkloadRun] | None:
        """The stored runs for ``fingerprint``, or None on a miss.

        A *defective* document (torn, renamed, or physically
        implausible) is also a miss, but it is quarantined into
        ``corrupt/`` first so the evidence survives recomputation.  A
        healthy *cluster* document under this fingerprint is a miss
        too (fingerprints embed the cell kind, so this only happens if
        a caller mixes keys).
        """
        return self._get(fingerprint, "runs")

    def get_cluster(self, fingerprint: str) -> list[dict] | None:
        """The stored fleet summaries for ``fingerprint``, or None.

        Defective documents quarantine exactly as in :meth:`get`.
        """
        return self._get(fingerprint, "cluster")

    def get_calibration(self, fingerprint: str) -> dict | None:
        """The stored service-cost-model document, or None.

        Defective documents quarantine exactly as in :meth:`get`.
        """
        return self._get(fingerprint, "calibration")

    def put(self, fingerprint: str, runs: list[WorkloadRun],
            validate: bool = True) -> None:
        """Persist ``runs`` under ``fingerprint`` atomically.

        By default the runs are validated first — a miscomputed result
        raises :class:`~repro.core.validate.ValidationError` instead of
        poisoning the store.  Callers that already validated (the sweep
        engine) pass ``validate=False``.
        """
        self._put(fingerprint, "runs", runs, validate)

    def put_cluster(self, fingerprint: str, summaries: list[dict],
                    validate: bool = True) -> None:
        """Persist fleet-cell ``summaries`` under ``fingerprint``."""
        self._put(fingerprint, "cluster", summaries, validate)

    def put_calibration(self, fingerprint: str, model: dict,
                        validate: bool = True) -> None:
        """Persist one service-cost-model document under ``fingerprint``."""
        self._put(fingerprint, "calibration", model, validate)

    def _get(self, fingerprint: str, kind: str):
        payload = self._load(fingerprint)
        return None if payload is None else payload.get(kind)

    def _put(self, fingerprint: str, kind: str, payload,
             validate: bool) -> None:
        if validate:
            _VALIDATORS[kind](payload,
                              context=f"store put {fingerprint[:12]}")
        if kind == "runs":
            payload = [run_to_dict(run) for run in payload]
        atomic_write(self.path_for(fingerprint), json_bytes({
            "schema": SCHEMA_VERSION,
            "fingerprint": fingerprint,
            kind: payload,
        }))
