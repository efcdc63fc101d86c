"""Calibrate fleet service costs from the microarchitectural simulator.

This is the measured half of the paper's argument applied to our own
fleet figure: instead of pricing replica requests from hand-written
tables, capture one columnar trace per (workload, op class) through
the apps' :meth:`~repro.apps.base.ServerApp.cluster_op_stream`, replay
it through the :mod:`uarch.fastpath <repro.uarch.fastpath>` timing
loop, and convert cycles at a configurable blade frequency into a
:class:`~repro.cluster.costs.ServiceCostModel` of per-op latency
quantile tables.

The whole-window cycle total is attributed back to individual requests
proportionally to their captured micro-op counts (``request_uops`` in
the trace's provenance) — an approximation that deliberately ignores
per-request IPC variation, but one that preserves the genuine
*work-mix* variance of the serve paths (key-popularity walks, query
term counts, periodic GC slices), which is where the quantile spread
comes from.  Every step is deterministic, so one calibration key yields
one byte-identical model in any process, serial or ``--jobs N``.

Calibrated models persist in the :class:`~repro.core.store.ResultStore`
under a fingerprint that folds in the machine parameters (via their
canonical digest) and :data:`~repro.cluster.costs.COST_MODEL_SCHEMA` —
changing a uarch parameter or the calibration semantics invalidates
the cache, never aliases it.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

from repro.cluster.costs import (COST_MODEL_SCHEMA, OP_CLASSES, OpCost,
                                 QUANTILE_POINTS, ServiceCostModel)
from repro.uarch.params import MachineParams

__all__ = [
    "CalibrationConfig",
    "uarch_digest",
    "calibration_fingerprint",
    "calibrate",
    "static_model",
    "FLEET_WORKLOADS",
]

#: The workloads that can host a fleet replica (and therefore have a
#: cluster cost table at all).
FLEET_WORKLOADS = ("data-serving", "web-search")


@dataclass(frozen=True)
class CalibrationConfig:
    """Everything a measured cost model depends on — and nothing else.

    ``blade_freq_hz`` is the cycle-to-wall-clock conversion frequency;
    0 (the default) means "the simulated machine's own frequency"
    (``params.freq_hz``), the honest choice when the fleet is built
    from the same blades the uarch model describes.
    """

    workload: str
    params: MachineParams
    window_uops: int = 100_000
    warm_uops: int = 40_000
    seed: int = 7
    blade_freq_hz: float = 0.0

    def frequency_hz(self) -> float:
        return self.blade_freq_hz if self.blade_freq_hz > 0 \
            else self.params.freq_hz


def uarch_digest(params: MachineParams) -> str:
    """Canonical hex digest of one machine configuration.

    Embedded in every measured model (and therefore in every config
    fingerprint of a fleet cell using it), so a uarch parameter change
    invalidates cached measured-cost cells even when the resulting
    quantiles happen to coincide.
    """
    from repro.core.sweep import canonical

    text = json.dumps(canonical(params), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def calibration_fingerprint(config: CalibrationConfig) -> str:
    """The store key for one calibration; structural, like every other
    fingerprint in the harness (:func:`~repro.core.sweep.config_fingerprint`),
    with the cost-model and trace schemas folded in."""
    from repro.core.sweep import canonical
    from repro.trace.codec import TRACE_SCHEMA

    document = {
        "kind": "calibration",
        "cost_model": COST_MODEL_SCHEMA,
        "trace_schema": TRACE_SCHEMA,
        "config": canonical(config),
    }
    text = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _quantile(sorted_values: list[float], rank: float) -> int:
    """Nearest-rank quantile, rounded to a positive integer ns."""
    n = len(sorted_values)
    index = min(n - 1, max(0, math.ceil(rank * n) - 1))
    return max(1, int(round(sorted_values[index])))


def calibrate(config: CalibrationConfig, use_store: bool = True,
              store=None) -> ServiceCostModel:
    """Derive one workload's measured cost model from uarch replay.

    Capture (or fetch) one trace per op class, replay each through the
    timing simulator at ``config.params``, convert the cycle totals to
    nanoseconds at the blade frequency, attribute them to requests
    proportionally to per-request micro-op counts, and reduce to
    nearest-rank p25/p50/p75/p95 tables.  The finished model (with
    per-op provenance) is validated and persisted in the result store
    unless ``use_store`` is false.
    """
    # Imported at call time: the cluster package must stay importable
    # without loading the trace pipeline or the persistence layer.
    from repro.core.store import ResultStore
    from repro.core.validate import validate_cost_model
    from repro.trace import pipeline
    from repro.trace.capture import TraceKey

    if config.workload not in FLEET_WORKLOADS:
        raise KeyError(
            f"workload {config.workload!r} has no cluster backend; "
            f"known: {', '.join(FLEET_WORKLOADS)}")
    fingerprint = calibration_fingerprint(config)
    if use_store:
        if store is None:
            store = ResultStore()
        cached = store.get_calibration(fingerprint)
        if cached is not None:
            return ServiceCostModel.from_doc(cached)

    frequency_mhz = config.frequency_hz() / 1e6
    digest = uarch_digest(config.params)
    ops: list[tuple[str, OpCost]] = []
    provenance: dict[str, dict] = {}
    for op in OP_CLASSES:
        key = TraceKey(
            workload=config.workload,
            seed=config.seed,
            window_uops=config.window_uops,
            warm_uops=config.warm_uops,
            op_class=op,
        )
        captured = pipeline.materialize(key, use_store=use_store)
        result = pipeline.replay(captured, config.params)
        request_uops = [count for count in captured.meta["request_uops"]
                        if count > 0]
        total_uops = sum(request_uops)
        # cycles / MHz = µs; the tables are nanoseconds (one request's
        # CPU share is sub-µs, and integer-µs quantiles would collapse).
        window_ns = result.cycles * 1000.0 / frequency_mhz
        latencies = sorted(window_ns * count / total_uops
                           for count in request_uops)
        ops.append((op, OpCost(**{
            name: _quantile(latencies, rank)
            for name, rank in QUANTILE_POINTS
        })))
        provenance[op] = {
            "cycles": int(result.cycles),
            "uops": int(total_uops),
            "requests": len(request_uops),
        }
    model = ServiceCostModel(
        workload=config.workload,
        source="measured",
        ops=tuple(ops),
        uarch=digest,
        blade_mhz=frequency_mhz,
    )
    doc = model.to_doc()
    doc["provenance"] = provenance
    validate_cost_model(doc, context=f"calibration {config.workload!r}")
    if use_store:
        store.put_calibration(fingerprint, doc, validate=False)
    return model


def static_model(workload: str) -> ServiceCostModel:
    """The hand-written fallback table as a (labeled) cost model.

    This is the only place outside the app classes allowed to read
    ``CLUSTER_SERVICE_COSTS`` (the ``service-costs`` lint rule enforces
    it): the static tables survive solely as the explicit
    ``--costs=static`` escape hatch.
    """
    if workload == "data-serving":
        from repro.apps.kvstore import DataServingApp

        return ServiceCostModel.static(
            workload, DataServingApp.CLUSTER_SERVICE_COSTS)
    if workload == "web-search":
        from repro.apps.websearch import WebSearchApp

        return ServiceCostModel.static(
            workload, WebSearchApp.CLUSTER_SERVICE_COSTS)
    raise KeyError(
        f"workload {workload!r} has no cluster backend; "
        "known: data-serving, web-search")
