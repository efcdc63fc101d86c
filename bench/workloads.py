"""The benchmark's four workloads.

Each workload is one *pass*: a fixed piece of ``repro`` work, run
serially in one fresh process against an empty cache directory, whose
output is hashed.  ``prepare(seed)`` does the set-up (imports, configs,
engines) and returns the timed callable; the seed reaches the program
only through ``RunConfig.seed``.

A pass is sized at a few seconds, so one benchmark run fits several
passes and reports their median.  The full figure grids do not fit: the
cost of a figure pass is dominated by per-workload fixed work (app
construction, a functional LLC fill per replay) rather than by the
window, so each workload keeps its figure's *shape* over a subset of
the registry.  Why each workload exists, and which layers it should and
should not move, is in ``bench/README.md``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Callable

#: Figure 4 shape: capture each workload once, replay it at every size.
LLC_WORKLOADS = ("data-serving", "media-streaming", "specweb09",
                 "specint-mcf")
LLC_SIZES_MB = (None, 4, 6, 8)  # None is the 12 MB baseline
LLC_WINDOW = 16_000

#: Figure 3 shape (baseline + SMT cell per workload) plus one Figure 6
#: four-core chip cell: every live-generation path of the runner.
SMT_WORKLOADS = ("data-serving", "web-frontend", "media-streaming")
SMT_CHIP_WORKLOAD = "data-serving"
SMT_WINDOW = 16_000

#: Figure 9 with measured costs: calibrate, then the fleet grid.
FLEET_WORKLOAD = "data-serving"
FLEET_CALIBRATION_WINDOW = 4_000
FLEET_WINDOW = 120_000  # 2,400 open-loop requests per cell
FLEET_SIZES = [2, 4]

#: The claim report over the figures that share runner-LRU entries.
VERIFY_FIGURES = ["figure1", "figure2", "figure7"]
VERIFY_WINDOW = 4_000


@dataclass(frozen=True)
class Workload:
    """One named pass: ``prepare(seed)`` returns the timed callable,
    which returns the pass's output text; ``spans`` must each fire at
    least once in a traced pass."""

    name: str
    prepare: Callable[[int], Callable[[], str]]
    spans: tuple[str, ...]


def _config(window: int, seed: int):
    from repro.core.runner import RunConfig

    return RunConfig(window_uops=window, warm_uops=window // 3, seed=seed)


def _runs_output(runs) -> str:
    """Every counter of every run, canonically serialized."""
    from repro.core.store import run_to_dict

    return json.dumps([run_to_dict(run) for run in runs], sort_keys=True)


def _sweep_engine():
    """A figure engine as ``python -m repro <figure>`` builds it: result
    store and checkpoint journal under ``REPRO_CACHE_DIR``, serial."""
    from repro.core.store import ResultStore, default_cache_dir
    from repro.core.sweep import SweepEngine

    return SweepEngine(store=ResultStore(),
                       checkpoint_dir=default_cache_dir() / "checkpoints")


def _llc_sweep(seed: int) -> Callable[[], str]:
    from repro.core.sweep import Cell

    config = _config(LLC_WINDOW, seed)
    cells = [
        Cell("single", name, config if size is None else
             replace(config, params=config.params.with_llc_mb(size)))
        for size in LLC_SIZES_MB
        for name in LLC_WORKLOADS
    ]
    engine = _sweep_engine()
    return lambda: _runs_output(engine.run_flat(cells))


def _smt_sweep(seed: int) -> Callable[[], str]:
    from repro.core.sweep import Cell

    config = _config(SMT_WINDOW, seed)
    cells = [cell for name in SMT_WORKLOADS
             for cell in (Cell("members", name, config),
                          Cell("smt-members", name, config))]
    cells.append(Cell("chip", SMT_CHIP_WORKLOAD, config))
    engine = _sweep_engine()
    return lambda: _runs_output(
        [run for runs in engine.run(cells) for run in runs])


def _fleet_measured(seed: int) -> Callable[[], str]:
    from repro.cluster.sweep import ClusterSweepEngine
    from repro.core.experiments import figure9_cluster
    from repro.core.store import ResultStore, default_cache_dir

    calibration = _config(FLEET_CALIBRATION_WINDOW, seed)
    fleet = _config(FLEET_WINDOW, seed)
    engine = ClusterSweepEngine(
        store=ResultStore(),
        checkpoint_dir=default_cache_dir() / "checkpoints")

    def run() -> str:
        model = figure9_cluster.calibrate_for(calibration, FLEET_WORKLOAD,
                                              engine=engine)
        cells = figure9_cluster.build_cells(
            fleet, workload=FLEET_WORKLOAD, fleets=FLEET_SIZES,
            costs="measured", cost_model=model)
        summaries = engine.run(cells)
        return json.dumps({"model": model.to_doc(), "cells": summaries},
                          sort_keys=True)
    return run


def _verify(seed: int) -> Callable[[], str]:
    from repro.core.paper import verify

    config = _config(VERIFY_WINDOW, seed)
    return lambda: verify(config, figures=VERIFY_FIGURES).to_text()


_REPLAY_SPANS = ("apps.build", "trace.capture", "trace.columns",
                 "trace.store_get", "trace.store_put", "uarch.fill",
                 "uarch.warm", "uarch.columnar", "core.sweep")

WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload("llc-sweep", _llc_sweep,
             _REPLAY_SPANS + ("core.runner", "core.result_store_get",
                              "core.result_store_put")),
    Workload("smt-sweep", _smt_sweep,
             _REPLAY_SPANS + ("core.runner", "core.result_store_get",
                              "core.result_store_put", "trace.live_warm",
                              "uarch.general", "uarch.chip")),
    Workload("fleet-measured", _fleet_measured,
             _REPLAY_SPANS + ("core.result_store_get",
                              "core.result_store_put", "cluster.calibrate",
                              "cluster.simulate")),
    Workload("verify", _verify, _REPLAY_SPANS + ("core.runner",)),
)}
