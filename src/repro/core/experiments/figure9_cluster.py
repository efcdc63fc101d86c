"""Figure 9 (extension): fleet tail latency under faults.

The paper characterizes one scale-out blade in isolation; production
deploys those blades as replicated, load-balanced fleets whose
*service-level* behaviour — tail latency under skew and faults, goodput
through crashes, durability of acknowledged writes — is what the
scale-out architecture actually promises.  This experiment sweeps the
simulated fleet (:mod:`repro.cluster`) over fleet size × key skew ×
fault scenario and reports, per cell:

* coordinated-omission-safe p50/p99/p999 against *intended* open-loop
  arrival times;
* resilience counters: retries, hedged requests, ejections and
  readmissions, hinted handoffs, read repairs;
* the durability audit — acknowledged writes a quorum confirmed that
  no replica (nor hint log) can produce anymore (must be zero with
  R >= 2);
* load concentration — the hottest node's share of total busy time
  (skew makes this climb; replication and the balancer push back).

Each cell is a :class:`~repro.cluster.sweep.ClusterCell` on the same
:class:`~repro.core.sweep.SweepEngine` the microarchitectural figures
use: crash-isolated parallel workers, per-cell deadlines/retries,
resumable checkpoints, validation gating every summary, and cell-order
merging so ``--jobs N`` is byte-identical to a serial run at the same
seed.
"""

from __future__ import annotations

from repro.cluster.backend import build_backend
from repro.cluster.faults import ClusterFaultEvent, ClusterFaultPlan
from repro.cluster.service import ClusterConfig
from repro.cluster.sweep import ClusterCell
from repro.core.report import ExperimentTable
from repro.core.runner import RunConfig
from repro.core.sweep import SweepEngine

#: Fleet sizes swept by default (replication fixed at 2).
DEFAULT_FLEETS = [2, 4, 8]

#: Key-popularity shapes: uniform vs. the YCSB Zipfian constant.
SKEWS = [("uniform", 0.0), ("zipf", 0.99)]

#: Fault scenarios, in column order.
FAULTS = ["none", "node-crash", "slow-node", "partition"]

#: Open-loop mean inter-arrival gap (simulated microseconds).
MEAN_GAP_US = 150

_COLUMNS = [
    "Cell",
    "Fleet",
    "Skew",
    "Fault",
    "Goodput",
    "p50 (us)",
    "p99 (us)",
    "p999 (us)",
    "Retries",
    "Hedges",
    "Eject",
    "Hints",
    "Repairs",
    "Lost",
    "Hot share",
]


def cluster_requests(config: RunConfig) -> int:
    """How many open-loop requests one fleet cell plays.

    Scaled from the measurement window like every other figure, floored
    so percentile ranks stay meaningful on tiny test windows.
    """
    return max(300, config.window_uops // 50)


def _fault_plan(fault: str, requests: int) -> ClusterFaultPlan:
    """The named scenario, timed to land mid-run at any request count.

    The fault window opens a quarter of the way into the load and heals
    before the load ends, so ejection, failover, hinted handoff *and*
    readmission/hint replay all happen while requests still flow.
    """
    load_us = requests * MEAN_GAP_US
    at_us = max(1, load_us // 4)
    duration_us = max(1, load_us // 3)
    if fault == "none":
        return ClusterFaultPlan.none()
    if fault == "node-crash":
        return ClusterFaultPlan.node_crash(at_us=at_us,
                                           duration_us=duration_us)
    if fault == "slow-node":
        return ClusterFaultPlan.slow_node(at_us=at_us,
                                          duration_us=duration_us)
    if fault == "partition":
        return ClusterFaultPlan(name="partition", events=(
            ClusterFaultEvent("partition", target=0, at_us=at_us,
                              duration_us=max(1, load_us // 4)),))
    raise KeyError(f"unknown fault scenario {fault!r}; "
                   f"known: {', '.join(FAULTS)}")


def build_cells(config: RunConfig, workload: str = "data-serving",
                fleets: list[int] | None = None,
                replication: int = 2,
                costs: str = "static",
                cost_model=None) -> list[ClusterCell]:
    """The figure's cell grid: fleet size × key skew × fault plan.

    Under ``costs="measured"`` every cell embeds the calibrated
    ``cost_model`` in its configuration, so the cell fingerprint folds
    in the model's quantiles *and* its uarch digest — changing a
    machine parameter invalidates every cached measured-cost cell.
    """
    build_backend(workload)  # unknown workload: fail here, not per cell
    requests = cluster_requests(config)
    cells = []
    for fleet in (fleets or DEFAULT_FLEETS):
        for skew, theta in SKEWS:
            for fault in FAULTS:
                cluster = ClusterConfig(
                    workload=workload,
                    fleet=fleet,
                    replication=min(replication, fleet),
                    requests=requests,
                    mean_gap_us=MEAN_GAP_US,
                    theta=theta,
                    seed=config.seed,
                    fault_plan=_fault_plan(fault, requests),
                    costs=costs,
                    cost_model=cost_model,
                )
                cells.append(ClusterCell(
                    name=f"{workload}-f{fleet}-{skew}-{fault}",
                    config=cluster))
    return cells


def calibrate_for(config: RunConfig, workload: str, engine=None):
    """The measured cost model for one figure run's configuration.

    Calibrated once, in the coordinating process, then embedded in
    every cell's configuration — workers never recalibrate, which is
    what keeps serial, ``--jobs N``, and ``--resume`` runs
    byte-identical.
    """
    from repro.cluster.calibrate import CalibrationConfig, calibrate

    use_store = engine.use_cache if engine is not None else True
    return calibrate(
        CalibrationConfig(
            workload=workload,
            params=config.params,
            window_uops=config.window_uops,
            warm_uops=config.warm_uops,
            seed=config.seed,
        ),
        use_store=use_store)


def run(config: RunConfig | None = None, engine=None,
        workload: str = "data-serving",
        fleets: list[int] | None = None,
        replication: int = 2,
        costs: str = "static") -> ExperimentTable:
    """Build the fleet tail-latency table.

    ``costs="measured"`` calibrates a service-cost model from uarch
    replay first (capture → columnar replay → quantile tables) and
    prices every request from it; the default keeps the hand-written
    static tables, explicitly labeled as such in the notes.
    """
    config = config or RunConfig()
    cost_model = None
    if costs == "measured":
        cost_model = calibrate_for(config, workload, engine=engine)
    cells = build_cells(config, workload=workload, fleets=fleets,
                        replication=replication, costs=costs,
                        cost_model=cost_model)
    results = (engine or SweepEngine()).run(cells)
    table = ExperimentTable(
        title=("Figure 9. Fleet tail latency and resilience counters "
               "(replicated sharding, health-checked balancing, hedged "
               "requests; coordinated-omission-safe percentiles)."),
        columns=list(_COLUMNS),
    )
    for cell, summaries in zip(cells, results):
        summary = summaries[0]
        cfg = cell.config
        skew = "zipf" if cfg.theta else "uniform"
        table.add_row(**{
            "Cell": f"f{cfg.fleet}/{skew}/{cfg.fault_plan.name}",
            "Fleet": int(cfg.fleet),
            "Skew": skew,
            "Fault": cfg.fault_plan.name,
            "Goodput": float(summary["goodput"]),
            "p50 (us)": int(summary["p50"]),
            "p99 (us)": int(summary["p99"]),
            "p999 (us)": int(summary["p999"]),
            "Retries": int(summary["retries"]),
            "Hedges": int(summary["hedges"]),
            "Eject": int(summary["ejections"]),
            "Hints": int(summary["hints_stored"]),
            "Repairs": int(summary["read_repairs"]),
            "Lost": int(summary["acked_lost"]),
            "Hot share": float(summary["hot_node_share"]),
        })
    requests = cluster_requests(config)
    table.notes.append(
        f"{requests} open-loop requests per cell (Poisson, mean gap "
        f"{MEAN_GAP_US}us), workload {workload!r}, replication "
        f"{replication}, seed {config.seed}; latencies measured from "
        "intended start times, so stalls count against the fleet.")
    table.notes.append(
        "Lost = quorum-acknowledged writes no replica or hint log can "
        "produce after the fault plan ran; nonzero fails validation.")
    if cost_model is not None:
        table.notes.append(
            "Service costs: measured — per-op latency quantiles from "
            f"uarch replay at {cost_model.blade_mhz:.0f} MHz "
            f"(uarch {cost_model.uarch[:12]}).")
    else:
        table.notes.append(
            "Service costs: static — hand-written per-op tables "
            "(rerun with --costs=measured for uarch-derived costs).")
    return table


def delta_table(config: RunConfig | None = None, engine=None,
                workload: str = "data-serving",
                fleets: list[int] | None = None,
                replication: int = 2) -> ExperimentTable:
    """Static-vs-measured service costs, cell by cell.

    The headline comparison the calibration layer exists for: the same
    fleet grid priced from the hand-written tables and from uarch
    replay, with the tail-latency shift each cell sees.
    """
    config = config or RunConfig()
    static = run(config, engine=engine, workload=workload, fleets=fleets,
                 replication=replication, costs="static")
    measured = run(config, engine=engine, workload=workload, fleets=fleets,
                   replication=replication, costs="measured")
    table = ExperimentTable(
        title=("Figure 9 (delta). Fleet tail latency, static vs "
               "measured service costs (uarch-replay calibration)."),
        columns=["Cell", "p50 static", "p50 measured", "p99 static",
                 "p99 measured", "p999 static", "p999 measured",
                 "p99 shift"],
    )
    for s_row, m_row in zip(static.rows, measured.rows):
        p99_s, p99_m = int(s_row["p99 (us)"]), int(m_row["p99 (us)"])
        shift = (p99_m - p99_s) / p99_s if p99_s else 0.0
        table.add_row(**{
            "Cell": s_row["Cell"],
            "p50 static": int(s_row["p50 (us)"]),
            "p50 measured": int(m_row["p50 (us)"]),
            "p99 static": p99_s,
            "p99 measured": p99_m,
            "p999 static": int(s_row["p999 (us)"]),
            "p999 measured": int(m_row["p999 (us)"]),
            "p99 shift": shift,
        })
    table.notes.extend(static.notes[-1:])
    table.notes.extend(measured.notes[-1:])
    return table
