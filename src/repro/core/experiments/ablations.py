"""Ablation experiments for the paper's *implications* (§4).

The paper does not just characterize — it argues for specific design
changes.  These experiments test those arguments on the simulator:

* **Narrow cores** (§4.2 Implications): "rather than implementing SMT
  on a 4-way core, two independent 2-way cores would consume fewer
  resources while achieving higher aggregate performance."  We compare
  the aggregate throughput of one 4-wide SMT core against two 2-wide
  cores running the same two threads.
* **Window size** (§4.2): scale-out workloads cannot use a 128-entry
  reorder window; shrinking it should barely hurt them while clearly
  hurting cpu-intensive benchmarks.
* **LLC latency** (§4.3): "increases in the LLC capacity that do not
  capture a working set lead to an overall performance degradation" —
  a smaller LLC with proportionally lower latency should *help*
  scale-out workloads.

Every run the shared runner can measure is a sweep cell on ``engine``
(so ``--jobs``, the result store and ``--resume`` apply); the
hand-built 2-wide and in-order cores run in-process.
"""

from __future__ import annotations

from dataclasses import replace

from repro.core import analysis
from repro.core.report import ExperimentTable
from repro.core.runner import RunConfig, guarded_trace
from repro.core.sweep import Cell, SweepEngine
from repro.core.workloads import build_app
from repro.uarch.core import Core
from repro.uarch.hierarchy import MemoryHierarchy
from repro.uarch.params import CacheParams


def _runs(engine: SweepEngine | None, cells: list[Cell]):
    """The cells' runs, in cell order, from one sweep on ``engine``."""
    return iter((engine or SweepEngine()).run_flat(cells))


def narrow_cores(config: RunConfig | None = None,
                 workloads: list[str] | None = None,
                 engine: SweepEngine | None = None) -> ExperimentTable:
    """One 4-wide SMT core vs two independent 2-wide cores."""
    config = config or RunConfig()
    workloads = workloads or ["data-serving", "web-search", "media-streaming"]
    table = ExperimentTable(
        title=("Ablation (§4.2): aggregate throughput of one 4-wide SMT "
               "core vs two independent 2-wide cores."),
        columns=["Workload", "4-wide SMT IPC", "2x 2-wide IPC", "Narrow wins"],
    )
    narrow_params = replace(config.params, width=2, rob_entries=64,
                            reservation_stations=24)
    smt_runs = _runs(engine, [Cell("smt", name, config) for name in workloads])
    for name, smt in zip(workloads, smt_runs):
        smt_ipc = analysis.ipc(smt.result)
        # Two independent 2-wide cores, each running one thread of the
        # same app (private L1/L2, both warmed; aggregate = sum of IPCs).
        app = build_app(name, seed=config.seed)
        aggregate = 0.0
        for tid in range(2):
            hierarchy = MemoryHierarchy(narrow_params, core_id=tid)
            app.warm(hierarchy, trace_uops=config.warm_uops // 2)
            core = Core(narrow_params, hierarchy, core_id=tid)
            result = core.run([guarded_trace(app, tid, config.window_uops // 2,
                                             f"{name}[narrow:{tid}]")])
            aggregate += analysis.ipc(result)
        table.add_row(
            Workload=name,
            **{"4-wide SMT IPC": smt_ipc,
               "2x 2-wide IPC": aggregate,
               "Narrow wins": "yes" if aggregate > smt_ipc else "no"},
        )
    table.notes.append(
        "each 2-wide core also drops to a 64-entry window and 24 RS — "
        "far less area than the 4-wide core they replace"
    )
    return table


def window_size(config: RunConfig | None = None,
                rob_sizes: tuple[int, ...] = (32, 64, 128),
                workloads: list[str] | None = None,
                engine: SweepEngine | None = None) -> ExperimentTable:
    """IPC as a function of reorder-window size."""
    config = config or RunConfig()
    workloads = workloads or ["data-serving", "tpc-c", "parsec-cpu"]
    table = ExperimentTable(
        title="Ablation (§4.2): IPC sensitivity to the reorder-window size.",
        columns=["Workload"] + [f"ROB {size}" for size in rob_sizes]
                + ["128-entry gain over 32"],
    )
    sized = [replace(config, params=replace(
                 config.params, rob_entries=size,
                 reservation_stations=min(36, max(8, size // 3))))
             for size in rob_sizes]
    runs = _runs(engine, [Cell("single", name, sized_config)
                          for name in workloads for sized_config in sized])
    for name in workloads:
        row: dict[str, object] = {"Workload": name}
        ipcs = []
        for size in rob_sizes:
            ipc = analysis.ipc(next(runs).result)
            ipcs.append(ipc)
            row[f"ROB {size}"] = ipc
        row["128-entry gain over 32"] = ipcs[-1] / ipcs[0] - 1.0
        table.add_row(**row)
    return table


def llc_latency(config: RunConfig | None = None,
                workloads: list[str] | None = None,
                engine: SweepEngine | None = None) -> ExperimentTable:
    """A 6 MB LLC at 21 cycles vs the 12 MB LLC at 29 cycles (§4.3)."""
    config = config or RunConfig()
    workloads = workloads or ["web-search", "media-streaming", "specint-mcf"]
    table = ExperimentTable(
        title=("Ablation (§4.3): a smaller, faster LLC (6 MB / 21 cycles) "
               "vs the baseline (12 MB / 29 cycles)."),
        columns=["Workload", "Baseline IPC", "Small-fast IPC", "Speedup"],
    )
    small_fast = replace(config, params=replace(
        config.params, llc=CacheParams(6 * 1024 * 1024, 16, 21)
    ))
    runs = _runs(engine, [Cell("single", name, variant)
                          for name in workloads
                          for variant in (config, small_fast)])
    for name in workloads:
        base = analysis.ipc(next(runs).result)
        fast = analysis.ipc(next(runs).result)
        table.add_row(
            Workload=name,
            **{"Baseline IPC": base, "Small-fast IPC": fast,
               "Speedup": fast / base if base else 0.0},
        )
    table.notes.append(
        "scale-out workloads keep (or gain) performance; workloads with "
        "LLC-sized working sets (mcf) lose — §4.3's trade-off"
    )
    return table


def instruction_fetch(config: RunConfig | None = None,
                      l1i_kb: tuple[int, ...] = (32, 64, 128),
                      workloads: list[str] | None = None,
                      engine: SweepEngine | None = None) -> ExperimentTable:
    """L1-I capacity provisioning (§4.1 Implications / §6).

    The paper calls for "optimizing the instruction-fetch path for
    multi-megabyte instruction working sets".  The simplest probe:
    grow the L1-I and watch scale-out frontend misses collapse while
    desktop benchmarks (whose working sets already fit) see nothing.
    """
    config = config or RunConfig()
    workloads = workloads or ["data-serving", "media-streaming", "parsec-cpu"]
    table = ExperimentTable(
        title=("Ablation (§4.1): L1-I misses per k-instruction as the "
               "instruction cache grows."),
        columns=["Workload"] + [f"L1-I {kb}KB" for kb in l1i_kb]
                + ["Miss reduction 32->128"],
    )
    sized = [replace(config, params=replace(config.params, l1i=CacheParams(
                 kb * 1024, 4 if kb == 32 else 8, config.params.l1i.latency)))
             for kb in l1i_kb]
    runs = _runs(engine, [Cell("single", name, sized_config)
                          for name in workloads for sized_config in sized])
    for name in workloads:
        row: dict[str, object] = {"Workload": name}
        mpkis = []
        for kb in l1i_kb:
            mpki = analysis.instruction_mpki(next(runs).result)
            mpkis.append(mpki)
            row[f"L1-I {kb}KB"] = mpki
        row["Miss reduction 32->128"] = (
            1.0 - mpkis[-1] / mpkis[0] if mpkis[0] else 0.0
        )
        table.add_row(**row)
    table.notes.append(
        "the paper's preferred fix is shared partitioned instruction "
        "caches rather than bigger L1-Is (latency constraints); this "
        "probe only shows where the misses live"
    )
    return table


def core_aggressiveness(config: RunConfig | None = None,
                        workloads: list[str] | None = None,
                        engine: SweepEngine | None = None) -> ExperimentTable:
    """In-order vs modest OoO vs aggressive OoO (§4.2 Implications).

    The paper's sweet spot is "a modest degree of superscalar out-of-
    order execution": in-order niche cores leave the available ILP/MLP
    on the table, while the aggressive 4-wide/128-entry core wastes area
    on parallelism scale-out workloads do not have.
    """
    from repro.uarch.inorder import InOrderCore

    config = config or RunConfig()
    workloads = workloads or ["data-serving", "web-search", "parsec-cpu"]
    table = ExperimentTable(
        title=("Ablation (§4.2): in-order vs modest OoO vs aggressive "
               "OoO cores."),
        columns=["Workload", "In-order IPC", "2-wide OoO IPC",
                 "4-wide OoO IPC", "OoO gain", "Aggressive gain"],
    )
    modest = replace(config, params=replace(
        config.params, width=2, rob_entries=64, reservation_stations=24))
    runs = _runs(engine, [Cell("single", name, variant)
                          for name in workloads
                          for variant in (modest, config)])
    for name in workloads:
        app = build_app(name, seed=config.seed)
        hierarchy = MemoryHierarchy(config.params)
        app.warm(hierarchy, trace_uops=config.warm_uops)
        inorder = InOrderCore(config.params, hierarchy)
        in_res = inorder.run([guarded_trace(app, 0, config.window_uops // 2,
                                            f"{name}[in-order]")])
        in_ipc = analysis.ipc(in_res)

        modest_ipc = analysis.ipc(next(runs).result)
        aggressive_ipc = analysis.ipc(next(runs).result)
        table.add_row(
            Workload=name,
            **{
                "In-order IPC": in_ipc,
                "2-wide OoO IPC": modest_ipc,
                "4-wide OoO IPC": aggressive_ipc,
                "OoO gain": modest_ipc / in_ipc if in_ipc else 0.0,
                "Aggressive gain": (aggressive_ipc / modest_ipc
                                    if modest_ipc else 0.0),
            },
        )
    table.notes.append(
        "OoO gain = modest OoO over in-order (large even for scale-out); "
        "Aggressive gain = 4-wide/128-entry over 2-wide/64-entry (small "
        "for scale-out, large for cpu-intensive desktop code)"
    )
    return table
