"""The committed tables and the paper's claims, as code.

:data:`TABLES` maps each committed table (``benchmarks/results/<name>.txt``)
to its table function and window scale; :func:`build` runs one.  Each
qualitative claim of §4, of its ablations and of the Figure 8/9
extensions is a :class:`Claim` in :data:`CLAIMS` with a predicate over
the built tables.  :func:`check` reports the claims whose tables are
present; ``verify()`` builds the tables the claims read and checks them
(``python -m repro verify``; ``all --out DIR`` also writes them).

Two claims are marked ``expected="partial"``: the Figure 5 pollution
sign flip and the Figure 3 SMT-MLP doubling, the documented deviations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.core.experiments import (
    ablations,
    figure1,
    figure2,
    figure3,
    figure4,
    figure5,
    figure6,
    figure7,
    figure8_faults,
    figure9_cluster,
    table1,
)
from repro.core.report import ExperimentTable
from repro.core.runner import RunConfig
from repro.core.sweep import SweepEngine
from repro.core.workloads import SCALE_OUT

_SCALE_OUT = [spec.display_name for spec in SCALE_OUT]

#: Each committed table: name -> (function of ``(config, engine=...)``,
#: window scale).  Figure 4 sweeps ten configurations per curve; sharing
#: (Figure 6) needs a longer window to show.
TABLES: dict[str, tuple[Callable[..., ExperimentTable], float]] = {
    "table1": (table1.run, 1),
    "figure1": (figure1.run, 1),
    "figure2": (figure2.run, 1),
    "figure3": (figure3.run, 1),
    "figure4": (figure4.run, 0.6),
    "figure5": (figure5.run, 1),
    "figure6": (figure6.run, 1.5),
    "figure7": (figure7.run, 1),
    "figure8": (figure8_faults.run, 1),
    "figure9": (figure9_cluster.run, 1),
    "ablation_narrow_cores": (ablations.narrow_cores, 0.75),
    "ablation_window_size": (ablations.window_size, 0.75),
    "ablation_llc_latency": (ablations.llc_latency, 0.75),
    "ablation_instruction_fetch": (ablations.instruction_fetch, 0.75),
    "ablation_core_aggressiveness": (ablations.core_aggressiveness, 0.6),
}


def build(name: str, config: RunConfig,
          engine: SweepEngine | None = None) -> ExperimentTable:
    """Build the ``TABLES`` entry ``name`` at its window scale."""
    run, scale = TABLES[name]
    return run(config if scale == 1 else config.scaled(scale),
               engine=engine)


@dataclass(frozen=True)
class Claim:
    """One checkable statement about a ``TABLES`` entry."""

    figure: str  # the TABLES entry the check reads
    text: str
    check: Callable[[dict[str, ExperimentTable]], bool]
    expected: str = "holds"  # or "partial" for documented deviations


def _by_workload(table: ExperimentTable, column: str) -> dict[str, float]:
    """One numeric column keyed by the ``Workload`` column."""
    return {row["Workload"]: float(row[column]) for row in table.rows}


def _fig1_scale_out_stalled(tables) -> bool:
    table = tables["figure1"]
    return all(figure1.stalled_fraction(table, name) > 0.5
               for name in _SCALE_OUT)


def _fig1_memory_dominates(tables) -> bool:
    table = tables["figure1"]
    heavy = sum(
        1 for name in _SCALE_OUT
        if float(table.row_for("Workload", name)["Memory"])
        > 0.5 * figure1.stalled_fraction(table, name)
    )
    return heavy >= 4


def _fig1_cpu_groups_stall_less(tables) -> bool:
    table = tables["figure1"]
    return all(figure1.stalled_fraction(table, name) < 0.6
               for name in ("PARSEC (cpu)", "SPECint (cpu)"))


def _fig1_tpcc_over_80(tables) -> bool:
    return figure1.stalled_fraction(tables["figure1"], "TPC-C") > 0.8


def _fig2_order_of_magnitude(tables) -> bool:
    table = tables["figure2"]
    desktop = max(figure2.total_l1i_mpki(table, n)
                  for n in ("PARSEC (cpu)", "SPECint (cpu)",
                            "PARSEC (mem)", "SPECint (mem)"))
    return all(
        figure2.total_l1i_mpki(table, name) > 10 * max(desktop, 0.3)
        for name in ("Data Serving", "Media Streaming", "Web Search")
    )


def _fig2_server_like_scale_out(tables) -> bool:
    table = tables["figure2"]
    return all(figure2.total_l1i_mpki(table, name) > 20
               for name in ("TPC-C", "SPECweb09"))


def _fig2_os_smaller_than_server(tables) -> bool:
    table = tables["figure2"]
    specweb_os = float(table.row_for("Workload", "SPECweb09")["L1-I (OS)"])
    scale_out_os = max(
        float(table.row_for("Workload", n)["L1-I (OS)"])
        for n in ("Data Serving", "Media Streaming", "Web Search")
    )
    return specweb_os > 0.9 * scale_out_os


def _fig3_modest_ipc(tables) -> bool:
    table = tables["figure3"]
    return all(
        0.15 < float(table.row_for("Workload", n)["IPC"]) < 1.3
        for n in _SCALE_OUT
    )


def _fig3_cpu_uses_width(tables) -> bool:
    ipc_max = _by_workload(tables["figure3"], "IPC max")
    return max(ipc_max["PARSEC (cpu)"], ipc_max["SPECint (cpu)"]) > 1.5


def _fig3_low_mlp_wf_lowest(tables) -> bool:
    table = tables["figure3"]
    mlps = {n: float(table.row_for("Workload", n)["MLP"]) for n in _SCALE_OUT}
    return max(mlps.values()) < 4.0 and min(mlps, key=mlps.get) == "Web Frontend"


def _fig3_mem_groups_reach_high_mlp(tables) -> bool:
    mlp_max = _by_workload(tables["figure3"], "MLP max")
    return max(mlp_max["PARSEC (mem)"], mlp_max["SPECint (mem)"]) > 3.5


def _fig3_smt_gains(tables) -> bool:
    table = tables["figure3"]
    return all(figure3.smt_ipc_gain(table, n) > 0.3 for n in _SCALE_OUT)


def _fig3_smt_raises_mlp(tables) -> bool:
    table = tables["figure3"]
    return all(
        float(table.row_for("Workload", n)["MLP (SMT)"])
        > 1.1 * float(table.row_for("Workload", n)["MLP"])
        for n in ("Media Streaming", "MapReduce", "Data Serving")
    )


def _fig3_smt_doubles_mlp(tables) -> bool:
    table = tables["figure3"]
    return all(
        float(table.row_for("Workload", n)["MLP (SMT)"])
        > 1.7 * float(table.row_for("Workload", n)["MLP"])
        for n in _SCALE_OUT
    )


def _fig4_flat_above_6mb(tables) -> bool:
    table = tables["figure4"]
    return all(
        float(table.row_for("Cache size (MB)", size)["Scale-out"]) > 0.88
        for size in (6, 8, 10, 11)
        if any(row["Cache size (MB)"] == size for row in table.rows)
    )


def _fig4_server_flat_above_6mb(tables) -> bool:
    return all(float(row["Server"]) > 0.9 for row in tables["figure4"].rows
               if row["Cache size (MB)"] in (6, 8, 10, 11))


def _fig4_mcf_scales(tables) -> bool:
    table = tables["figure4"]
    mcf = [float(v) for v in table.column("SPECint (mcf)")]
    return mcf[-1] / mcf[0] > 1.12


def _fig4_mcf_climbs_past_scale_out(tables) -> bool:
    table = tables["figure4"]
    mcf = [float(v) for v in table.column("SPECint (mcf)")]
    scale_out_span = (
        float(table.row_for("Cache size (MB)", 11)["Scale-out"])
        / float(table.row_for("Cache size (MB)", 6)["Scale-out"]))
    # A couple of percent of per-point measurement wobble is allowed.
    return (all(current > previous - 0.03
                for previous, current in zip(mcf, mcf[1:]))
            and mcf[-1] / mcf[0] > scale_out_span + 0.05)


def _fig5_desktop_needs_prefetchers(tables) -> bool:
    table = tables["figure5"]
    return all(
        float(table.row_for("Workload", n)["Baseline (all enabled)"])
        - float(table.row_for("Workload", n)["HW prefetcher (disabled)"])
        > 0.1
        for n in ("PARSEC (cpu)", "PARSEC (mem)", "SPECint (mem)")
    )


def _fig5_mapreduce_benefits(tables) -> bool:
    return figure5.prefetcher_benefit(tables["figure5"], "MapReduce") > 0.04


def _fig5_others_barely_change(tables) -> bool:
    table = tables["figure5"]
    return all(abs(figure5.prefetcher_benefit(table, n)) < 0.12
               for n in ("Data Serving", "Web Search", "SAT Solver"))


def _fig5_pollution_flip(tables) -> bool:
    table = tables["figure5"]
    return all(
        figure5.prefetcher_benefit(table, n) < 0.0
        for n in ("Media Streaming", "SAT Solver")
    )


def _fig6_scale_out_minimal(tables) -> bool:
    table = tables["figure6"]
    return all(
        figure6.total_sharing(table, n) < 0.04
        for n in ("MapReduce", "SAT Solver", "Web Search", "Web Frontend")
    )


def _fig6_oltp_highest(tables) -> bool:
    table = tables["figure6"]
    oltp = max(figure6.total_sharing(table, n)
               for n in ("TPC-C", "TPC-E", "Web Backend"))
    scale_out = max(figure6.total_sharing(table, n) for n in _SCALE_OUT)
    return oltp > 0.03 and oltp > scale_out


def _fig6_single_process_shares_nothing(tables) -> bool:
    table = tables["figure6"]
    return all(figure6.total_sharing(table, n) < 0.005
               for n in ("PARSEC (cpu)", "SPECint (cpu)"))


def _fig6_specweb_sharing_is_os(tables) -> bool:
    specweb = tables["figure6"].row_for("Workload", "SPECweb09")
    return float(specweb["OS"]) >= float(specweb["Application"])


def _fig7_scale_out_low(tables) -> bool:
    table = tables["figure7"]
    return all(
        figure7.total_utilization(table, n)
        < (0.25 if n == "Media Streaming" else 0.18)
        for n in _SCALE_OUT
    )


def _fig7_media_max(tables) -> bool:
    table = tables["figure7"]
    utils = {n: figure7.total_utilization(table, n) for n in _SCALE_OUT}
    return max(utils, key=utils.get) == "Media Streaming"


def _fig7_web_frontend_idle(tables) -> bool:
    return figure7.total_utilization(tables["figure7"], "Web Frontend") < 0.05


def _fig7_cpu_groups_compute_bound(tables) -> bool:
    table = tables["figure7"]
    return all(figure7.total_utilization(table, n) < 0.05
               for n in ("PARSEC (cpu)", "SPECint (cpu)"))


def _fig8_faults_grow_l1i_misses(tables) -> bool:
    table = tables["figure8"]
    return all(figure8_faults.mpki_delta(table, n) > 0.0
               for n in ("Data Serving", "MapReduce", "Media Streaming",
                         "Web Search"))


def _fig8_clients_ride_through(tables) -> bool:
    degraded = [row for row in tables["figure8"].rows
                if row["Mode"] == "degraded"]
    return (all(float(row["Goodput"]) >= 0.9 for row in degraded)
            and sum(float(row["Retry rate"]) for row in degraded) > 0.0
            and all(int(row["Faults"]) > 0 for row in degraded))


def _fig9_faults_cost_tail(tables) -> bool:
    table = tables["figure9"]
    for fleet in figure9_cluster.DEFAULT_FLEETS:
        rows = {row["Fault"]: row for row in table.rows
                if row["Fleet"] == fleet and row["Skew"] == "uniform"}
        healthy_p999 = int(rows["none"]["p999 (us)"])
        if float(rows["none"]["Goodput"]) < 1 or any(
                int(rows[fault]["p999 (us)"]) <= healthy_p999
                for fault in ("node-crash", "slow-node", "partition")):
            return False
    return True


def _fig9_fleets_spread_load(tables) -> bool:
    shares = [float(row["Hot share"]) for row in tables["figure9"].rows
              if row["Fault"] == "none" and row["Skew"] == "uniform"]
    return shares == sorted(shares, reverse=True)


def _fig9_crashes_show_in_counters(tables) -> bool:
    crashed = [row for row in tables["figure9"].rows
               if row["Fault"] == "node-crash"]
    return (all(int(row["Eject"]) >= 1 for row in crashed)
            and sum(int(row["Retries"]) for row in crashed) > 0)


def _narrow_cores_competitive(tables) -> bool:
    table = tables["ablation_narrow_cores"]
    competitive = [
        row for row in table.rows
        if float(row["2x 2-wide IPC"]) > 0.92 * float(row["4-wide SMT IPC"])
    ]
    return len(competitive) >= 2


def _window_matters_for_cpu_only(tables) -> bool:
    gain = _by_workload(tables["ablation_window_size"],
                        "128-entry gain over 32")
    return (gain["data-serving"] < 0.3
            and gain["parsec-cpu"] > gain["data-serving"] + 0.3
            and gain["parsec-cpu"] > gain["tpc-c"])


def _small_fast_llc_keeps_scale_out(tables) -> bool:
    speedup = _by_workload(tables["ablation_llc_latency"], "Speedup")
    return speedup["web-search"] > 0.9 and speedup["media-streaming"] > 0.9


def _small_fast_llc_costs_mcf(tables) -> bool:
    speedup = _by_workload(tables["ablation_llc_latency"], "Speedup")
    return speedup["specint-mcf"] < min(speedup["web-search"],
                                        speedup["media-streaming"])


def _bigger_l1i_helps_scale_out_only(tables) -> bool:
    reduction = _by_workload(tables["ablation_instruction_fetch"],
                             "Miss reduction 32->128")
    return (reduction["data-serving"] > 0.3
            and reduction["media-streaming"] > 0.3
            and abs(reduction["parsec-cpu"]) < 0.05)


def _in_order_leaves_ilp(tables) -> bool:
    gain = _by_workload(tables["ablation_core_aggressiveness"], "OoO gain")
    return gain["data-serving"] > 1.15 and gain["web-search"] > 1.15


def _aggressive_ooo_pays_for_cpu(tables) -> bool:
    gain = _by_workload(tables["ablation_core_aggressiveness"],
                        "Aggressive gain")
    return (gain["parsec-cpu"] > gain["data-serving"]
            and gain["parsec-cpu"] > gain["web-search"])


CLAIMS: list[Claim] = [
    Claim("figure1", "Scale-out workloads stall for most of their cycles",
          _fig1_scale_out_stalled),
    Claim("figure1", "Those stalls are predominantly memory stalls",
          _fig1_memory_dominates),
    Claim("figure1", "cpu-intensive desktop/parallel stall well under the "
          "scale-out level", _fig1_cpu_groups_stall_less),
    Claim("figure1", "TPC-C is stalled over 80% of the time",
          _fig1_tpcc_over_80),
    Claim("figure2", "Scale-out instruction MPKI is an order of magnitude "
          "above desktop/parallel", _fig2_order_of_magnitude),
    Claim("figure2", "Traditional server workloads resemble scale-out "
          "(L1-I MPKI above 20)", _fig2_server_like_scale_out),
    Claim("figure2", "Scale-out OS instruction working sets are smaller "
          "than traditional server ones", _fig2_os_smaller_than_server),
    Claim("figure3", "Scale-out IPC is modest despite the 4-wide core",
          _fig3_modest_ipc),
    Claim("figure3", "Some cpu-intensive desktop/parallel benchmarks use "
          "wide cores well", _fig3_cpu_uses_width),
    Claim("figure3", "Scale-out MLP is low, with Web Frontend the lowest",
          _fig3_low_mlp_wf_lowest),
    Claim("figure3", "Desktop/parallel range bars reach far higher MLP",
          _fig3_mem_groups_reach_high_mlp),
    Claim("figure3", "SMT improves scale-out IPC substantially (39-69%)",
          _fig3_smt_gains),
    Claim("figure3", "SMT increases exploited MLP", _fig3_smt_raises_mlp),
    Claim("figure3", "SMT nearly doubles exploited MLP",
          _fig3_smt_doubles_mlp, expected="partial"),
    Claim("figure4", "Scale-out performance is flat above 4-6 MB of LLC",
          _fig4_flat_above_6mb),
    Claim("figure4", "Server performance is flat above 4-6 MB of LLC",
          _fig4_server_flat_above_6mb),
    Claim("figure4", "mcf keeps improving with LLC capacity",
          _fig4_mcf_scales),
    Claim("figure4", "mcf climbs at every size, and further than "
          "scale-out above 6 MB", _fig4_mcf_climbs_past_scale_out),
    Claim("figure5", "Disabling prefetchers hurts desktop/parallel "
          "benchmarks badly", _fig5_desktop_needs_prefetchers),
    Claim("figure5", "MapReduce is the one scale-out workload that clearly "
          "benefits from prefetching", _fig5_mapreduce_benefits),
    Claim("figure5", "The other scale-out workloads see only small "
          "changes", _fig5_others_barely_change),
    Claim("figure5", "Media Streaming and SAT Solver improve when "
          "prefetching is disabled", _fig5_pollution_flip,
          expected="partial"),
    Claim("figure6", "Scale-out read-write sharing is minimal",
          _fig6_scale_out_minimal),
    Claim("figure6", "Traditional OLTP shares the most",
          _fig6_oltp_highest),
    Claim("figure6", "One-process-per-core benchmarks share nothing",
          _fig6_single_process_shares_nothing),
    Claim("figure6", "SPECweb09's sharing is mostly OS (network stack)",
          _fig6_specweb_sharing_is_os),
    Claim("figure7", "Scale-out workloads use a small fraction of off-chip "
          "bandwidth", _fig7_scale_out_low),
    Claim("figure7", "Media Streaming is the scale-out bandwidth maximum",
          _fig7_media_max),
    Claim("figure7", "Web Frontend barely touches memory bandwidth",
          _fig7_web_frontend_idle),
    Claim("figure7", "cpu-intensive desktop/parallel benchmarks are "
          "compute-bound", _fig7_cpu_groups_compute_bound),
    Claim("figure8", "Fault handling raises every serving workload's L1-I "
          "miss rate", _fig8_faults_grow_l1i_misses),
    Claim("figure8", "Clients ride through the faults: retries happen, "
          "goodput stays at or above 0.9", _fig8_clients_ride_through),
    Claim("figure9", "The healthy fleet serves everything; every fault "
          "raises its p999", _fig9_faults_cost_tail),
    Claim("figure9", "Bigger fleets spread the load: the hottest node's "
          "share shrinks", _fig9_fleets_spread_load),
    Claim("figure9", "Node crashes show in the ejection and retry "
          "counters", _fig9_crashes_show_in_counters),
    Claim("ablation_narrow_cores", "Two 2-wide cores match a 4-wide SMT "
          "core on most scale-out workloads", _narrow_cores_competitive),
    Claim("ablation_window_size", "A 4x reorder window helps scale-out "
          "little and cpu-intensive code far more",
          _window_matters_for_cpu_only),
    Claim("ablation_llc_latency", "Scale-out workloads tolerate a "
          "smaller, faster LLC", _small_fast_llc_keeps_scale_out),
    Claim("ablation_llc_latency", "mcf pays for the smaller LLC",
          _small_fast_llc_costs_mcf),
    Claim("ablation_instruction_fetch", "A 4x L1-I removes many scale-out "
          "instruction misses and none of desktop code's",
          _bigger_l1i_helps_scale_out_only),
    Claim("ablation_core_aggressiveness", "In-order cores leave scale-out "
          "ILP and MLP on the table", _in_order_leaves_ilp),
    Claim("ablation_core_aggressiveness", "Aggressive OoO pays off more "
          "for cpu-intensive code than for scale-out",
          _aggressive_ooo_pays_for_cpu),
]


def check(tables: dict[str, ExperimentTable]) -> ExperimentTable:
    """Check every claim whose table is in ``tables``.

    Returns a table with one row per claim: its verdict (``holds`` /
    ``deviates``) against what the reproduction expects (documented
    deviations are expected to deviate)."""
    report = ExperimentTable(
        title="Verification: the paper's claims vs this reproduction.",
        columns=["Figure", "Claim", "Verdict", "Expected", "OK"],
    )
    for claim in CLAIMS:
        if claim.figure not in tables:
            continue
        holds = bool(claim.check(tables))
        verdict = "holds" if holds else "deviates"
        expected_verdict = "holds" if claim.expected == "holds" else "deviates"
        report.add_row(
            Figure=claim.figure,
            Claim=claim.text,
            Verdict=verdict,
            Expected=claim.expected,
            OK="yes" if verdict == expected_verdict else "NO",
        )
    return report


def verify(config: RunConfig | None = None,
           figures: list[str] | None = None,
           engine: SweepEngine | None = None) -> ExperimentTable:
    """Build the ``TABLES`` entries named in ``figures`` (by default,
    every table a claim reads) on one engine, and :func:`check` them."""
    config = config or RunConfig()
    engine = engine or SweepEngine()
    wanted = set(figures or (claim.figure for claim in CLAIMS))
    return check({name: build(name, config, engine)
                  for name in sorted(wanted)})
