"""Figure 8 (extension): healthy vs. degraded-mode characterization.

The paper measures the suite in healthy steady state only.  This
experiment re-measures the scale-out workloads under the canonical
degraded-mode fault plan (replica crashes, stragglers, request drops,
GC storms, memory pressure — see ``docs/resilience.md``) and reports,
side by side per workload:

* the microarchitectural story — IPC and the L1-I/L2 instruction miss
  rates whose growth under fault handling extends Figure 2's
  instruction-footprint argument, plus the registered code footprint;
* the service-level story — goodput, retry rate, and the simulated
  p99 latency the clients observe.

Each (workload, mode) pair is a :class:`FaultCell` on the shared
:class:`~repro.core.sweep.SweepEngine`, so this table gets what every
other figure has: rows cached in the result store, ``--jobs``,
``--timeout`` and ``--retries``, a checkpoint journal that ``--resume``
picks up after a kill, and a validation gate
(:func:`~repro.core.validate.check_fault_row`) on every row, fresh or
reused.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.core import analysis
from repro.core.report import ExperimentTable
from repro.core.runner import RunConfig
from repro.core.sweep import SweepEngine, config_fingerprint
from repro.core.validate import validate_fault_rows
from repro.core.workloads import REGISTRY
from repro.faults.plan import FaultPlan
from repro.trace import pipeline
from repro.trace.capture import TraceKey

#: The workloads the degraded-mode table characterizes by default.
DEFAULT_WORKLOADS = [
    "data-serving",
    "mapreduce",
    "media-streaming",
    "web-search",
]

_COLUMNS = [
    "Workload",
    "Mode",
    "IPC",
    "L1-I MPKI",
    "L2-I MPKI",
    "Code KB",
    "Goodput",
    "Retry rate",
    "p99 (uops)",
    "Faults",
]


def degraded_plan(seed: int = 7, intensity: float = 1.0) -> FaultPlan:
    """The canonical fault schedule for the degraded columns."""
    return FaultPlan.degraded(seed=seed, intensity=intensity)


def _measure_cell(name: str, config: RunConfig,
                  use_cache: bool = True) -> dict:
    """Run one (workload, mode) cell and distill its row payload.

    The row reads service metrics and fault counters off the live app
    that produced the trace, so the cell captures afresh
    (:func:`~repro.trace.pipeline.capture_fresh`) instead of taking a
    memo or store hit, and replays that capture.
    """
    captured, app = pipeline.capture_fresh(
        TraceKey.from_config(name, config), use_store=use_cache)
    r = pipeline.replay(captured, config.params)
    service = app.service.summary()
    injector = app.faults
    return {
        "ipc": analysis.ipc(r),
        "l1i_mpki": analysis.instruction_mpki(r),
        "l2i_mpki": analysis.instruction_mpki(r, "l2"),
        "code_kb": app.layout.app_code_bytes() / 1024.0,
        "goodput": service["goodput"],
        "retry_rate": service["retry_rate"],
        "p99": service["p99"],
        "faults_fired": injector.total_fired() if injector else 0,
    }


@dataclass(frozen=True)
class FaultCell:
    """One (workload, mode) row of the table; its payload is ``[row]``,
    the dict :func:`_measure_cell` distills."""

    name: str
    mode: str
    config: RunConfig

    @property
    def kind(self) -> str:  # failure messages name the mode
        return f"faults-{self.mode}"

    def fingerprint(self) -> str:
        return config_fingerprint(self.kind, self.name, self.config)

    def execute(self, use_cache: bool = True) -> list[dict]:
        return [_measure_cell(self.name, self.config, use_cache)]

    def decode(self, payload: list) -> list[dict]:
        row, = payload  # exactly one row per cell
        return [row]

    def validate(self, rows: list[dict], context: str) -> None:
        validate_fault_rows(rows, context=context)

    def load(self, store, fingerprint: str) -> list[dict] | None:
        return store.get_faults(fingerprint)

    def save(self, store, fingerprint: str, rows: list[dict]) -> None:
        store.put_faults(fingerprint, rows, validate=False)


def cells(config: RunConfig, workloads: list[str] | None = None,
          intensity: float = 1.0) -> list[FaultCell]:
    """The table's cells: a healthy and a degraded row per workload."""
    names = workloads or DEFAULT_WORKLOADS
    for name in names:
        if name not in REGISTRY:
            known = ", ".join(sorted(REGISTRY))
            raise KeyError(f"unknown workload {name!r}; known: {known}")
    plan = degraded_plan(seed=config.seed, intensity=intensity)
    modes = [("healthy", config),
             ("degraded", replace(config, fault_plan=plan))]
    return [FaultCell(name, mode, cell_config)
            for name in names for mode, cell_config in modes]


def run(config: RunConfig | None = None,
        workloads: list[str] | None = None,
        engine: SweepEngine | None = None,
        intensity: float = 1.0) -> ExperimentTable:
    """Build the healthy-vs-degraded table on ``engine`` (default: a
    serial engine with no result store and no journal)."""
    config = config or RunConfig()
    table_cells = cells(config, workloads, intensity)
    table = ExperimentTable(
        title=(
            "Figure 8. Healthy vs. degraded-mode characterization "
            "(deterministic fault injection)."
        ),
        columns=list(_COLUMNS),
    )
    results = (engine or SweepEngine()).run(table_cells)
    for cell, (row,) in zip(table_cells, results):
        table.add_row(
            Workload=REGISTRY[cell.name].display_name,
            Mode=cell.mode,
            **{
                "IPC": float(row["ipc"]),
                "L1-I MPKI": float(row["l1i_mpki"]),
                "L2-I MPKI": float(row["l2i_mpki"]),
                "Code KB": float(row["code_kb"]),
                "Goodput": float(row["goodput"]),
                "Retry rate": float(row["retry_rate"]),
                "p99 (uops)": int(row["p99"]),
                "Faults": int(row["faults_fired"]),
            },
        )
    plan = degraded_plan(seed=config.seed, intensity=intensity)
    table.notes.append(
        "Degraded runs execute the canonical fault plan "
        f"({len(plan.events)} recurring events, seed {config.seed}); "
        "identical seeds reproduce identical tables."
    )
    return table


def mpki_delta(table: ExperimentTable, workload: str) -> float:
    """Degraded-minus-healthy L1-I MPKI for one workload's row pair."""
    healthy = degraded = None
    for row in table.rows:
        if row["Workload"] == workload:
            if row["Mode"] == "healthy":
                healthy = float(row["L1-I MPKI"])
            elif row["Mode"] == "degraded":
                degraded = float(row["L1-I MPKI"])
    if healthy is None or degraded is None:
        raise KeyError(f"no healthy/degraded row pair for {workload!r}")
    return degraded - healthy
