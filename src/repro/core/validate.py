"""Physical-invariant validation for measurement results.

Every figure in the reproduction is a function of ``CoreResult``
counters.  A torn store document, a half-dead pool worker, or a future
refactoring bug can hand the figure pipeline counters that are
*physically impossible* — negative miss counts, an IPC above the
machine's issue width, more OS cycles than total cycles — and without a
gate those silently skew a table.  This module is that gate: a result
entering or leaving the persistence layer (and every payload a sweep
worker ships back) is checked against the invariants below and rejected
loudly, with a diagnostic naming each violated invariant, instead of
being averaged into a figure.

The invariants are deliberately conservative — every one of them holds
for all fourteen workloads in healthy, degraded (fault-injected), SMT,
and chip-summed configurations:

* cycles and instructions are strictly positive (MPKI and IPC are
  otherwise undefined);
* every raw counter is non-negative;
* committing + stalled cycles account for exactly the measured cycles
  (the §3.1 classification is a partition);
* memory and super-queue busy cycles never exceed total cycles;
* IPC is bounded by the commit width (times hardware threads);
* MLP never exceeds the super-queue capacity (``mshr_entries``);
* hit/miss pairs are consistent (L2 hits <= L2 accesses, mispredicts
  <= branches, L2-I misses <= L1-I misses; LLC misses are deliberately
  *not* bounded by ``llc_data_refs`` — misses include instruction-side
  fills while the ref counter is data-only);
* every OS-attributed counter is bounded by its total;
* loads + stores never exceed committed instructions.
"""

from __future__ import annotations

import math
from dataclasses import fields
from typing import Sequence

from repro.uarch.core import CoreResult
from repro.uarch.params import MachineParams

__all__ = [
    "ValidationError",
    "check_result",
    "validate_result",
    "validate_runs",
    "check_cluster_summary",
    "validate_cluster_summaries",
    "check_cost_model",
    "validate_cost_model",
    "check_fault_row",
    "validate_fault_rows",
]

#: ``(os_counter, total_counter)`` pairs: OS activity is a subset.
_OS_SUBSET_PAIRS = (
    ("os_instructions", "instructions"),
    ("committing_cycles_os", "committing_cycles"),
    ("stalled_cycles_os", "stalled_cycles"),
    ("l1i_misses_os", "l1i_misses"),
    ("l2i_misses_os", "l2i_misses"),
    ("remote_dirty_hits_os", "remote_dirty_hits"),
    ("offchip_bytes_os", "offchip_bytes"),
)

#: ``(part, whole)`` pairs: the part can never exceed the whole.
_BOUNDED_PAIRS = (
    ("memory_cycles", "cycles"),
    ("superq_busy_cycles", "cycles"),
    ("branch_mispredicts", "branches"),
    ("l2_demand_hits", "l2_demand_accesses"),
    ("l2i_misses", "l1i_misses"),
)


class ValidationError(ValueError):
    """A result violated physical invariants; carries the diagnostics."""

    def __init__(self, context: str, violations: Sequence[str]) -> None:
        self.context = context
        self.violations = list(violations)
        super().__init__(f"{context}: " + "; ".join(self.violations))


def check_result(result: CoreResult,
                 params: MachineParams | None = None) -> list[str]:
    """Every violated invariant in ``result``, as diagnostic strings.

    An empty list means the result is physically plausible.  ``params``
    enables the machine-dependent bounds (issue width, super-queue
    size); without it only the machine-independent checks run.
    """
    violations: list[str] = []
    for f in fields(CoreResult):
        value = getattr(result, f.name)
        if f.name == "per_thread_instructions":
            if any(count < 0 for count in value):
                violations.append(
                    f"per_thread_instructions has a negative entry: {value}")
            continue
        if not isinstance(value, (int, float)):
            violations.append(f"{f.name} is not numeric: {value!r}")
            continue
        if value != value:  # NaN poisons every downstream average
            violations.append(f"{f.name} is NaN")
        elif value < 0:
            violations.append(f"{f.name} is negative ({value})")
    if violations:
        return violations  # arithmetic below assumes sane counters

    if result.cycles <= 0:
        violations.append(f"cycles must be positive ({result.cycles})")
    if result.instructions <= 0:
        violations.append(
            f"instructions must be positive ({result.instructions})")
    partition = result.committing_cycles + result.stalled_cycles
    if partition != result.cycles:
        violations.append(
            "committing + stalled cycles must equal cycles "
            f"({result.committing_cycles} + {result.stalled_cycles} "
            f"!= {result.cycles})")
    for part, whole in _BOUNDED_PAIRS:
        if getattr(result, part) > getattr(result, whole):
            violations.append(
                f"{part} ({getattr(result, part)}) exceeds "
                f"{whole} ({getattr(result, whole)})")
    for os_name, total_name in _OS_SUBSET_PAIRS:
        if getattr(result, os_name) > getattr(result, total_name):
            violations.append(
                f"{os_name} ({getattr(result, os_name)}) exceeds "
                f"{total_name} ({getattr(result, total_name)})")
    if result.loads + result.stores > result.instructions:
        violations.append(
            f"loads + stores ({result.loads} + {result.stores}) exceed "
            f"instructions ({result.instructions})")

    if params is not None and result.cycles > 0:
        width = params.width * max(1, params.smt_threads)
        if result.instructions > result.cycles * width:
            violations.append(
                f"IPC {result.instructions / result.cycles:.2f} exceeds "
                f"the issue-width bound {width}")
        if result.mlp > params.mshr_entries:
            violations.append(
                f"MLP {result.mlp:.2f} exceeds the super-queue capacity "
                f"({params.mshr_entries} MSHRs)")
    return violations


def validate_result(result: CoreResult,
                    params: MachineParams | None = None,
                    context: str = "result") -> None:
    """Raise :class:`ValidationError` if ``result`` is implausible."""
    violations = check_result(result, params)
    if violations:
        raise ValidationError(context, violations)


def validate_runs(runs: Sequence, context: str = "sweep") -> None:
    """Validate every run in a cell's result list (see ``WorkloadRun``)."""
    for run in runs:
        validate_result(run.result, run.config.params,
                        context=f"{context}: run {run.name!r}")


#: Counter keys every cluster summary must carry, all non-negative.
_CLUSTER_COUNTERS = (
    "requests", "successes", "failures", "retries", "hedges", "timeouts",
    "drops", "p50", "p99", "p999", "max", "acked_writes", "acked_lost",
    "ejections", "readmissions", "hints_stored", "hints_replayed",
    "read_repairs", "probes", "latency_bound", "sim_us", "events_fired",
)


def check_cluster_summary(summary: dict) -> list[str]:
    """Every violated invariant in one fleet-cell summary.

    The fleet analogue of :func:`check_result`: a summary entering or
    leaving persistence must be physically plausible — outcome counts
    partition the requests, percentiles are ordered, every recorded
    latency sits under the policy-derived bound, and no acknowledged
    write is lost (the durability audit's ``acked_lost`` is zero).
    """
    violations: list[str] = []
    if not isinstance(summary, dict):
        return [f"summary is not an object: {summary!r}"]
    for key in _CLUSTER_COUNTERS:
        value = summary.get(key)
        if not isinstance(value, int) or isinstance(value, bool):
            violations.append(f"{key} is not an integer: {value!r}")
        elif value < 0:
            violations.append(f"{key} is negative ({value})")
    if violations:
        return violations  # arithmetic below assumes sane counters

    if summary["successes"] + summary["failures"] != summary["requests"]:
        violations.append(
            "successes + failures must equal requests "
            f"({summary['successes']} + {summary['failures']} "
            f"!= {summary['requests']})")
    if not summary["p50"] <= summary["p99"] <= summary["p999"] \
            <= summary["max"]:
        violations.append(
            f"percentiles out of order (p50 {summary['p50']}, "
            f"p99 {summary['p99']}, p999 {summary['p999']}, "
            f"max {summary['max']})")
    if summary["max"] > summary["latency_bound"]:
        violations.append(
            f"max latency {summary['max']} exceeds the policy bound "
            f"{summary['latency_bound']} (the client gave up later than "
            "its own timeout discipline allows)")
    if summary["hedges"] > summary["requests"]:
        violations.append(
            f"hedges ({summary['hedges']}) exceed requests "
            f"({summary['requests']})")
    if summary["timeouts"] > summary["requests"]:
        violations.append(
            f"timeouts ({summary['timeouts']}) exceed requests "
            f"({summary['requests']})")
    if summary["acked_lost"]:
        violations.append(
            f"{summary['acked_lost']} of {summary['acked_writes']} "
            "acknowledged writes were lost (acked_lost must be zero)")
    goodput = summary.get("goodput")
    if not isinstance(goodput, (int, float)) or isinstance(goodput, bool) \
            or goodput != goodput or not 0.0 <= goodput <= 1.0:
        violations.append(f"goodput must be in [0, 1]: {goodput!r}")
    return violations


def validate_cluster_summaries(summaries: Sequence[dict],
                               context: str = "cluster") -> None:
    """Raise :class:`ValidationError` on any implausible summary."""
    for index, summary in enumerate(summaries):
        violations = check_cluster_summary(summary)
        if violations:
            raise ValidationError(f"{context}: summary {index}", violations)


def check_cost_model(doc: dict) -> list[str]:
    """Every violated invariant in one service-cost-model document.

    The calibration analogue of :func:`check_cluster_summary`: a cost
    model entering or leaving persistence must cover exactly the known
    op classes, carry positive quantile-monotone latency tables, and —
    for measured models — stay within the physical bound its own
    provenance implies (no per-request quantile can exceed the whole
    replayed window's wall-clock at the stated blade frequency).
    """
    # Imported here: the cluster package imports this module's
    # ValidationError at call time, so a top-level import would cycle.
    from repro.cluster.costs import OP_CLASSES, QUANTILE_POINTS

    violations: list[str] = []
    if not isinstance(doc, dict):
        return [f"cost model is not an object: {doc!r}"]
    source = doc.get("source")
    if source not in ("static", "measured"):
        violations.append(
            f"source must be 'static' or 'measured': {source!r}")
    ops = doc.get("ops")
    if not isinstance(ops, dict):
        return violations + [f"ops is not an object: {ops!r}"]
    if tuple(sorted(ops)) != tuple(sorted(OP_CLASSES)):
        violations.append(
            f"ops must cover exactly {', '.join(OP_CLASSES)}; "
            f"got {', '.join(sorted(ops))}")
        return violations
    blade_mhz = doc.get("blade_mhz")
    if source == "measured":
        if not isinstance(blade_mhz, (int, float)) \
                or isinstance(blade_mhz, bool) or not blade_mhz > 0:
            violations.append(
                f"measured model needs a positive blade_mhz: {blade_mhz!r}")
        if not doc.get("uarch"):
            violations.append("measured model needs its uarch digest")
    provenance = doc.get("provenance") or {}
    for op in OP_CLASSES:
        table = ops[op]
        if not isinstance(table, dict):
            violations.append(f"{op}: table is not an object: {table!r}")
            continue
        values = []
        for name, _rank in QUANTILE_POINTS:
            value = table.get(name)
            if not isinstance(value, int) or isinstance(value, bool):
                violations.append(f"{op}.{name} is not an integer: {value!r}")
            elif value <= 0:
                violations.append(f"{op}.{name} must be positive ({value})")
            else:
                values.append(value)
        if len(values) != len(QUANTILE_POINTS):
            continue
        if values != sorted(values):
            violations.append(
                f"{op}: quantiles out of order "
                + ", ".join(f"{name} {table[name]}"
                            for name, _rank in QUANTILE_POINTS))
            continue
        measured_op = provenance.get(op)
        if source == "measured" and isinstance(measured_op, dict) \
                and isinstance(blade_mhz, (int, float)) and blade_mhz > 0:
            cycles = measured_op.get("cycles")
            if isinstance(cycles, int) and not isinstance(cycles, bool) \
                    and cycles > 0:
                # Tables are ns: cycles / MHz = µs, ×1000 = ns, +1 slack
                # for the rounding the quantile reduction applies.
                bound = int(-(-(cycles * 1000) // blade_mhz)) + 1
                if values[-1] > bound:
                    violations.append(
                        f"{op}.p95 ({values[-1]} ns) exceeds the replayed "
                        f"window's wall-clock bound ({bound} ns from "
                        f"{cycles} cycles at {blade_mhz} MHz)")
    return violations


def validate_cost_model(doc: dict, context: str = "cost model") -> None:
    """Raise :class:`ValidationError` if a cost model is implausible."""
    violations = check_cost_model(doc)
    if violations:
        raise ValidationError(context, violations)


#: The fields of one Figure 8 row (see ``figure8_faults._measure_cell``).
_FAULT_ROW_FIELDS = ("ipc", "l1i_mpki", "l2i_mpki", "code_kb", "goodput",
                     "retry_rate", "p99", "faults_fired")


def check_fault_row(row: dict) -> list[str]:
    """Every violated invariant in one Figure 8 (workload, mode) row:
    every field is a finite number, IPC is positive, goodput lies in
    [0, 1], and p99 and the fired-fault count are non-negative ints."""
    if not isinstance(row, dict):
        return [f"row is not an object: {row!r}"]
    violations = [f"{key} is not a finite number: {row.get(key)!r}"
                  for key in _FAULT_ROW_FIELDS
                  if isinstance(row.get(key), bool)
                  or not isinstance(row.get(key), (int, float))
                  or not math.isfinite(row[key])]
    if violations:
        return violations  # the comparisons below assume numbers
    if row["ipc"] <= 0:
        violations.append(f"ipc must be positive ({row['ipc']})")
    if not 0.0 <= row["goodput"] <= 1.0:
        violations.append(f"goodput must be in [0, 1]: {row['goodput']}")
    violations.extend(f"{key} must be a non-negative integer: {row[key]!r}"
                      for key in ("p99", "faults_fired")
                      if not isinstance(row[key], int) or row[key] < 0)
    return violations


def validate_fault_rows(rows: Sequence[dict],
                        context: str = "faults") -> None:
    """Raise :class:`ValidationError` on any implausible Figure 8 row."""
    for index, row in enumerate(rows):
        violations = check_fault_row(row)
        if violations:
            raise ValidationError(f"{context}: row {index}", violations)
