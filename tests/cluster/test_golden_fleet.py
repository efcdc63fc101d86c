"""Golden fleet summaries: the event loop's output, frozen byte-for-byte.

``golden_fleet.json`` holds the full :func:`simulate` summary —
``per_node`` and ``events_fired`` included — for small cells that
together span every fleet size and replication factor Figure 9 uses
(plus the extremes), uniform and Zipf keys, all four fleet fault plans,
Poisson, diurnal and bursty arrivals, a non-default ``vnodes``, static
costs of both fleet workloads, a hand-built measured model whose
quantiles are all distinct (so every interpolation segment is sampled),
and per-node :class:`~repro.faults.plan.FaultPlan`\\ s whose request-drop
and service-inflation windows fire (``node_plan`` is the only route into
``Node.admit``'s fault branch; no figure sets it).  Any change that
moves a draw, an event or a counter fails here; a deliberate one
regenerates the fixture with::

    PYTHONPATH=src python -m tests.cluster.test_golden_fleet

and says why in the commit.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import replace

import pytest

from repro.cluster.costs import OP_CLASSES, OpCost, ServiceCostModel
from repro.cluster.faults import ClusterFaultEvent, ClusterFaultPlan
from repro.cluster.service import ClusterConfig, simulate
from repro.faults.plan import FaultPlan

FIXTURE = pathlib.Path(__file__).with_name("golden_fleet.json")

#: Quantiles in ns, all distinct per op (read/update near data-serving's
#: static 420/660 µs).
MEASURED = ServiceCostModel(
    workload="data-serving", source="measured", uarch="0" * 64,
    blade_mhz=2930.0,
    ops=tuple(zip(OP_CLASSES, (
        OpCost(p25=310_000, p50=405_000, p75=530_000, p95=960_000),
        OpCost(p25=480_000, p50=650_000, p75=820_000, p95=1_450_000),
        OpCost(p25=110_000, p50=145_000, p75=190_000, p95=320_000),
        OpCost(p25=190_000, p50=255_000, p75=335_000, p95=510_000),
        OpCost(p25=30_000, p50=41_000, p75=52_000, p95=85_000),
    ))))

BASE = ClusterConfig(requests=360, keyspace=96, read_fraction=0.6, seed=5)


def _plan(kind: str, config: ClusterConfig) -> ClusterFaultPlan:
    """``kind`` timed like Figure 9's: opening a quarter of the way into
    the load and healing before it ends."""
    load_us = config.requests * config.mean_gap_us
    at_us, duration_us = load_us // 4, load_us // 3
    if kind == "none":
        return ClusterFaultPlan.none()
    if kind == "node-crash":
        return ClusterFaultPlan.node_crash(at_us=at_us,
                                           duration_us=duration_us)
    if kind == "slow-node":
        return ClusterFaultPlan.slow_node(at_us=at_us,
                                          duration_us=duration_us)
    return ClusterFaultPlan(name="partition", events=(
        ClusterFaultEvent("partition", target=0, at_us=at_us,
                          duration_us=load_us // 4),))


def _cell(fleet: int, replication: int, fault: str = "none",
          **overrides) -> ClusterConfig:
    config = replace(BASE, fleet=fleet, replication=replication, **overrides)
    return replace(config, fault_plan=_plan(fault, config))


ZIPF = 0.99
#: Recurring drop and inflation windows on every node's request clock.
DEGRADED = FaultPlan.degraded(seed=3)
#: One-shot windows of every kind, drawn from a seed.
SCATTERED = FaultPlan.generate(seed=9, horizon=150, events_per_kind=2)

CELLS: dict[str, ClusterConfig] = {
    "f1-r1-uniform-none": _cell(1, 1),
    "f1-r1-uniform-nodeplan": _cell(1, 1, node_plan=DEGRADED),
    "f2-r1-zipf-node-crash": _cell(2, 1, "node-crash", theta=ZIPF),
    "f2-r2-uniform-slow-node": _cell(2, 2, "slow-node", read_fraction=0.95),
    "f2-r2-zipf-partition": _cell(2, 2, "partition", theta=ZIPF),
    "f3-r3-uniform-partition": _cell(3, 3, "partition"),
    "f3-r2-zipf-node-crash": _cell(3, 2, "node-crash", theta=ZIPF),
    "f3-r3-uniform-node-crash": _cell(3, 3, "node-crash", keyspace=32),
    "f4-r2-uniform-none": _cell(4, 2, read_fraction=0.95),
    "f4-r2-zipf-slow-node": _cell(4, 2, "slow-node", theta=ZIPF),
    "f4-r2-uniform-node-crash": _cell(4, 2, "node-crash", keyspace=48),
    "f4-r3-zipf-partition": _cell(4, 3, "partition", theta=ZIPF),
    "f8-r2-uniform-node-crash": _cell(8, 2, "node-crash"),
    "f8-r3-zipf-slow-node": _cell(8, 3, "slow-node", theta=ZIPF,
                                  mean_gap_us=60),
    "f4-r2-diurnal-node-crash": _cell(4, 2, "node-crash",
                                      arrival="diurnal"),
    "f4-r2-bursty-slow-node": _cell(4, 2, "slow-node", arrival="bursty"),
    "f4-r2-vnodes5-partition": _cell(4, 2, "partition", vnodes=5),
    "f4-r2-measured-none": _cell(4, 2, costs="measured",
                                 cost_model=MEASURED),
    "f2-r2-measured-zipf-node-crash": _cell(2, 2, "node-crash", theta=ZIPF,
                                            costs="measured",
                                            cost_model=MEASURED),
    "f4-r2-measured-slow-node": _cell(4, 2, "slow-node", costs="measured",
                                      cost_model=MEASURED),
    "f4-r2-nodeplan-zipf-node-crash": _cell(4, 2, "node-crash", theta=ZIPF,
                                            node_plan=DEGRADED),
    "f8-r3-nodeplan-partition": _cell(8, 3, "partition",
                                      node_plan=SCATTERED),
    "web-search-f4-r2-uniform-none": _cell(4, 2, workload="web-search"),
}

#: Summary counters the fixture as a whole must exercise.
EXERCISED = ("retries", "hedges", "drops", "timeouts", "ejections",
             "readmissions", "hints_stored", "hints_replayed",
             "read_repairs")


def measure(name: str) -> dict:
    return simulate(CELLS[name])


def _canonical(record: dict) -> str:
    return json.dumps(record, sort_keys=True)


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("name", sorted(CELLS))
def test_golden_fleet(name, golden):
    assert _canonical(measure(name)) == _canonical(golden[name])


def test_fixture_covers_exactly_the_cells(golden):
    assert sorted(golden) == sorted(CELLS)


@pytest.mark.parametrize("counter", EXERCISED)
def test_fixture_exercises_every_resilience_path(counter, golden):
    assert sum(summary[counter] for summary in golden.values()) > 0


def test_node_plans_drop_and_inflate(golden):
    for name, config in CELLS.items():
        if config.node_plan is None:
            continue
        per_node = golden[name]["per_node"]
        assert sum(node["dropped"] for node in per_node) > 0, name
        # A node's request clock counts every admit, served or dropped.
        seen = max(node["served"] + node["dropped"] for node in per_node)
        assert any(event.kind != "request-drop"
                   for index in range(1, seen + 1)
                   for event in config.node_plan.active_at(index)), name


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps({name: measure(name) for name in CELLS},
                                  indent=1, sort_keys=True) + "\n")
