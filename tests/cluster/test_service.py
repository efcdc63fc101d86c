"""Fleet invariants: determinism, durability, hedging, readmission.

These are the promises figure 9 rests on: the same seed replays the
same fleet byte for byte; killing fewer than R replicas never loses an
acknowledged write; a hedged request is still *one* request in the
books; an ejected node comes back once it recovers; and no recorded
latency escapes the policy's structural bound.
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.cluster.calibrate import static_model
from repro.cluster.faults import (CLUSTER_FAULT_PLANS, ClusterFaultEvent,
                                  ClusterFaultPlan)
from repro.cluster.service import (ClusterConfig, default_cluster_policy,
                                   load_schedule, simulate)
from repro.faults.plan import FaultPlan

#: Small but busy: enough writes per key for hints and repairs to occur.
BASE = ClusterConfig(fleet=4, replication=2, requests=800, keyspace=64,
                     read_fraction=0.5, seed=11)

#: Crash that heals mid-load, so readmission happens while requests flow.
SHORT_CRASH = ClusterFaultPlan.node_crash(at_us=20_000, duration_us=15_000)


def test_same_seed_is_byte_identical():
    plan = ClusterFaultPlan.node_crash()
    config = replace(BASE, fault_plan=plan)
    first = json.dumps(simulate(config), sort_keys=True)
    load_schedule.cache_clear()  # the second run builds its own load
    second = json.dumps(simulate(config), sort_keys=True)
    assert first == second


def test_different_seeds_differ():
    first = simulate(BASE)
    second = simulate(replace(BASE, seed=12))
    assert first != second


@pytest.mark.parametrize("field, value", [
    ("arrival", "bursty"), ("mean_gap_us", 151), ("keyspace", 65),
    ("theta", 0.99), ("seed", 12), ("requests", 801)])
def test_each_load_field_changes_the_schedule(field, value):
    changed = replace(BASE, **{field: value})
    schedule = changed.load()
    assert schedule != BASE.load()
    load_schedule.cache_clear()
    assert changed.load() == schedule  # the cache served a fresh build


def test_fleet_fields_share_one_schedule():
    measured = replace(static_model("data-serving"), source="measured",
                       uarch="0" * 64, blade_mhz=2930.0)
    variants = [
        replace(BASE, fleet=8), replace(BASE, replication=1),
        replace(BASE, vnodes=5), replace(BASE, fault_plan=SHORT_CRASH),
        replace(BASE, node_plan=FaultPlan.degraded(seed=3)),
        replace(BASE, costs="measured", cost_model=measured),
        replace(BASE, policy=replace(default_cluster_policy(),
                                     max_retries=1)),
        replace(BASE, read_fraction=0.95), replace(BASE, network_us=80),
        replace(BASE, workers_per_node=2),
        replace(BASE, probe_interval_us=5_000),
    ]
    assert all(variant.load() is BASE.load() for variant in variants)


def test_killing_fewer_than_r_replicas_loses_no_acked_write():
    config = replace(BASE, fault_plan=SHORT_CRASH)
    summary = simulate(config)
    assert summary["acked_writes"] > 0
    assert summary["acked_lost"] == 0
    assert summary["hints_stored"] > 0  # substitutes covered the owner


def test_partitioning_a_whole_shard_loses_no_acked_write():
    plan = ClusterFaultPlan(name="partition", events=(
        ClusterFaultEvent("partition", target=0, at_us=20_000,
                          duration_us=30_000),))
    summary = simulate(replace(BASE, fault_plan=plan))
    assert summary["acked_writes"] > 0
    assert summary["acked_lost"] == 0
    # The isolated shard's keys go unserved while it lasts.
    assert summary["goodput"] < 1.0


def test_hedged_requests_are_counted_once():
    plan = ClusterFaultPlan.slow_node(at_us=20_000, duration_us=60_000)
    config = replace(BASE, read_fraction=0.95, fault_plan=plan)
    summary = simulate(config)
    assert summary["hedges"] > 0
    # One observation per request, hedged or not: the books balance.
    assert summary["requests"] == config.requests
    assert summary["successes"] + summary["failures"] == config.requests
    assert summary["hedges"] <= summary["requests"]


def test_ejected_node_is_readmitted_after_recovery():
    config = replace(BASE, requests=1_200, fault_plan=SHORT_CRASH)
    summary = simulate(config)
    assert summary["ejections"] >= 1
    assert summary["readmissions"] >= 1
    assert summary["hints_replayed"] >= 1  # recovery caught it up


@pytest.mark.parametrize("plan_name", sorted(CLUSTER_FAULT_PLANS))
def test_every_latency_within_structural_bound(plan_name):
    config = replace(BASE, requests=400,
                     fault_plan=CLUSTER_FAULT_PLANS[plan_name]())
    summary = simulate(config)
    assert summary["requests"] == 400
    assert 0 <= summary["p50"] <= summary["p99"] <= summary["p999"] \
        <= summary["max"] <= summary["latency_bound"]


def test_zipf_skew_concentrates_load():
    uniform = simulate(replace(BASE, fleet=8, requests=600, theta=0.0))
    skewed = simulate(replace(BASE, fleet=8, requests=600, theta=0.99))
    assert skewed["hot_node_share"] > uniform["hot_node_share"]


def test_healthy_fleet_is_quiet():
    summary = simulate(BASE)
    assert summary["goodput"] == 1.0
    assert summary["acked_lost"] == 0
    assert summary["ejections"] == 0
    assert summary["timeouts"] == 0


def test_config_validation():
    with pytest.raises(ValueError, match="replication"):
        ClusterConfig(fleet=2, replication=3)
    with pytest.raises(ValueError, match="read_fraction"):
        ClusterConfig(read_fraction=1.5)
    with pytest.raises(ValueError, match="theta"):
        ClusterConfig(theta=1.0)
    with pytest.raises(ValueError, match="timeout"):
        ClusterConfig(policy=replace(default_cluster_policy(),
                                     timeout=None))
    with pytest.raises(ValueError, match="fleet"):
        ClusterConfig(fleet=0)
    with pytest.raises(ValueError, match="arrival"):
        ClusterConfig(arrival="meteor")
    with pytest.raises(ValueError, match="mean_gap_us"):
        ClusterConfig(mean_gap_us=0)
    with pytest.raises(ValueError, match="keyspace"):
        ClusterConfig(keyspace=0)
