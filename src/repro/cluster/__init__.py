"""The fault-tolerant simulated fleet (figure 9).

The paper measures one scale-out blade; this package models the *fleet*
those blades form in production: consistent-hash sharding with R-way
replication and hinted handoff, a health-checked load balancer with
outlier ejection, timeout/backoff/hedging clients, and open-loop
arrivals recorded coordinated-omission-safe — all on a deterministic
simulated-microsecond event loop (never the wall clock; the
``cluster-clock`` lint rule enforces it).

Per-op service costs come from a :class:`ServiceCostModel`: measured
quantile tables calibrated from microarchitectural replay
(:mod:`repro.cluster.calibrate`), or the apps' hand-written tables as
the explicitly-labeled ``--costs=static`` fallback (the
``service-costs`` lint rule confines those literals to their owners).
"""

from repro.cluster.balancer import LoadBalancer
from repro.cluster.backend import ReplicaBackend, build_backend
from repro.cluster.calibrate import (CalibrationConfig, FLEET_WORKLOADS,
                                     calibrate, calibration_fingerprint,
                                     static_model, uarch_digest)
from repro.cluster.clock import Event, EventLoop
from repro.cluster.costs import (COST_MODEL_SCHEMA, OP_CLASSES, OpCost,
                                 ServiceCostModel)
from repro.cluster.faults import (CLUSTER_FAULT_KINDS, CLUSTER_FAULT_PLANS,
                                  ClusterFaultEvent, ClusterFaultPlan)
from repro.cluster.node import Node, NodeCounters
from repro.cluster.recorder import LatencyRecorder
from repro.cluster.ring import HashRing
from repro.cluster.service import (ClusterConfig, ClusterService,
                                   default_cluster_policy, simulate)
from repro.cluster.sweep import ClusterCell

__all__ = [
    "CLUSTER_FAULT_KINDS",
    "CLUSTER_FAULT_PLANS",
    "COST_MODEL_SCHEMA",
    "CalibrationConfig",
    "ClusterCell",
    "ClusterConfig",
    "ClusterFaultEvent",
    "ClusterFaultPlan",
    "ClusterService",
    "Event",
    "EventLoop",
    "FLEET_WORKLOADS",
    "HashRing",
    "LatencyRecorder",
    "LoadBalancer",
    "Node",
    "NodeCounters",
    "OP_CLASSES",
    "OpCost",
    "ReplicaBackend",
    "ServiceCostModel",
    "build_backend",
    "calibrate",
    "calibration_fingerprint",
    "default_cluster_policy",
    "simulate",
    "static_model",
    "uarch_digest",
]
