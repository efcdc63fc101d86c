"""One simulated fleet member: queueing, degraded modes, counters.

A :class:`Node` wraps a replica backend with the *server* concerns the
paper's single-blade model never needed: a bounded worker pool whose
queueing delay is where tail latency is born, a per-node
:class:`~repro.faults.plan.FaultPlan` interpreted on the node's own
request clock (the same plans PR 1 introduced for single-node degraded
modes), and liveness/reachability state driven by the cluster fault
plan (crash, slow node, partition).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.cluster.backend import ReplicaBackend
from repro.faults.plan import FaultPlan
from repro.machine.hashing import stable_hash

#: Service-time inflation per active per-node fault kind, scaled by the
#: event's severity.  ``request-drop`` is handled separately (the
#: request gets no response at all).
_INFLATION = {
    "replica-crash": 1.0,     # failure detection + handoff bookkeeping
    "straggler": 2.0,         # the slow-path request itself
    "gc-storm": 1.5,          # stop-the-world pause amortized per request
    "memory-pressure": 0.5,   # re-faulting the working set
}


@dataclass
class NodeCounters:
    """Service-level per-node counters (the fleet figure's profile)."""

    served: int = 0
    reads: int = 0
    writes: int = 0
    dropped: int = 0
    hints_stored: int = 0
    hints_replayed: int = 0
    read_repairs: int = 0
    probes: int = 0
    busy_us: int = 0
    queue_peak: int = 0

    def summary(self) -> dict[str, int]:
        return {
            "served": self.served,
            "reads": self.reads,
            "writes": self.writes,
            "dropped": self.dropped,
            "hints_stored": self.hints_stored,
            "hints_replayed": self.hints_replayed,
            "read_repairs": self.read_repairs,
            "probes": self.probes,
            "busy_us": self.busy_us,
            "queue_peak": self.queue_peak,
        }


class Node:
    """A fleet member hosting one replica backend."""

    def __init__(self, node_id: int, backend: ReplicaBackend,
                 workers: int = 4, seed: int = 0,
                 plan: FaultPlan | None = None) -> None:
        if workers < 1:
            raise ValueError("workers must be positive")
        self.node_id = node_id
        self.backend = backend
        self.plan = plan if plan is not None and not plan.is_empty() else None
        self.counters = NodeCounters()
        self.up = True
        self.reachable = True
        self.slow_until = 0
        self.slow_factor = 1.0
        self._slots = [0] * workers
        self._rng = random.Random(stable_hash(("node", node_id, seed)))
        self._requests_seen = 0

    # -- cluster fault-plan hooks ------------------------------------------
    def crash(self) -> None:
        """The process dies: unreachable until :meth:`recover`; durable
        backend state (commit log) survives, in-flight work is lost."""
        self.up = False

    def recover(self) -> None:
        self.up = True

    def partition(self, isolated: bool) -> None:
        """(Un)isolate the node from the cluster network."""
        self.reachable = not isolated

    def slow(self, until: int, factor: float) -> None:
        """Inflate every service time by ``factor`` until ``until``."""
        self.slow_until = until
        self.slow_factor = max(1.0, factor)

    def available(self) -> bool:
        return self.up and self.reachable

    # -- request service ---------------------------------------------------
    def admit(self, now: int, op: str) -> int | None:
        """Accept one request at ``now``; returns its completion time.

        The node runs a bounded worker pool: the request waits for the
        earliest-free slot, then executes for its (fault- and
        load-independent) service time — a deterministic draw from the
        backend's per-op cost model (a quantile table under
        ``--costs=measured``, the historical constant under static),
        scaled by fault inflation and node jitter.  Returns ``None``
        when a ``request-drop`` fault window swallows the request — the
        caller sees silence and must time out.
        """
        self._requests_seen += 1
        inflation = 1.0
        active = self.plan.active_at(self._requests_seen) if self.plan else ()
        for event in active:
            if event.kind == "request-drop":
                self.counters.dropped += 1
                return None
            inflation += _INFLATION[event.kind] * event.severity
        if now < self.slow_until:
            inflation *= self.slow_factor
        base = self.backend.cost(op)
        jitter = 1.0 + 0.25 * self._rng.random()
        service = max(1, int(base * inflation * jitter))
        slots = self._slots
        slot = slots.index(min(slots))
        start = max(now, slots[slot])
        finish = start + service
        slots[slot] = finish
        queued = sum(1 for busy_until in slots if busy_until > now)
        self.counters.queue_peak = max(self.counters.queue_peak, queued)
        self.counters.busy_us += service
        self.counters.served += 1
        if op == "read":
            self.counters.reads += 1
        elif op == "update":
            self.counters.writes += 1
        return finish
