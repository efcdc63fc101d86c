"""Per-node application replicas the fleet layer hosts.

A backend is the *state machine* side of an app instance: it holds the
replica's durable contents (what survives a process crash, as a real
commit log would provide) and prices each request class in simulated
microseconds.  Prices come from a
:class:`~repro.cluster.costs.ServiceCostModel` — either the measured
tables :mod:`repro.cluster.calibrate` derives from microarchitectural
replay, or the apps' hand-written static tables as an explicitly
labeled fallback — so the fleet model and the uarch model describe the
same software *at the same speed*.  :meth:`ReplicaBackend.cost` turns
each request into a deterministic draw from the model's quantile
table, seeded via ``stable_hash`` so serial and ``--jobs N`` runs see
identical service times.

The versioned write state is what makes the fleet's headline invariant
*checkable* rather than asserted: every quorum-acknowledged write must
still be readable from some replica (or hint log) after the fault plan
has done its worst.
"""

from __future__ import annotations

import random

from repro.cluster.costs import (NS_PER_US, OP_CLASSES, ServiceCostModel,
                                 unknown_op_error)
from repro.machine.hashing import stable_hash

__all__ = ["ReplicaBackend", "build_backend"]


class ReplicaBackend:
    """A versioned key-value replica pricing ops from a cost model."""

    def __init__(self, model: ServiceCostModel, node_id: int = 0,
                 seed: int = 0) -> None:
        self.model = model
        # The cost stream gets its own generator, distinct from the
        # node's jitter stream: a static (degenerate-quantile) model
        # must reproduce the historical constant costs without
        # perturbing any other draw sequence in the simulation.
        self._rng = random.Random(
            stable_hash(("backend", node_id, seed, model.source)))
        self._costs = model.cost_table()
        #: key -> highest applied write version (durable).
        self.versions: dict[int, int] = {}
        #: intended-owner node id -> [(key, version), ...] hinted writes
        #: held for a replica that was down when the write arrived.
        self.hints: dict[int, list[tuple[int, int]]] = {}
        #: key -> every hinted version held for it, across owners; kept
        #: in lockstep with ``hints`` so the read-repair digest check is
        #: one dict probe instead of a scan of every owner's hint list.
        self._hints_by_key: dict[int, list[int]] = {}

    def cost(self, op: str) -> int:
        """The uncontended service cost of one ``op``, in microseconds.

        A deterministic sample from the model's per-op quantile table
        (a static model degenerates to the old constant).  Unknown ops
        are a validation error naming the known classes.

        The model samples in nanoseconds; the event loop runs on
        integer microseconds, so the draw is floored to 1µs — the loop
        tick — on the way out.  Static tables (µs times 1000) convert
        back exactly.
        """
        table = self._costs.get(op)
        if table is None:
            raise unknown_op_error(op, OP_CLASSES)
        sampled_ns = table.sample(self._rng.random())
        return max(1, int(round(sampled_ns / NS_PER_US)))

    # -- replica state -----------------------------------------------------
    def apply(self, key: int, version: int) -> None:
        """Apply one write (idempotent; newest version wins)."""
        if version > self.versions.get(key, 0):
            self.versions[key] = version

    def version_of(self, key: int) -> int:
        """The replica's applied version for ``key`` (0 = never seen)."""
        return self.versions.get(key, 0)

    def store_hint(self, owner: int, key: int, version: int) -> None:
        """Durably queue a write intended for the down node ``owner``."""
        self.hints.setdefault(owner, []).append((key, version))
        self._hints_by_key.setdefault(key, []).append(version)

    def take_hints(self, owner: int) -> list[tuple[int, int]]:
        """Remove and return every hint held for ``owner``."""
        taken = self.hints.pop(owner, [])
        for key, version in taken:
            held = self._hints_by_key[key]
            held.remove(version)
            if not held:
                del self._hints_by_key[key]
        return taken

    def hinted_version_of(self, key: int) -> int:
        """The highest version held for ``key`` in this hint log."""
        return max(self._hints_by_key.get(key, ()), default=0)


def build_backend(workload: str, model: ServiceCostModel | None = None,
                  node_id: int = 0, seed: int = 0) -> ReplicaBackend:
    """A replica backend for one of the fleet-capable workloads.

    Without an explicit ``model`` this falls back to the workload's
    static hand-written cost table (labeled as such in the model's
    provenance); pass a measured model from
    :func:`repro.cluster.calibrate.calibrate` to price requests from
    uarch replay instead.
    """
    if model is None:
        from repro.cluster.calibrate import static_model

        model = static_model(workload)
    elif model.workload != workload:
        raise ValueError(
            f"cost model was calibrated for {model.workload!r}, "
            f"not {workload!r}")
    return ReplicaBackend(model, node_id=node_id, seed=seed)
