"""Fleet cells on the one sweep engine (:mod:`repro.core.sweep`):
crash-isolated parallel workers, per-cell deadlines and retries,
resumable checkpoints, validated payloads, and cell-order merging so
``--jobs N`` is byte-identical to a serial run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cluster.service import ClusterConfig, simulate
from repro.core.sweep import SweepEngine, config_fingerprint
from repro.core.validate import validate_cluster_summaries


@dataclass(frozen=True)
class ClusterCell:
    """One declarative fleet measurement (kind is always ``cluster``);
    its payload is ``[summary]``, already JSON-shaped."""

    name: str
    config: ClusterConfig
    kind: str = field(default="cluster", init=False)

    def fingerprint(self) -> str:
        return config_fingerprint(self.kind, self.name, self.config)

    def execute(self, use_cache: bool = True) -> list[dict]:
        return [simulate(self.config)]  # fleet cells have no in-process LRU

    def decode(self, payload: list) -> list[dict]:
        if not isinstance(payload, list):
            raise TypeError(f"payload is not a list: {payload!r}")
        return payload

    def validate(self, summaries: list[dict], context: str) -> None:
        validate_cluster_summaries(summaries, context=context)

    def load(self, store, fingerprint: str) -> list[dict] | None:
        return store.get_cluster(fingerprint)

    def save(self, store, fingerprint: str, summaries: list[dict]) -> None:
        store.put_cluster(fingerprint, summaries, validate=False)


class ClusterSweepEngine(SweepEngine):
    """The fleet engine's old name; any :class:`SweepEngine` runs fleet
    cells.  ``run`` is bound here, not inherited: ``bench/tracing.py``
    wraps ``SweepEngine.run`` and ``ClusterSweepEngine.run`` as two
    sites, and an inherited ``run`` would be wrapped twice."""

    run = SweepEngine.run
