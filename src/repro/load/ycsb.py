"""YCSB client (§3.2 Data Serving setup).

"Server load is generated using the YCSB 0.1.3 client that sends
requests following a Zipfian distribution with a 95:5 read to write
request ratio."  The client draws keys from a scrambled Zipfian over the
loaded keyspace and emits read/update operations in that ratio.

Resilience: like the real YCSB client library, the generator carries a
per-operation :class:`~repro.faults.retry.RetryPolicy` (timeouts,
capped exponential backoff with jitter, hedged retries past the tail
threshold) and accumulates the client-visible outcome of every request
in a :class:`~repro.faults.metrics.ServiceMetrics` — goodput, retry
rate, and simulated latency percentiles.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.faults.metrics import ServiceMetrics
from repro.faults.retry import RetryPolicy
from repro.load.distributions import ScrambledZipf


@dataclass(frozen=True)
class YcsbOp:
    """One generated operation: a read or an update of ``key``."""

    kind: str  # 'read' or 'update'
    key: int


class YcsbClient:
    """Closed-loop YCSB workload generator."""

    def __init__(
        self,
        record_count: int,
        read_fraction: float = 0.95,
        theta: float = 0.99,
        seed: int = 0,
        retry: RetryPolicy | None = None,
        metrics: ServiceMetrics | None = None,
    ) -> None:
        if not 0.0 <= read_fraction <= 1.0:
            raise ValueError("read_fraction must be in [0, 1]")
        self.record_count = record_count
        self.read_fraction = read_fraction
        self._keys = ScrambledZipf(record_count, theta, seed)
        self._rng = random.Random(seed ^ 0x5EED)
        self.reads_issued = 0
        self.updates_issued = 0
        self.retry = retry if retry is not None else RetryPolicy()
        self.metrics = metrics if metrics is not None else ServiceMetrics()

    def hot_keys(self, count: int) -> list[int]:
        """The keys of the ``count`` most popular Zipf ranks (the hot set
        a long steady-state run leaves resident in the LLC)."""
        return ScrambledZipf.scramble_ranks(min(count, self.record_count),
                                            self.record_count)

    def next_op(self) -> YcsbOp:
        """Draw the next operation: a scrambled-Zipfian key and a kind
        honouring the configured read:write ratio."""
        key = self._keys.next()
        if self._rng.random() < self.read_fraction:
            self.reads_issued += 1
            return YcsbOp("read", key)
        self.updates_issued += 1
        return YcsbOp("update", key)

    def observe(self, latency: int, ok: bool = True, retries: int = 0,
                dropped: bool = False) -> None:
        """Record one completed operation's client-visible outcome.

        Timeout and hedging classification come from the client's
        retry policy: a service time past ``hedge_after`` would have
        triggered a hedged duplicate, one past ``timeout`` counts as a
        client-observed timeout.
        """
        self.metrics.observe(
            latency,
            ok=ok,
            retries=retries,
            hedged=latency > self.retry.hedge_after,
            timed_out=latency > self.retry.timeout,
            dropped=dropped,
        )
