"""Health-checked load balancing: outlier ejection and readmission.

The balancer tracks a sliding window of per-node outcomes (success,
timeout, refusal).  A node whose recent failure rate crosses the
ejection threshold is removed from routing for a cooldown; after the
cooldown it enters *half-open* state, where the next health probe (or
first routed request) is the trial — one success readmits it, one
failure re-ejects it.  This is the standard envoy/finagle outlier
pattern, here made deterministic: no wall clock, no randomized
cooldowns, every decision a pure function of the simulated-time event
sequence.
"""

from __future__ import annotations

from collections import deque

#: Outcomes required in the window before ejection can trigger —
#: protects a node from being ejected on one unlucky request.
MIN_SAMPLES = 8

#: Recent failure rate above which a node is ejected.
EJECT_THRESHOLD = 0.5


class LoadBalancer:
    """Routes requests to healthy replicas, ejecting outliers."""

    def __init__(self, node_ids: list[int], window: int = 20,
                 cooldown_us: int = 50_000) -> None:
        if window < MIN_SAMPLES:
            raise ValueError(f"window must hold at least {MIN_SAMPLES} samples")
        if cooldown_us < 1:
            raise ValueError("cooldown_us must be positive")
        self.cooldown_us = cooldown_us
        self._windows: dict[int, deque[bool]] = {
            node_id: deque(maxlen=window) for node_id in node_ids}
        #: node id -> simulated time its ejection cooldown expires.
        self._ejected_until: dict[int, int] = {}
        self.ejections = 0
        self.readmissions = 0

    # -- outcome feed ------------------------------------------------------
    def record(self, node_id: int, now: int, ok: bool) -> None:
        """Feed one request/probe outcome for ``node_id`` at ``now``."""
        window = self._windows[node_id]
        if node_id in self._ejected_until:
            if now < self._ejected_until[node_id]:
                return  # still cooling down; outcome is from an old attempt
            # Half-open: this outcome is the trial.
            if ok:
                del self._ejected_until[node_id]
                window.clear()
                window.append(True)
                self.readmissions += 1
            else:
                self._ejected_until[node_id] = now + self.cooldown_us
                self.ejections += 1
            return
        window.append(ok)
        if len(window) >= MIN_SAMPLES:
            failures = sum(1 for outcome in window if not outcome)
            if failures / len(window) > EJECT_THRESHOLD:
                self._ejected_until[node_id] = now + self.cooldown_us
                self.ejections += 1

    # -- routing -----------------------------------------------------------
    def healthy(self, node_id: int, now: int) -> bool:
        """Is ``node_id`` currently routable (not ejected or half-open)?"""
        return node_id not in self._ejected_until \
            or now >= self._ejected_until[node_id]

    def half_open(self, node_id: int, now: int) -> bool:
        """Is ``node_id`` past its cooldown, awaiting a trial outcome?"""
        return node_id in self._ejected_until \
            and now >= self._ejected_until[node_id]

    def order(self, candidates: list[int], now: int) -> list[int]:
        """Routing order: healthy replicas first (preference-list order
        preserved), ejected ones last as a quorum-of-last-resort.  With
        no node ejected or half-open that is ``candidates`` as given."""
        if not self._ejected_until:
            return candidates
        ranked = sorted(
            range(len(candidates)),
            key=lambda i: (0 if self.healthy(candidates[i], now) else 1, i))
        return [candidates[i] for i in ranked]

    def ejected_now(self, now: int) -> list[int]:
        """Node ids currently out of rotation, ascending."""
        return sorted(node_id for node_id, until in self._ejected_until.items()
                      if now < until)
