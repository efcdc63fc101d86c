"""Request-popularity distributions and open-loop arrival processes.

YCSB's Zipfian generator (Gray et al.'s algorithm, as used by the real
YCSB) with the standard 0.99 skew constant, plus a scrambled variant
that spreads the popular items across the keyspace — matching how YCSB
hashes item ranks so that hot keys are not physically adjacent.

The arrival processes generate *inter-arrival gaps* for open-loop load
(requests arrive on the generator's schedule whether or not the server
has answered — the precondition for coordinated-omission-safe latency
measurement).  Gaps are integer simulated microseconds, a function only
of the seed and the sequence of ``next_gap(now_us)`` calls.
"""

from __future__ import annotations

import math
import random


class UniformGenerator:
    """Uniform over [0, n)."""

    def __init__(self, n: int, seed: int = 0) -> None:
        if n <= 0:
            raise ValueError("n must be positive")
        self.n = n
        self._rng = random.Random(seed)

    def next(self) -> int:
        return self._rng.randrange(self.n)


class ZipfGenerator:
    """Zipfian over [0, n) with P(rank k) proportional to 1/(k+1)^theta.

    Implements the rejection-free inverse method of Gray et al. (the
    algorithm YCSB itself uses), so draws are O(1).
    """

    def __init__(self, n: int, theta: float = 0.99, seed: int = 0) -> None:
        if n <= 0:
            raise ValueError("n must be positive")
        if not 0 < theta < 1:
            raise ValueError("theta must be in (0, 1)")
        self.n = n
        self.theta = theta
        self._rng = random.Random(seed)
        self._alpha = 1.0 / (1.0 - theta)
        self._zetan = self._zeta(n, theta)
        self._zeta2 = self._zeta(min(2, n), theta)
        denominator = 1.0 - self._zeta2 / self._zetan
        if abs(denominator) < 1e-12:
            # Degenerate keyspaces (n <= 2): the closed form collapses;
            # eta only matters for ranks >= 2, which cannot occur.
            self._eta = 0.0
        else:
            self._eta = (
                1.0 - (2.0 / n) ** (1.0 - theta)
            ) / denominator

    @staticmethod
    def _zeta(n: int, theta: float) -> float:
        # Direct sum for small n; Euler-Maclaurin approximation for large.
        if n <= 10000:
            return sum(1.0 / (i ** theta) for i in range(1, n + 1))
        head = sum(1.0 / (i ** theta) for i in range(1, 10001))
        # integral approximation of the tail
        tail = ((n ** (1.0 - theta)) - (10000 ** (1.0 - theta))) / (1.0 - theta)
        return head + tail

    def next(self) -> int:
        u = self._rng.random()
        uz = u * self._zetan
        if uz < 1.0:
            return 0
        if uz < 1.0 + 0.5 ** self.theta:
            return 1
        return int(self.n * math.pow(self._eta * u - self._eta + 1.0, self._alpha))


_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


class ScrambledZipf:
    """Zipf ranks hashed over the keyspace (YCSB's scrambled Zipfian)."""

    def __init__(self, n: int, theta: float = 0.99, seed: int = 0) -> None:
        self.n = n
        self._zipf = ZipfGenerator(n, theta, seed)

    @staticmethod
    def _fnv(value: int) -> int:
        h = _FNV_OFFSET
        for _ in range(8):
            h ^= value & 0xFF
            h = (h * _FNV_PRIME) & 0xFFFFFFFFFFFFFFFF
            value >>= 8
        return h

    @staticmethod
    def scramble_ranks(count: int, n: int) -> list[int]:
        """``_fnv(rank) % n`` for ranks ``0 … count-1`` in one numpy
        pass: uint64 multiplies wrap mod 2**64 exactly like ``_fnv``'s
        mask."""
        import numpy as np

        value = np.arange(count, dtype=np.uint64)
        h = np.full(count, _FNV_OFFSET, dtype=np.uint64)
        for _ in range(8):
            h ^= value & np.uint64(0xFF)
            h *= np.uint64(_FNV_PRIME)
            value >>= np.uint64(8)
        return (h % np.uint64(n)).tolist()

    def next(self) -> int:
        return self._fnv(self._zipf.next()) % self.n


# -- open-loop arrival processes -------------------------------------------

class PoissonArrivals:
    """Memoryless arrivals: exponential gaps around ``mean_gap_us``."""

    def __init__(self, mean_gap_us: int, seed: int = 0) -> None:
        if mean_gap_us <= 0:
            raise ValueError("mean_gap_us must be positive")
        self.mean_gap_us = mean_gap_us
        self._rng = random.Random(seed)

    def next_gap(self, now_us: int) -> int:
        return max(1, int(self._rng.expovariate(1.0 / self.mean_gap_us)))


class DiurnalArrivals:
    """Sinusoidally modulated Poisson arrivals (a compressed day).

    The instantaneous rate swings by ``amplitude`` around the base rate
    over one ``period_us`` cycle — the scale-out pattern of §2: fleets
    are sized for the peak, so off-peak measurements without open-loop
    accounting flatter the tail.
    """

    def __init__(self, mean_gap_us: int, period_us: int = 200_000,
                 amplitude: float = 0.5, seed: int = 0) -> None:
        if mean_gap_us <= 0:
            raise ValueError("mean_gap_us must be positive")
        if period_us <= 0:
            raise ValueError("period_us must be positive")
        if not 0.0 <= amplitude < 1.0:
            raise ValueError("amplitude must be in [0, 1)")
        self.mean_gap_us = mean_gap_us
        self.period_us = period_us
        self.amplitude = amplitude
        self._rng = random.Random(seed)

    def next_gap(self, now_us: int) -> int:
        phase = 2.0 * math.pi * (now_us % self.period_us) / self.period_us
        rate_scale = 1.0 + self.amplitude * math.sin(phase)
        gap = self._rng.expovariate(rate_scale / self.mean_gap_us)
        return max(1, int(gap))


class BurstyArrivals:
    """On/off arrivals: Poisson bursts separated by quiet periods.

    During a burst the gap shrinks by ``burst_factor``; between bursts
    it stretches by the same factor, keeping the long-run rate near the
    base rate while concentrating queueing pressure.
    """

    def __init__(self, mean_gap_us: int, burst_us: int = 20_000,
                 quiet_us: int = 60_000, burst_factor: float = 4.0,
                 seed: int = 0) -> None:
        if mean_gap_us <= 0:
            raise ValueError("mean_gap_us must be positive")
        if burst_us <= 0 or quiet_us <= 0:
            raise ValueError("burst_us and quiet_us must be positive")
        if burst_factor < 1.0:
            raise ValueError("burst_factor must be >= 1")
        self.mean_gap_us = mean_gap_us
        self.burst_us = burst_us
        self.quiet_us = quiet_us
        self.burst_factor = burst_factor
        self._rng = random.Random(seed)

    def next_gap(self, now_us: int) -> int:
        cycle = self.burst_us + self.quiet_us
        in_burst = (now_us % cycle) < self.burst_us
        mean = self.mean_gap_us / self.burst_factor if in_burst \
            else self.mean_gap_us * self.burst_factor
        return max(1, int(self._rng.expovariate(1.0 / mean)))


#: Arrival-shape registry for the fleet figure's config grammar.
ARRIVAL_SHAPES = {
    "poisson": PoissonArrivals,
    "diurnal": DiurnalArrivals,
    "bursty": BurstyArrivals,
}


def build_arrivals(shape: str, mean_gap_us: int, seed: int = 0):
    """An arrival process by shape name, at the given base rate."""
    if shape not in ARRIVAL_SHAPES:
        raise KeyError(f"unknown arrival shape {shape!r}; "
                       f"known: {', '.join(ARRIVAL_SHAPES)}")
    return ARRIVAL_SHAPES[shape](mean_gap_us, seed=seed)
