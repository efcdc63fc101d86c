"""Medians and quartiles of a metric's samples.

Quartiles are :func:`statistics.quantiles` with ``n=4`` and its default
("exclusive") method, so a spread computed here matches one computed
by anyone else from the same raw values.  A single sample is its own
median and quartiles.
"""

from __future__ import annotations

import statistics
from typing import Sequence


def describe(values: Sequence[float]) -> dict:
    """``median``, ``q1``, ``q3``, ``n`` and the raw ``values``."""
    if not values:
        raise ValueError("no samples")
    median = statistics.median(values)
    if len(values) == 1:
        q1 = q3 = median
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values),
            "values": list(values)}


def spread(summary: dict) -> float:
    """Interquartile distance as a share of the median."""
    median = summary["median"]
    return (summary["q3"] - summary["q1"]) / median if median else 0.0
