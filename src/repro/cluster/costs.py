"""Per-op service-cost models the fleet layer prices requests from.

A :class:`ServiceCostModel` is a table of per-op-class latency
*quantiles* (p25/p50/p75/p95, simulated **nanoseconds**) plus provenance:
where the numbers came from (``static`` hand-written tables or
``measured`` microarchitectural replay), which machine configuration
produced them (the canonical ``uarch`` digest), and at what blade
frequency cycles were converted.  :meth:`OpCost.sample` is the single
point where a uniform draw becomes a service time (backends keep the
model's :meth:`~ServiceCostModel.cost_table` and sample the op's entry)
— an inverse-CDF walk over the quantile table, so a fleet run exercises
a latency *distribution* rather than a scalar mean (what a tail-latency
model actually needs), while a static model degenerates to the old
constant per-op cost.

Tables are stored in nanoseconds because one replica request's CPU
time on the simulated blade is sub-microsecond: integer-µs tables
would collapse every measured quantile to 1.  The event loop still
runs on integer microseconds; :meth:`ReplicaBackend.cost
<repro.cluster.backend.ReplicaBackend.cost>` converts a sampled
nanosecond latency back with :data:`NS_PER_US` (static tables, written
in µs, convert exactly both ways).

:data:`OP_CLASSES` is the one authoritative op-class list; the backend
constructor, the calibration layer, and validation all consult it, and
an unknown op is a :class:`~repro.core.validate.ValidationError` naming
the known set instead of a bare ``KeyError``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.sweep import COST_MODEL_SCHEMA

__all__ = [
    "OP_CLASSES",
    "COST_MODEL_SCHEMA",
    "NS_PER_US",
    "QUANTILE_POINTS",
    "OpCost",
    "ServiceCostModel",
    "unknown_op_error",
]

#: Cost tables are nanoseconds; the event loop is microseconds.
NS_PER_US = 1000

#: The request classes a replica backend serves, in canonical order.
#: This tuple is the *only* authoritative op-class list — everything
#: else (backends, calibration, validation, the apps' handler tables)
#: derives from it or is checked against it.
OP_CLASSES = ("read", "update", "hint", "repair", "probe")

#: The quantile grid every cost table carries: (field name, rank).
QUANTILE_POINTS = (("p25", 0.25), ("p50", 0.50),
                   ("p75", 0.75), ("p95", 0.95))


def unknown_op_error(op: str, known) -> "Exception":
    """The validation error for an op class outside ``known``."""
    # Imported lazily: core.validate pulls in the uarch counter model,
    # which this leaf module must not load just to define a table.
    from repro.core.validate import ValidationError

    return ValidationError(
        "service cost model",
        [f"unknown op class {op!r}; known: {', '.join(known)}"])


@dataclass(frozen=True)
class OpCost:
    """One op class's latency quantiles (simulated nanoseconds)."""

    p25: int
    p50: int
    p75: int
    p95: int

    def __post_init__(self) -> None:
        for name, _rank in QUANTILE_POINTS:
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value <= 0:
                raise ValueError(f"{name} must be positive, got {value}")
        if not self.p25 <= self.p50 <= self.p75 <= self.p95:
            raise ValueError(
                f"quantiles must be monotone: p25 {self.p25} <= p50 "
                f"{self.p50} <= p75 {self.p75} <= p95 {self.p95}")

    @classmethod
    def flat(cls, cost: int) -> "OpCost":
        """A degenerate table: every quantile equals ``cost``.

        This is what a static hand-written cost becomes, so sampling a
        static model returns exactly the historical constant.
        """
        return cls(p25=cost, p50=cost, p75=cost, p95=cost)

    def sample(self, u: float) -> int:
        """The latency at rank ``u`` in [0, 1): inverse-CDF over the
        quantile grid, piecewise-linear between points and clamped to
        p25/p95 at the tails (the table carries no information beyond
        them, so the model deliberately does not extrapolate)."""
        if u <= 0.25:
            return self.p25
        if u <= 0.50:
            lo_rank, lo, hi_rank, hi = 0.25, self.p25, 0.50, self.p50
        elif u <= 0.75:
            lo_rank, lo, hi_rank, hi = 0.50, self.p50, 0.75, self.p75
        elif u <= 0.95:
            lo_rank, lo, hi_rank, hi = 0.75, self.p75, 0.95, self.p95
        else:
            return self.p95
        # Computed, not written as a literal: 0.95 - 0.75 is not 0.2 in
        # binary, and every sample depends on the exact quotient.
        span = hi_rank - lo_rank
        return int(round(lo + (hi - lo) * (u - lo_rank) / span))


@dataclass(frozen=True)
class ServiceCostModel:
    """Per-op quantile cost tables with calibration provenance.

    ``source`` is ``"static"`` (hand-written app tables, degenerate
    quantiles) or ``"measured"`` (derived from uarch replay by
    :mod:`repro.cluster.calibrate`); measured models carry the machine
    configuration's canonical digest in ``uarch`` and the cycle
    conversion frequency in ``blade_mhz``, so a fingerprint over a
    config embedding this model changes whenever the uarch model does.
    """

    workload: str
    source: str
    ops: tuple[tuple[str, OpCost], ...]
    uarch: str = ""
    blade_mhz: float = 0.0
    schema: int = field(default=COST_MODEL_SCHEMA)

    def __post_init__(self) -> None:
        if self.source not in ("static", "measured"):
            raise ValueError(f"source must be 'static' or 'measured', "
                             f"got {self.source!r}")
        names = tuple(name for name, _cost in self.ops)
        if names != OP_CLASSES:
            raise ValueError(
                f"ops must cover exactly {OP_CLASSES} in order, "
                f"got {names}")
        if self.source == "measured":
            if not self.uarch:
                raise ValueError("a measured model needs its uarch digest")
            if self.blade_mhz <= 0:
                raise ValueError("a measured model needs a positive "
                                 "blade frequency")

    def cost_table(self) -> dict[str, OpCost]:
        return dict(self.ops)

    def sample(self, op: str, u: float) -> int:
        """The service time of one ``op`` at rank ``u``, in ns."""
        for name, cost in self.ops:
            if name == op:
                return cost.sample(u)
        raise unknown_op_error(op, OP_CLASSES)

    # -- persistence --------------------------------------------------------
    def to_doc(self) -> dict:
        """The JSON document shape the result store persists."""
        return {
            "workload": self.workload,
            "source": self.source,
            "schema": self.schema,
            "uarch": self.uarch,
            "blade_mhz": self.blade_mhz,
            "ops": {
                name: {q: getattr(cost, q)
                       for q, _rank in QUANTILE_POINTS}
                for name, cost in self.ops
            },
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "ServiceCostModel":
        """Rebuild a model from :meth:`to_doc` output (provenance keys
        beyond the model fields are ignored)."""
        ops = tuple(
            (name, OpCost(**{q: int(doc["ops"][name][q])
                             for q, _rank in QUANTILE_POINTS}))
            for name in OP_CLASSES
        )
        return cls(workload=doc["workload"], source=doc["source"],
                   ops=ops, uarch=doc.get("uarch", ""),
                   blade_mhz=float(doc.get("blade_mhz", 0.0)))

    @classmethod
    def static(cls, workload: str, costs_us: dict[str, int]
               ) -> "ServiceCostModel":
        """A static model from a hand-written per-op cost table.

        The app tables are written in microseconds (they predate the
        calibration layer); they convert exactly to the model's
        nanosecond unit and back, so sampling a static model still
        reproduces the historical constants on the event loop.
        """
        missing = [op for op in OP_CLASSES if costs_us.get(op, 0) <= 0]
        if missing:
            raise ValueError(
                f"static cost table for {workload!r} needs a positive "
                f"cost for: {', '.join(missing)}")
        extra = sorted(set(costs_us) - set(OP_CLASSES))
        if extra:
            raise unknown_op_error(extra[0], OP_CLASSES)
        ops = tuple((op, OpCost.flat(int(costs_us[op]) * NS_PER_US))
                    for op in OP_CLASSES)
        return cls(workload=workload, source="static", ops=ops)
