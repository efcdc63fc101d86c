"""The service-cost model: tables, sampling, validation, persistence.

:class:`ServiceCostModel` is the contract between the calibration
layer and the fleet: every quantile table it carries must be positive
and monotone, every op class must come from the one authoritative
:data:`OP_CLASSES` list, and an unknown op must fail as a validation
error naming the known set — never a bare ``KeyError`` from a dict
probe.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.costs import (NS_PER_US, OP_CLASSES, OpCost,
                                 QUANTILE_POINTS, ServiceCostModel,
                                 unknown_op_error)
from repro.core.validate import (ValidationError, check_cost_model,
                                 validate_cost_model)


def _measured(workload: str = "data-serving") -> ServiceCostModel:
    ops = tuple((op, OpCost(p25=100 + i, p50=200 + i, p75=300 + i,
                            p95=400 + i))
                for i, op in enumerate(OP_CLASSES))
    return ServiceCostModel(workload=workload, source="measured", ops=ops,
                            uarch="a" * 64, blade_mhz=2930.0)


# -- the op-class registry -------------------------------------------------
class TestOpClasses:
    def test_the_canonical_order(self):
        assert OP_CLASSES == ("read", "update", "hint", "repair", "probe")

    def test_unknown_op_error_names_the_known_set(self):
        err = unknown_op_error("bogus", OP_CLASSES)
        assert isinstance(err, ValidationError)
        assert "'bogus'" in str(err)
        for op in OP_CLASSES:
            assert op in str(err)

    def test_model_sample_rejects_unknown_op(self):
        with pytest.raises(ValidationError, match="known: read, update"):
            _measured().sample("compact", 0.5)


# -- quantile tables -------------------------------------------------------
class TestOpCost:
    def test_rejects_non_integer_quantiles(self):
        with pytest.raises(ValueError, match="integer"):
            OpCost(p25=1.5, p50=2, p75=3, p95=4)
        with pytest.raises(ValueError, match="integer"):
            OpCost(p25=True, p50=2, p75=3, p95=4)

    def test_rejects_non_positive_quantiles(self):
        with pytest.raises(ValueError, match="positive"):
            OpCost(p25=0, p50=1, p75=2, p95=3)

    def test_rejects_non_monotone_quantiles(self):
        with pytest.raises(ValueError, match="monotone"):
            OpCost(p25=10, p50=5, p75=20, p95=30)

    def test_flat_table_samples_to_the_constant(self):
        cost = OpCost.flat(420)
        assert all(cost.sample(u) == 420
                   for u in (0.0, 0.25, 0.5, 0.9, 0.999))

    def test_sample_is_monotone_in_u(self):
        cost = OpCost(p25=100, p50=200, p75=400, p95=900)
        grid = [cost.sample(i / 100) for i in range(100)]
        assert grid == sorted(grid)

    def test_sample_clamps_to_the_table_tails(self):
        cost = OpCost(p25=100, p50=200, p75=400, p95=900)
        assert cost.sample(0.0) == 100
        assert cost.sample(0.999) == 900

    def test_sample_hits_the_quantiles_exactly(self):
        cost = OpCost(p25=100, p50=200, p75=400, p95=900)
        for name, rank in QUANTILE_POINTS:
            assert cost.sample(rank) == getattr(cost, name)

    @settings(max_examples=80, deadline=None)
    @given(steps=st.lists(st.integers(min_value=0, max_value=10 ** 9),
                          min_size=4, max_size=4),
           us=st.lists(st.one_of(st.floats(min_value=0.0, max_value=1.0),
                                 st.sampled_from([0.0, 0.25, 0.5, 0.75,
                                                  0.95, 1.0])),
                       min_size=1, max_size=40))
    def test_sample_matches_the_reference_formula(self, steps, us):
        first = 1 + steps[0]
        quantiles = [first + sum(steps[1:i + 1]) for i in range(4)]
        cost = OpCost(*quantiles)
        for u in us + [0.25, 0.5, 0.75, 0.95]:
            assert cost.sample(u) == _reference_sample(cost, u), u

    def test_last_segment_divides_by_the_computed_span(self):
        # 0.95 - 0.75 is 0.19999999999999996: here the quotient lands on
        # either side of .5, so a literal 0.2 would round to 1020.
        cost = OpCost(p25=10, p50=20, p75=1000, p95=1195)
        u = 0.7710256410256411
        assert cost.sample(u) == _reference_sample(cost, u) == 1021


def _reference_sample(cost: OpCost, u: float) -> int:
    """The inverse CDF as first written: rebuild the points from the
    quantile grid and walk its segments."""
    points = [(rank, getattr(cost, name)) for name, rank in QUANTILE_POINTS]
    if u <= points[0][0]:
        return points[0][1]
    for (lo_rank, lo), (hi_rank, hi) in zip(points, points[1:]):
        if u <= hi_rank:
            span = hi_rank - lo_rank
            return int(round(lo + (hi - lo) * (u - lo_rank) / span))
    return points[-1][1]


# -- the model -------------------------------------------------------------
class TestServiceCostModel:
    def test_rejects_unknown_source(self):
        with pytest.raises(ValueError, match="source"):
            ServiceCostModel(workload="data-serving", source="vibes",
                             ops=_measured().ops)

    def test_rejects_misordered_or_missing_ops(self):
        shuffled = tuple(reversed(_measured().ops))
        with pytest.raises(ValueError, match="in order"):
            ServiceCostModel(workload="data-serving", source="static",
                             ops=shuffled)
        with pytest.raises(ValueError, match="exactly"):
            ServiceCostModel(workload="data-serving", source="static",
                             ops=_measured().ops[:-1])

    def test_measured_model_requires_provenance(self):
        with pytest.raises(ValueError, match="uarch digest"):
            ServiceCostModel(workload="data-serving", source="measured",
                             ops=_measured().ops, blade_mhz=2930.0)
        with pytest.raises(ValueError, match="blade frequency"):
            ServiceCostModel(workload="data-serving", source="measured",
                             ops=_measured().ops, uarch="a" * 64)

    def test_static_tables_convert_us_to_ns(self):
        model = ServiceCostModel.static(
            "data-serving",
            {"read": 420, "update": 660, "hint": 150, "repair": 260,
             "probe": 40})
        assert model.cost_table()["read"].p50 == 420 * NS_PER_US
        assert model.sample("probe", 0.73) == 40 * NS_PER_US

    def test_static_rejects_missing_and_unknown_ops(self):
        with pytest.raises(ValueError, match="positive cost for: probe"):
            ServiceCostModel.static(
                "data-serving",
                {"read": 1, "update": 1, "hint": 1, "repair": 1})
        with pytest.raises(ValidationError, match="'compact'"):
            ServiceCostModel.static(
                "data-serving",
                {"read": 1, "update": 1, "hint": 1, "repair": 1,
                 "probe": 1, "compact": 9})

    def test_doc_round_trip(self):
        model = _measured()
        assert ServiceCostModel.from_doc(model.to_doc()) == model


# -- the persistence-layer gate --------------------------------------------
class TestCostModelValidation:
    def test_real_measured_doc_passes(self):
        assert check_cost_model(_measured().to_doc()) == []

    def test_rejects_missing_op_class(self):
        doc = _measured().to_doc()
        del doc["ops"]["probe"]
        assert any("cover exactly" in d for d in check_cost_model(doc))

    def test_rejects_misordered_quantiles(self):
        doc = _measured().to_doc()
        doc["ops"]["read"]["p50"] = doc["ops"]["read"]["p95"] + 1
        assert any("out of order" in d for d in check_cost_model(doc))

    def test_rejects_measured_doc_without_blade_frequency(self):
        doc = _measured().to_doc()
        doc["blade_mhz"] = 0
        assert any("blade_mhz" in d for d in check_cost_model(doc))

    def test_rejects_quantile_beyond_the_replayed_window(self):
        doc = _measured().to_doc()
        # 1000 cycles at 2930 MHz is ~341ns of wall clock; a p95 of
        # 400ns+ cannot have come from that window.
        doc["provenance"] = {"read": {"cycles": 1000, "uops": 900,
                                      "requests": 3}}
        assert any("wall-clock bound" in d for d in check_cost_model(doc))

    def test_validate_raises_with_context(self):
        doc = _measured().to_doc()
        doc["source"] = "guessed"
        with pytest.raises(ValidationError, match="calibration x"):
            validate_cost_model(doc, context="calibration x")
