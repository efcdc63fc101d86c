"""Medians and quartiles: odd and even sample counts, one sample."""

from __future__ import annotations

import statistics

import pytest

from bench.stats import describe, spread


def test_odd_count_median_is_middle_value():
    summary = describe([5.0, 1.0, 3.0, 2.0, 4.0])
    assert summary["median"] == 3.0
    assert summary["n"] == 5
    # Exclusive method, n=5: q1 at rank 1.5, q3 at rank 4.5.
    assert summary["q1"] == pytest.approx(1.5)
    assert summary["q3"] == pytest.approx(4.5)


def test_even_count_median_averages_the_middle_pair():
    summary = describe([4.0, 1.0, 3.0, 2.0])
    assert summary["median"] == 2.5
    assert summary["q1"] == pytest.approx(1.25)
    assert summary["q3"] == pytest.approx(3.75)


def test_quartiles_match_statistics_quantiles():
    values = [2.31, 2.12, 2.48, 2.20, 2.27, 2.39, 2.05, 2.44, 2.18, 2.33]
    q1, _, q3 = statistics.quantiles(values, n=4)
    summary = describe(values)
    assert (summary["q1"], summary["q3"]) == (q1, q3)
    assert spread(summary) == pytest.approx((q3 - q1)
                                            / statistics.median(values))


def test_one_sample_is_its_own_median_and_quartiles():
    summary = describe([7.5])
    assert summary["median"] == summary["q1"] == summary["q3"] == 7.5
    assert spread(summary) == 0.0


def test_no_samples_is_an_error():
    with pytest.raises(ValueError):
        describe([])
