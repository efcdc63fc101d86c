"""Span recording and self-time arithmetic on synthetic spans."""

from __future__ import annotations

import importlib

import pytest

from bench import harness, tracing


def _nested():
    # name, start, end, parent, stats
    return [
        ["core.sweep", 0.0, 10.0, -1, {"cells": 2, "failed": 0}],
        ["core.runner", 1.0, 6.0, 0, None],
        ["uarch.fill", 2.0, 3.0, 1, None],
        ["uarch.columnar", 3.0, 5.0, 1, {"uops": 100, "cycles": 500}],
        ["core.runner", 7.0, 8.0, 0, None],  # LRU hit: no timed loop
        ["trace.capture", 11.0, 12.0, -1, {"uops": 50}],
    ]


def test_self_time_subtracts_direct_children():
    assert tracing.self_times(_nested()) == [4.0, 2.0, 1.0, 2.0, 1.0, 1.0]


def test_layer_metrics_sum_self_times_and_counts():
    metrics = tracing.layer_metrics(_nested(), 0.0, 13.0)
    assert metrics["core.sweep.self_s"] == 4.0
    assert metrics["core.runner.calls"] == 2
    assert metrics["core.runner.self_s"] == 3.0
    assert metrics["core.runner.lru_hit_ratio"] == 0.5
    assert metrics["uarch.columnar.uops_per_s"] == 50.0
    assert metrics["uarch.columnar.cycles"] == 500
    assert metrics["trace.capture.uops_per_s"] == 50.0
    assert metrics["core.sweep.cells"] == 2
    assert metrics["cluster.simulate.calls"] == 0
    assert metrics["cluster.simulate.events_per_s"] == 0.0
    # 13 s of pass, 11 s under the two roots.
    assert metrics["other.self_s"] == 2.0
    self_total = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    assert self_total == 13.0
    assert tracing.timed_uops(_nested()) == 100


def test_self_time_sum_check_passes_for_nested_spans():
    assert tracing.check_self_time_sum(_nested(), 0.0, 13.0) is None


def test_self_time_sum_check_catches_overlapping_roots():
    spans = _nested() + [["apps.build", 9.0, 12.5, -1, None]]
    assert "self times + other" in tracing.check_self_time_sum(
        spans, 0.0, 13.0)


def test_self_time_sum_check_catches_spans_outside_the_pass():
    assert tracing.check_self_time_sum(_nested(), 2.0, 13.0) is not None


def test_self_time_sum_check_catches_a_child_longer_than_its_parent():
    spans = [["core.sweep", 0.0, 1.0, -1, None],
             ["core.runner", 0.0, 2.0, 0, None]]
    assert "negative self time" in tracing.check_self_time_sum(
        spans, 0.0, 2.0)


def test_span_tree_aggregates_by_call_path():
    tree = {node["path"]: node for node in tracing.span_tree(_nested())}
    runner = tree["core.sweep/core.runner"]
    assert (runner["calls"], runner["total_s"], runner["self_s"]) == \
        (2, 6.0, 3.0)
    assert tree["core.sweep/core.runner/uarch.columnar"]["self_s"] == 2.0


def test_wrapper_records_nesting_stats_and_errors():
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("uarch.general", lambda x: x * 2,
                        lambda args, result, error: {"uops": result})

    def outer_fn(fail):
        inner(3)
        if fail:
            raise RuntimeError("boom")
        return inner(4)

    outer = tracer.wrap("core.runner", outer_fn)
    assert outer(False) == 8
    with pytest.raises(RuntimeError):
        outer(True)
    names = [(s[0], s[3], s[4]) for s in tracer.spans]
    assert names == [("core.runner", -1, None),
                     ("uarch.general", 0, {"uops": 6}),
                     ("uarch.general", 0, {"uops": 8}),
                     ("core.runner", -1, None),
                     ("uarch.general", 3, {"uops": 6})]
    assert all(s[2] > s[1] for s in tracer.spans)  # every span closed
    assert tracing.check_self_time_sum(tracer.spans, 0.0, 99.0) is None


def test_every_site_resolves_and_is_restored():
    assert tracing.check_sites() == []
    replay = importlib.import_module("repro.trace.replay")
    columns = importlib.import_module("repro.trace.columns")
    original = replay.batch_for
    with tracing.Tracer():
        assert replay.batch_for is not original
        assert columns.batch_for is not original
    assert replay.batch_for is original and columns.batch_for is original


def test_metric_names_match_benchmark_json():
    spec = harness.load_spec()
    computed = set(tracing.layer_metrics([], 0.0, 1.0)) | {
        "tracing.overhead"}
    assert computed == {m["name"] for m in spec["per_layer"]}
