"""Pass summaries and host-speed rescaling on synthetic pass results."""

from __future__ import annotations

import pytest

from bench import harness, reference

SPEC = {
    "end_to_end": [],
    "per_layer": [{"name": "uarch.fill.self_s", "unit": "s"},
                  {"name": "uarch.fill.calls", "unit": "count"},
                  {"name": "cluster.simulate.events_per_s",
                   "unit": "events/s"}],
}


def _pass(wall, kernel, traced=False, digest="d1", **extra):
    result = {
        "ok": True, "traced": traced, "wall_s": wall, "setup_s": 0.3,
        "kernel_s": kernel, "peak_rss_mb": 120.0, "output_sha256": digest,
        "cache_isolated": True, "temp_removed": True,
    }
    if traced:
        result.update(uops=1000, missing_spans=[], self_time_error=None,
                      span_tree=[], metrics={
                          "uarch.fill.self_s": wall / 2,
                          "uarch.fill.calls": 16,
                          "cluster.simulate.events_per_s": 500.0})
    result.update(extra)
    return result


def test_rescale_moves_times_and_rates_in_opposite_directions():
    slow = 2 * reference.NOMINAL_S  # a host running at half speed
    assert reference.rescale(4.0, "s", slow) == pytest.approx(2.0)
    assert reference.rescale(100.0, "uops/s", slow) == pytest.approx(200.0)
    assert reference.rescale(120.0, "MB", slow) == 120.0
    assert reference.rescale(16, "count", slow) == 16


def test_summary_rescales_host_times_by_each_pass_kernel():
    nominal = reference.NOMINAL_S
    untraced = [_pass(2.0, nominal), _pass(4.0, 2 * nominal),
                _pass(3.0, 1.5 * nominal)]
    traced = [_pass(2.2, nominal, traced=True)]
    summary = harness.summarize([[p] for p in untraced], traced, SPEC)
    wall = summary["end_to_end"]["wall_s"]
    assert wall["values"] == pytest.approx([2.0, 2.0, 2.0])
    assert summary["host"]["wall_s"]["median"] == 3.0
    assert summary["end_to_end"]["uops_per_s"]["median"] == \
        pytest.approx(500.0)
    assert summary["end_to_end"]["setup_s"]["values"] == \
        pytest.approx([0.3, 0.15, 0.2])
    assert summary["per_layer"]["uarch.fill.self_s"] == pytest.approx(1.1)
    assert summary["per_layer"]["uarch.fill.calls"] == 16
    assert summary["per_layer"]["tracing.overhead"] == pytest.approx(0.1)
    assert all(problem is None for problem in summary["checks"].values())
    assert (summary["attempted"], summary["failed"]) == (4, 0)


def test_summary_flags_digest_coverage_and_failed_passes():
    untraced = [_pass(2.0, 0.1), _pass(2.0, 0.1, digest="d2"),
                {"ok": False, "traced": False, "error": "exit status 1: boom",
                 "temp_removed": True}]
    traced = [_pass(2.0, 0.1, traced=True,
                    missing_spans=["uarch.chip"])]
    summary = harness.summarize([untraced], traced, SPEC)
    checks = summary["checks"]
    assert checks["output_digests_agree"] == "2 different output digests"
    assert checks["span_coverage"] == "spans never fired: uarch.chip"
    assert checks["passes_completed"] == "exit status 1: boom"
    assert summary["failed"] == 1
    assert checks["self_time_sum"] is None


def test_summary_without_a_traced_pass_reports_no_metrics():
    summary = harness.summarize([[_pass(2.0, 0.1)]], [], SPEC)
    assert summary["end_to_end"] == {} and summary["per_layer"] == {}
    assert summary["checks"]["untraced_and_traced_ran"] is not None


def test_each_round_contributes_the_median_of_its_passes():
    nominal = reference.NOMINAL_S
    rounds = [[_pass(2.0, nominal), _pass(9.0, nominal), _pass(2.2, nominal)],
              [_pass(3.0, nominal), _pass(3.2, nominal),
               {"ok": False, "traced": False, "error": "killed",
                "temp_removed": True}],
              [_pass(2.5, nominal)]]
    summary = harness.summarize(rounds, [_pass(2.0, nominal, traced=True)],
                                SPEC)
    wall = summary["end_to_end"]["wall_s"]
    assert wall["values"] == pytest.approx([2.2, 3.1, 2.5])
    assert wall["n"] == 3 and wall["median"] == pytest.approx(2.5)
    assert summary["failed"] == 1
