"""Compare verdicts on synthetic result pairs."""

from __future__ import annotations

import json

from bench import compare
from bench.__main__ import main
from bench.stats import describe

SPEC = {"end_to_end": [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1},
    {"name": "uops_per_s", "unit": "uops/s", "better": "higher",
     "bound": 0.1},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
]}


def _doc(wall, rate=None, rss=None, kernel=0.05, digest="abc"):
    rate = rate or [1000.0 / w for w in wall]
    rss = rss or [100.0] * len(wall)
    return {
        "env": {"git_sha": "0" * 40, "seed": 7, "rounds": len(wall),
                "ref_kernel_s": kernel},
        "workloads": {"llc-sweep": {
            "output_sha256": digest,
            "end_to_end": {"wall_s": describe(wall),
                           "uops_per_s": describe(rate),
                           "peak_rss_mb": describe(rss)},
        }},
    }


def _verdicts(a, b):
    rows, failures = compare.compare(a, b, SPEC)
    return {row["metric"]: row["verdict"] for row in rows}, failures


STEADY = [2.00, 2.02, 1.98, 2.01, 1.99]


def test_same_numbers_are_within_bound():
    verdicts, failures = _verdicts(_doc(STEADY), _doc(STEADY))
    assert set(verdicts.values()) == {"within bound"}
    assert failures == []


def test_slower_beyond_bound_is_worse_and_fails():
    slower = [w * 1.2 for w in STEADY]
    verdicts, failures = _verdicts(_doc(STEADY), _doc(slower))
    assert verdicts["wall_s"] == "worse"
    assert verdicts["uops_per_s"] == "worse"  # higher is better here
    assert verdicts["peak_rss_mb"] == "within bound"
    assert "llc-sweep wall_s: worse" in failures


def test_slower_within_bound_is_not_worse():
    slower = [w * 1.05 for w in STEADY]
    verdicts, _ = _verdicts(_doc(STEADY), _doc(slower))
    assert verdicts["wall_s"] == "within bound"


def test_faster_beyond_spread_with_every_pair_won_is_better():
    faster = [w * 0.9 for w in STEADY]
    verdicts, failures = _verdicts(_doc(STEADY), _doc(faster))
    assert verdicts["wall_s"] == "better"
    assert failures == []


def test_spread_wider_than_bound_is_unresolved():
    noisy = [1.6, 2.0, 2.4, 1.7, 2.3]  # quartile spread ~ 30% > 10%
    overlapping = [w * 1.12 for w in noisy]
    verdicts, failures = _verdicts(_doc(noisy), _doc(overlapping))
    assert verdicts["wall_s"] == "unresolved"
    assert failures == []


def test_noisy_parent_but_every_run_faster_is_better():
    noisy = [1.6, 2.0, 2.4, 1.7, 2.3]
    clearly_faster = [1.0, 1.1, 1.05, 1.2, 1.15]
    verdicts, _ = _verdicts(_doc(noisy), _doc(clearly_faster))
    assert verdicts["wall_s"] == "better"


def test_noisy_parent_and_every_run_much_slower_is_worse():
    noisy = [1.6, 2.0, 2.4, 1.7, 2.3]
    clearly_slower = [3.0, 3.2, 3.1, 3.3, 2.9]
    verdicts, _ = _verdicts(_doc(noisy), _doc(clearly_slower))
    assert verdicts["wall_s"] == "worse"


def test_digest_change_fails_even_with_equal_times():
    verdicts, failures = _verdicts(_doc(STEADY),
                                   _doc(STEADY, digest="def"))
    assert set(verdicts.values()) == {"within bound"}
    assert failures == ["llc-sweep: output digest changed"]


def test_kernel_drift_leaves_host_time_unresolved():
    slower = [w * 1.3 for w in STEADY]
    verdicts, failures = _verdicts(_doc(STEADY, kernel=0.05),
                                   _doc(slower, kernel=0.065))
    assert verdicts["wall_s"] == "unresolved (drift)"
    assert verdicts["uops_per_s"] == "unresolved (drift)"
    # Memory does not move with host speed, so it is still judged.
    assert verdicts["peak_rss_mb"] == "within bound"
    assert failures == []


def test_missing_workload_fails():
    b = _doc(STEADY)
    b["workloads"] = {}
    _, failures = compare.compare(_doc(STEADY), b, SPEC)
    assert failures == ["llc-sweep: missing from B"]


def test_cli_exit_status_follows_failures(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(_doc(STEADY)))
    b.write_text(json.dumps(_doc(STEADY)))
    assert main(["compare", str(a), str(b)]) == 0
    b.write_text(json.dumps(_doc(STEADY, digest="def")))
    assert main(["compare", str(a), str(b)]) == 1
    assert "output digest CHANGED" in capsys.readouterr().out
