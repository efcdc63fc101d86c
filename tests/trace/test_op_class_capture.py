"""Op-class capture: the calibration layer's entry into the pipeline.

A ``TraceKey`` with ``op_class`` set captures repeated requests of one
fleet op class instead of the app's mixed serve loop.  Calibration
correctness rests on three properties pinned here: the recorded
per-request micro-op counts tile the stream exactly (proportional
cycle attribution sums to the whole window), the capture is
single-stream and fault-free by construction (so replay reads it as
columns), and misuse fails loudly rather than silently pricing the
wrong thing.
"""

from __future__ import annotations

import pytest

from repro.faults.plan import FaultPlan
from repro.trace import pipeline
from repro.trace.capture import TraceKey, capture


def _key(op: str, **overrides) -> TraceKey:
    defaults = dict(workload="data-serving", seed=7, window_uops=4_000,
                    warm_uops=1_000, op_class=op)
    defaults.update(overrides)
    return TraceKey(**defaults)


class TestOpClassCapture:
    def test_request_uops_tile_the_stream_exactly(self):
        captured, _app = capture(_key("read"))
        (stream,) = captured.streams
        assert sum(captured.meta["request_uops"]) == len(stream.kind)
        assert all(count >= 0 for count in captured.meta["request_uops"])

    def test_capture_takes_the_columnar_fastpath(self):
        captured, _app = capture(_key("update"))
        assert captured.meta["fault_events"] == 0
        assert captured.meta["op_class"] == "update"
        # One stream: replay hands it to the cycle loop as columns.
        assert len(captured.streams) == 1

    def test_op_classes_capture_distinct_streams(self):
        read, _ = capture(_key("read"))
        probe, _ = capture(_key("probe"))
        assert read.fingerprint != probe.fingerprint
        assert read.label == "data-serving@read"

    def test_fault_plans_are_rejected(self):
        with pytest.raises(ValueError, match="no fault plan"):
            capture(_key("read", fault_plan=FaultPlan.degraded()))

    def test_multi_thread_capture_is_rejected(self):
        with pytest.raises(ValueError, match="single-threaded"):
            capture(_key("read", threads=2))

    def test_unknown_op_class_names_the_known_set(self):
        with pytest.raises(KeyError, match="known:"):
            capture(_key("compact"))

    def test_store_round_trip_preserves_request_uops(self, tmp_path,
                                                     monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        key = _key("hint")
        first = pipeline.materialize(key, use_store=True)
        second = pipeline.materialize(key, use_store=True)
        assert second.meta["request_uops"] == first.meta["request_uops"]
        assert second.fingerprint == first.fingerprint
