"""ServerApp base scaffolding: runtimes, tracing, functional warming."""

from repro.apps.satsolver import SatSolverApp
from repro.apps.synth import ParsecCpuApp
from repro.trace.live import live_segments
from repro.uarch.hierarchy import MemoryHierarchy
from repro.uarch.params import MachineParams


class TestRuntimes:
    def test_runtime_per_thread_is_cached(self):
        app = ParsecCpuApp(seed=1)
        assert app.runtime(0) is app.runtime(0)
        assert app.runtime(0) is not app.runtime(1)

    def test_runtimes_have_distinct_tids(self):
        app = ParsecCpuApp(seed=1)
        assert app.runtime(0).tid == 0
        assert app.runtime(2).tid == 2

    def test_request_ids_monotonic(self):
        app = ParsecCpuApp(seed=1)
        ids = [app.next_request_id() for _ in range(5)]
        assert ids == sorted(ids)
        assert len(set(ids)) == 5


class TestTracing:
    def test_trace_meets_budget(self):
        app = ParsecCpuApp(seed=1)
        trace = list(app.trace(0, 3_000))
        assert len(trace) >= 3_000

    def test_live_segments_split_the_budget(self):
        app = ParsecCpuApp(seed=1)
        segments = live_segments(app, 0, 4_000, 4)
        assert len(segments) == 4
        lengths = [len(list(segment)) for segment in segments]
        assert all(length >= 1_000 for length in lengths)

    def test_trace_continues_app_state(self):
        app = SatSolverApp(seed=1, nvars=40, clause_ratio=3.0)
        list(app.trace(0, 4_000))
        first = app._query_counter
        list(app.trace(0, 4_000))
        assert app._query_counter > first


class TestWarming:
    def test_warm_installs_code_and_ranges_into_llc(self):
        app = ParsecCpuApp(seed=1)
        params = MachineParams()
        hierarchy = MemoryHierarchy(params)
        app.warm(hierarchy, trace_uops=2_000)
        # All registered code lines are resident.
        fn = app.loop_fn
        resident = sum(
            1 for addr in range(fn.base, fn.base + fn.size, 64)
            if hierarchy.llc.contains(addr)
        )
        assert resident == fn.size // 64
        # Kernel warm ranges came along via the base implementation.
        skb = app.kernel._skb_pool_base
        assert hierarchy.llc.contains(skb)

    def test_warm_replay_fills_upper_levels(self):
        app = ParsecCpuApp(seed=1)
        hierarchy = MemoryHierarchy(MachineParams())
        app.warm(hierarchy, trace_uops=4_000)
        assert hierarchy.l1d.resident_lines() > 0
        assert hierarchy.l1i.resident_lines() > 0
