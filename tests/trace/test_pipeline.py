"""Pipeline plumbing: memoization, taps, sweep pre-materialization.

The acceptance property pinned here: a Figure 4 or Figure 5 sweep
captures each distinct workload trace exactly once — every further
cell is a replay — and the taps prove it.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core.experiments import figure4, figure5
from repro.core.runner import RunConfig, clear_cache
from repro.core.sweep import Cell, SweepEngine
from repro.trace import pipeline
from repro.trace.capture import TraceKey
from repro.trace.pipeline import (
    TAPS,
    materialize,
    materialize_cells,
    trace_keys_for_cells,
)

WEE = RunConfig(window_uops=6_000, warm_uops=2_000)


@pytest.fixture(autouse=True)
def fresh_pipeline(tmp_path, monkeypatch):
    """Every test gets an empty memo, zeroed taps, and its own store."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    clear_cache()
    yield
    clear_cache()


class TestMaterialize:
    def test_capture_then_memo_hit(self):
        key = TraceKey("sat-solver", window_uops=6_000, warm_uops=2_000)
        first, app = materialize(key)
        assert app is not None
        assert TAPS.captures == 1
        again, _ = materialize(key)
        assert again is first
        assert TAPS.captures == 1
        assert TAPS.memo_hits == 1

    def test_store_hit_after_process_restart(self):
        key = TraceKey("sat-solver", window_uops=6_000, warm_uops=2_000)
        materialize(key)
        pipeline.reset()  # simulate a fresh process, same cache dir
        restored, app = materialize(key)
        assert app is None  # store hits cannot resurrect the live app
        assert TAPS.captures == 0
        assert TAPS.store_hits == 1
        assert restored.fingerprint == key.fingerprint()

    def test_use_store_false_skips_disk_both_ways(self):
        key = TraceKey("sat-solver", window_uops=6_000, warm_uops=2_000)
        materialize(key, use_store=False)
        pipeline.reset()
        materialize(key, use_store=False)
        assert TAPS.store_hits == 0
        assert TAPS.store_misses == 0
        assert TAPS.captures == 1  # no store, so the capture repeats

    def test_require_app_falls_through_store_hits(self):
        key = TraceKey("sat-solver", window_uops=6_000, warm_uops=2_000)
        materialize(key)
        pipeline.reset()
        _, app = materialize(key, require_app=True)
        assert app is not None
        assert TAPS.captures == 1
        # And the app-bearing entry now serves require_app memo hits.
        _, again = materialize(key, require_app=True)
        assert again is app
        assert TAPS.memo_hits == 1

    def test_memo_keeps_the_app_only_when_asked(self):
        key = TraceKey("sat-solver", window_uops=6_000, warm_uops=2_000)
        _, app = materialize(key, use_store=False)
        assert app is not None  # a fresh capture still returns its app
        _, hit = materialize(key, use_store=False)
        assert hit is None
        assert TAPS.memo_hits == 1
        # A require_app hit on that entry recaptures, then keeps its app.
        _, kept = materialize(key, use_store=False, require_app=True)
        assert kept is not None and kept is not app
        assert TAPS.captures == 2
        _, again = materialize(key, use_store=False)
        assert again is kept
        assert TAPS.captures == 2

    def test_sweep_pre_captures_keep_no_app(self):
        """A sweep's cells replay traces only; the memo must not hold
        the apps that produced them."""
        cells = [Cell("single", name, WEE)
                 for name in ("sat-solver", "mapreduce")]
        SweepEngine(jobs=1, use_cache=False).run(cells)
        assert len(pipeline._MEMO) == 2
        assert all(app is None for _, app in pipeline._MEMO.values())


class TestTraceKeysForCells:
    def test_single_cells_dedup_across_machine_params(self):
        cells = figure4.cells(WEE, sizes_mb=(4, 8),
                              scale_out_names=["web-search"])
        names = {cell.name for cell in cells}
        keys = trace_keys_for_cells(cells)
        assert len(cells) == 3 * len(names)  # baseline + two LLC sizes
        assert len(keys) == len(names)  # machine params never key a trace
        assert {key.workload for key in keys} == names

    def test_members_cells_expand_to_member_keys(self):
        cells = [c for c in figure5.cells(WEE) if c.name == "parsec-cpu"]
        assert len(cells) == 3  # three prefetcher variants
        keys = trace_keys_for_cells(cells)
        assert [(k.workload, k.member) for k in keys] == [
            ("parsec-cpu", "blackscholes"),
            ("parsec-cpu", "swaptions"),
        ]
        # Member budgets mirror the runner's group split.
        assert all(k.window_uops == WEE.window_uops // 2 for k in keys)
        assert all(k.warm_uops == WEE.warm_uops // 2 for k in keys)

    def test_non_group_members_cell_keys_like_single(self):
        keys = trace_keys_for_cells([Cell("members", "tpc-e", WEE)])
        assert [(k.workload, k.member) for k in keys] == [("tpc-e", None)]
        assert keys[0].window_uops == WEE.window_uops

    def test_entangled_kinds_stay_live(self):
        cells = [Cell("smt", "sat-solver", WEE),
                 Cell("smt-members", "parsec-cpu", WEE),
                 Cell("chip", "media-streaming", WEE)]
        assert trace_keys_for_cells(cells) == []

    def test_fault_plans_key_separately(self):
        from repro.faults.plan import FaultPlan

        degraded = replace(WEE, fault_plan=FaultPlan.degraded(seed=7))
        keys = trace_keys_for_cells([
            Cell("single", "data-serving", WEE),
            Cell("single", "data-serving", degraded),
        ])
        assert len(keys) == 2


class TestMaterializeCells:
    def test_unknown_workload_is_skipped_not_fatal(self):
        cells = [Cell("single", "no-such-workload", WEE),
                 Cell("single", "sat-solver", WEE)]
        done = materialize_cells(cells)
        assert done == 1
        assert TAPS.captures == 1
        assert TAPS.capture_errors == 1


class TestSweepCapturesOncePerTrace:
    def test_figure4_sweep(self):
        cells = figure4.cells(WEE, sizes_mb=(4,),
                              scale_out_names=["web-search"])
        n_names = len({cell.name for cell in cells})
        results = SweepEngine().run(cells)
        assert len(results) == len(cells) == 2 * n_names
        assert TAPS.captures == n_names  # one capture per workload
        assert TAPS.replays == len(cells)  # one replay per cell

    def test_figure5_members_sweep(self):
        cells = [c for c in figure5.cells(WEE)
                 if c.name in ("parsec-cpu", "specint-mem")]
        results = SweepEngine().run(cells)
        assert len(results) == 6  # 2 groups x 3 prefetcher variants
        assert TAPS.captures == 4  # 2 groups x 2 members, once each
        assert TAPS.replays == 12  # 2 members per cell

    def test_rerun_in_new_process_replays_from_store(self):
        cells = figure4.cells(WEE, sizes_mb=(4,),
                              scale_out_names=["web-search"])
        SweepEngine().run(cells)
        n_names = len({cell.name for cell in cells})
        clear_cache()  # drop the LRU, memo, and taps; keep the disk
        SweepEngine(store=None).run(cells)
        assert TAPS.captures == 0
        assert TAPS.store_hits == n_names
        assert TAPS.replays == len(cells)


class TestTapsUnderWorkers:
    """Taps count the coordinating process only; the progress line
    must say so when cells ran in pool workers."""

    def test_line_names_the_cells_that_ran_elsewhere(self, capsys):
        from repro.__main__ import _report_trace_taps

        cells = [Cell("single", name, WEE)
                 for name in ("sat-solver", "specint-mcf")]
        SweepEngine(jobs=2, use_cache=False).run(cells)
        assert TAPS.worker_cells == 2
        assert TAPS.captures == TAPS.replays == 0  # all in the workers
        _report_trace_taps()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.rstrip().endswith(
            "[this process only; 2 cell(s) ran in worker processes]")

    def test_serial_line_has_no_worker_label(self):
        SweepEngine().run([Cell("single", "sat-solver", WEE)])
        assert TAPS.worker_cells == 0
        assert "worker" not in TAPS.summary()


class TestSchemaVersionInFingerprints:
    def test_trace_fingerprint_tracks_schema(self, monkeypatch):
        import sys

        key = TraceKey("sat-solver")
        before = key.fingerprint()
        # The package re-exports the ``capture`` function under the
        # submodule's name, so patch the module object itself.
        monkeypatch.setattr(sys.modules["repro.trace.capture"],
                            "TRACE_SCHEMA", 2)
        assert key.fingerprint() != before

    def test_config_fingerprint_tracks_schema(self, monkeypatch):
        """The satellite bugfix: a codec bump invalidates cached
        *results*, not just traces — replayed counters derive from the
        encoding."""
        from repro.core import sweep as sweep_mod

        before = sweep_mod.config_fingerprint("single", "figure4", WEE)
        monkeypatch.setattr(sweep_mod, "TRACE_SCHEMA", 2)
        after = sweep_mod.config_fingerprint("single", "figure4", WEE)
        assert after != before
