"""Measurement runner: single, SMT, member, and chip runs."""

import gc
import weakref

import pytest

from repro.apps.base import ServerApp
from repro.core import runner
from repro.core.runner import (
    RunConfig,
    clear_cache,
    metric_mean,
    metric_range,
    run_workload,
    run_workload_chip,
    run_workload_members,
    run_workload_smt,
)
from repro.core import analysis
from repro.core.workloads import ALL_WORKLOADS
from repro.trace import pipeline as trace_pipeline


class TestRunWorkload:
    def test_produces_counters(self, tiny_config):
        run = run_workload("mapreduce", tiny_config)
        assert run.result.instructions >= tiny_config.window_uops
        assert run.result.cycles > 0

    def test_cache_returns_same_object(self, tiny_config):
        a = run_workload("mapreduce", tiny_config)
        b = run_workload("mapreduce", tiny_config)
        assert a is b

    def test_cache_bypass(self, tiny_config):
        a = run_workload("mapreduce", tiny_config)
        b = run_workload("mapreduce", tiny_config, use_cache=False)
        assert a is not b

    def test_deterministic_given_seed(self, tiny_config):
        clear_cache()
        a = run_workload("web-search", tiny_config, use_cache=False)
        b = run_workload("web-search", tiny_config, use_cache=False)
        assert a.result.cycles == b.result.cycles
        assert a.result.instructions == b.result.instructions
        assert a.result.l1i_misses == b.result.l1i_misses

    def test_bandwidth_helpers(self, tiny_config):
        run = run_workload("mapreduce", tiny_config)
        assert 0.0 <= run.bandwidth_utilization() <= 1.5
        assert 0.0 <= run.os_bandwidth_fraction() <= 1.0


class TestSmtRuns:
    def test_two_threads_counted(self, tiny_config):
        run = run_workload_smt("sat-solver", tiny_config)
        assert len(run.result.per_thread_instructions) == 2
        assert all(n > 0 for n in run.result.per_thread_instructions)


class TestMemberRuns:
    def test_groups_expand_to_members(self, tiny_config):
        runs = run_workload_members("parsec-cpu", tiny_config)
        assert len(runs) == 2
        assert {r.name for r in runs} == {
            "parsec-cpu:blackscholes", "parsec-cpu:swaptions",
        }

    def test_non_groups_are_single_runs(self, tiny_config):
        runs = run_workload_members("tpc-e", tiny_config)
        assert len(runs) == 1

    def test_metric_helpers(self, tiny_config):
        runs = run_workload_members("parsec-cpu", tiny_config)
        mean = metric_mean(runs, analysis.ipc)
        lo, hi = metric_range(runs, analysis.ipc)
        assert lo <= mean <= hi


class TestChipRuns:
    def test_four_core_run(self, tiny_config):
        chip_run = run_workload_chip("media-streaming", tiny_config,
                                     num_cores=4, segments=2)
        assert len(chip_run.result.per_core) == 4
        assert all(r.instructions > 0 for r in chip_run.result.per_core)

    def test_single_process_per_core_workloads_use_asids(self, tiny_config):
        chip_run = run_workload_chip("sat-solver", tiny_config,
                                     num_cores=2, segments=2)
        summed = chip_run.summed
        # Independent processes: no remote-dirty hits at all.
        assert summed.remote_dirty_hits == 0


class TestRunsHoldNoApp:
    """A run is counters only: no app outlives the run that built it."""

    def test_apps_die_while_lru_and_memo_keep_their_entries(
            self, tiny_config, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))  # cold store
        built = []
        init = ServerApp.__init__

        def recording_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            built.append(weakref.ref(self))

        monkeypatch.setattr(ServerApp, "__init__", recording_init)
        clear_cache()
        try:
            run_workload_smt("sat-solver", tiny_config)
            run_workload_chip("sat-solver", tiny_config, num_cores=2,
                              segments=2)
            run_workload("mapreduce", tiny_config)
            gc.collect()
            assert len(built) == 4  # SMT 1, chip 2 (one per core), capture 1
            assert [ref for ref in built if ref() is not None] == []
            assert len(runner._CACHE) == 3
            assert len(trace_pipeline._MEMO) == 1
        finally:
            clear_cache()


class TestConfig:
    def test_scaled(self):
        config = RunConfig(window_uops=100_000, warm_uops=40_000)
        half = config.scaled(0.5)
        assert half.window_uops == 50_000
        assert half.warm_uops == 20_000

    def test_scaled_floors(self):
        tiny = RunConfig(window_uops=100, warm_uops=100).scaled(0.001)
        assert tiny.window_uops >= 2_000 or tiny.window_uops == 2_000
