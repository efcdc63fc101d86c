"""End-to-end fault-injection contracts.

The determinism contract — one ``(workload, seed, plan)`` triple maps
to exactly one micro-op trace and one measurement — and the strict
no-op contract for empty plans, plus the degraded-mode acceptance
shape the Figure 8 extension reports.
"""

import json
import re
from pathlib import Path

import pytest

from repro.__main__ import main
from repro.core.experiments import figure8_faults
from repro.core.runner import (
    RunConfig,
    clear_cache,
    run_workload,
    run_workload_chip,
    run_workload_smt,
)
from repro.core.store import ResultStore
from repro.core.supervise import SweepCellError
from repro.core.sweep import SweepEngine, _cell_worker
from repro.core.workloads import build_app
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.faults.retry import RetryPolicy
from repro.trace import pipeline
from repro.trace.capture import TraceKey

FAULTED = RunConfig(window_uops=8_000, warm_uops=3_000, seed=7,
                    fault_plan=FaultPlan.degraded(seed=7))
HEALTHY = RunConfig(window_uops=8_000, warm_uops=3_000, seed=7)


def _signature(app, budget=6_000):
    return [(u.kind, u.pc, u.addr, u.deps) for u in app.trace(0, budget)]


def _faulted_app(name, plan, seed=7):
    app = build_app(name, seed=seed)
    app.attach_faults(FaultInjector(plan))
    return app


def _measured(name, config):
    """A fresh capture's replayed counters and the app that produced it."""
    captured, app = pipeline.capture_fresh(TraceKey.from_config(name, config),
                                           use_store=False)
    return pipeline.replay(captured, config.params), app


class TestDeterminism:
    @pytest.mark.parametrize("name", ["data-serving", "web-search"])
    def test_faulted_traces_are_byte_identical(self, name):
        plan = FaultPlan.degraded(seed=3)
        first = _signature(_faulted_app(name, plan))
        second = _signature(_faulted_app(name, plan))
        assert first == second

    def test_faulted_counters_are_bit_identical(self):
        first, first_app = _measured("data-serving", FAULTED)
        second, second_app = _measured("data-serving", FAULTED)
        assert second_app is not first_app  # two captures, two apps
        for field in ("cycles", "instructions", "l1i_misses", "l2i_misses",
                      "llc_misses", "loads", "stores", "branches",
                      "offchip_bytes"):
            assert getattr(first, field) == getattr(second, field), field
        assert first_app.service.summary() == second_app.service.summary()
        assert first_app.faults.fired == second_app.faults.fired

    def test_plan_seed_changes_the_measurement(self):
        other = RunConfig(window_uops=8_000, warm_uops=3_000, seed=7,
                          fault_plan=FaultPlan.degraded(seed=8))
        first = run_workload("data-serving", FAULTED)
        second = run_workload("data-serving", other)
        assert first.result.cycles != second.result.cycles


class TestEmptyPlanIsStrictNoOp:
    def test_config_normalizes_empty_plan_to_none(self):
        with_empty = RunConfig(window_uops=8_000, warm_uops=3_000,
                               fault_plan=FaultPlan.empty())
        without = RunConfig(window_uops=8_000, warm_uops=3_000)
        assert with_empty.fault_plan is None
        assert with_empty == without

    @pytest.mark.parametrize(
        "name", ["data-serving", "mapreduce", "media-streaming", "web-search"])
    def test_empty_injector_leaves_traces_untouched(self, name):
        healthy = build_app(name, seed=5)
        attached = _faulted_app(name, FaultPlan.empty(), seed=5)
        assert attached.faults is None  # never armed
        assert attached.layout.app_code_bytes() \
            == healthy.layout.app_code_bytes()
        assert _signature(attached, 4_000) == _signature(healthy, 4_000)

    def test_every_runner_pipeline_shares_the_healthy_cache_entry(
            self, tiny_config):
        empty = RunConfig(window_uops=tiny_config.window_uops,
                          warm_uops=tiny_config.warm_uops,
                          fault_plan=FaultPlan.empty())
        assert run_workload("web-search", empty) \
            is run_workload("web-search", tiny_config)
        assert run_workload_smt("web-search", empty) \
            is run_workload_smt("web-search", tiny_config)
        assert run_workload_chip("web-search", empty) \
            is run_workload_chip("web-search", tiny_config)


class TestDegradedModeAcceptance:
    def test_degraded_serving_pays_in_ifootprint_and_tail(self):
        healthy, healthy_app = _measured("data-serving", HEALTHY)
        degraded, degraded_app = _measured("data-serving", FAULTED)

        from repro.core import analysis

        # Fault handling executes real extra code: the instruction
        # footprint (and its L1-I miss rate) must grow measurably.
        assert degraded_app.layout.app_code_bytes() \
            > healthy_app.layout.app_code_bytes()
        assert analysis.instruction_mpki(degraded) \
            > analysis.instruction_mpki(healthy)

        # Clients observed the faults: retries happened, the latency
        # tail stretched, but goodput loss stayed bounded.
        service = degraded_app.service
        assert service.retries > 0
        assert service.p99() > healthy_app.service.p99()
        assert service.goodput() >= 0.9
        assert degraded_app.faults.total_fired() > 0

    def test_healthy_runs_never_touch_fault_accounting(self):
        _, healthy_app = _measured("data-serving", HEALTHY)
        assert healthy_app.faults is None
        assert healthy_app.service.retries == 0
        assert healthy_app.service.goodput() == 1.0


class TestResilienceDocExample:
    """``docs/resilience.md``'s Python example, run as written (at a
    small window) twice in one cache root."""

    def test_second_run_in_one_cache_root(self, tmp_path, monkeypatch,
                                          capsys):
        doc = Path(__file__).resolve().parents[2] / "docs" / "resilience.md"
        example, = re.findall(r"```python\n(.*?)```", doc.read_text(),
                              flags=re.S)
        code = example.replace("window_uops=40_000", "window_uops=8_000")
        assert code != example
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        printed = []
        for _ in range(2):
            clear_cache()  # a new process: empty LRU and memo
            exec(compile(code, str(doc), "exec"), {})
            printed.append(capsys.readouterr().out)
        # The second run's counters come from the trace store; its app
        # from a capture of its own.
        assert pipeline.TAPS.store_hits == 1
        assert pipeline.TAPS.captures == 1
        assert printed[0] == printed[1]
        assert "goodput" in printed[1]
        clear_cache()


class TestFigure8:
    """Figure 8 rows are ``FaultCell`` s on the one sweep engine; the
    cell-kind matrix (``tests/core/test_cell_kinds.py``) covers the
    engine's guarantees for them, these tests the table and the CLI."""

    def test_table_shape_without_a_manifest(self):
        table = figure8_faults.run(HEALTHY, workloads=["data-serving"])
        assert [row["Mode"] for row in table.rows] == ["healthy", "degraded"]
        assert figure8_faults.mpki_delta(table, "Data Serving") > 0.0
        with pytest.raises(KeyError):
            figure8_faults.mpki_delta(table, "No Such Workload")

    def test_rejects_unknown_workloads(self):
        with pytest.raises(KeyError):
            figure8_faults.run(HEALTHY, workloads=["bogus"])

    def test_resume_skips_completed_cells(self, tmp_path):
        """A sweep killed on its degraded cell resumes by measuring only
        that cell, and renders the uninterrupted table."""
        reference = figure8_faults.run(HEALTHY, workloads=["data-serving"])
        no_retry = RetryPolicy.for_harness(retries=0)

        def dies_on_degraded(task):
            if task[0].mode == "degraded":
                raise RuntimeError("killed mid-sweep")
            return _cell_worker(task)

        with pytest.raises(SweepCellError, match="faults-degraded"):
            figure8_faults.run(HEALTHY, workloads=["data-serving"],
                               engine=SweepEngine(
                                   checkpoint_dir=tmp_path, retry=no_retry,
                                   worker=dies_on_degraded))
        computed = []

        def counting(task):
            computed.append(task[0].mode)
            return _cell_worker(task)

        resumed = figure8_faults.run(
            HEALTHY, workloads=["data-serving"], engine=SweepEngine(
                checkpoint_dir=tmp_path, resume=True, retry=no_retry,
                worker=counting))
        assert computed == ["degraded"]
        assert resumed.to_text() == reference.to_text()

    def test_partial_store_computes_only_missing_cells(self, tmp_path):
        store = ResultStore(tmp_path)
        figure8_faults.run(HEALTHY, workloads=["data-serving"],
                           engine=SweepEngine(store=store))
        computed = []

        def counting(task):
            computed.append((task[0].name, task[0].mode))
            return _cell_worker(task)

        table = figure8_faults.run(
            HEALTHY, workloads=["data-serving", "web-search"],
            engine=SweepEngine(store=store, worker=counting))
        assert computed == [("web-search", "healthy"),
                            ("web-search", "degraded")]
        assert len(table.rows) == 4

    def test_poisoned_row_in_the_store_is_quarantined_and_recomputed(
            self, tmp_path):
        store = ResultStore(tmp_path)
        reference = figure8_faults.run(HEALTHY, workloads=["data-serving"],
                                       engine=SweepEngine(store=store))
        cell = figure8_faults.cells(HEALTHY, ["data-serving"])[1]
        path = store.path_for(cell.fingerprint())
        document = json.loads(path.read_bytes())
        document["faults"][0].update(ipc=-7.5, goodput=3.0)
        path.write_text(json.dumps(document))

        rerun = figure8_faults.run(HEALTHY, workloads=["data-serving"],
                                   engine=SweepEngine(store=store))
        assert rerun.to_text() == reference.to_text()
        assert "-7.5" not in rerun.to_text()
        reason = store.corrupt_directory / f"{cell.fingerprint()}.reason"
        assert "ipc must be positive" in reason.read_text()

    def test_no_cache_never_reads_the_store(self, tmp_path, monkeypatch,
                                            capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        argv = ["faults", "data-serving", "--window", "8000",
                "--warm", "3000"]
        assert main(argv) == 0
        cached = capsys.readouterr().out

        def no_reads(self, fingerprint):
            raise AssertionError("--no-cache read the result store")

        monkeypatch.setattr(ResultStore, "get_faults", no_reads)
        assert main(argv + ["--no-cache"]) == 0
        assert capsys.readouterr().out == cached

    def test_taps_line_goes_to_stderr(self, tmp_path, monkeypatch, capsys):
        """Each cold cell captures and replays once; a rerun takes every
        row from the result store, so it does no trace work and prints
        no taps line."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        argv = ["faults", "data-serving", "--window", "8000",
                "--warm", "3000"]
        clear_cache()
        assert main(argv) == 0
        cold = capsys.readouterr()
        assert "trace pipeline: 2 capture(s) (" in cold.err
        assert ", 2 replay(s) (" in cold.err
        assert "trace pipeline" not in cold.out
        clear_cache()
        assert main(argv) == 0
        rerun = capsys.readouterr()
        assert (rerun.out, rerun.err) == (cold.out, "")
        clear_cache()

    def test_sweep_flags_reach_the_faults_engine(self, monkeypatch):
        """``--jobs``, ``--timeout``, ``--retries`` and ``--resume`` are
        honoured, not parsed and dropped."""
        seen = {}

        def spy(config, workloads=None, engine=None, intensity=1.0):
            seen["engine"] = engine
            raise KeyError("stop here")

        monkeypatch.setattr(figure8_faults, "run", spy)
        assert main(["faults", "--jobs", "3", "--timeout", "7",
                     "--retries", "4", "--resume"]) == 2
        engine = seen["engine"]
        assert engine.jobs == 3 and engine.resume
        assert engine.retry.timeout == 7.0
        assert engine.retry.max_retries == 4
