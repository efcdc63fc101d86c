"""The on-disk result store: round-trips, versioning, incrementality,
quarantine of defective documents, and the doctor scan.

The crash/corruption outcomes every stored kind shares live in one
matrix, ``tests/test_blobstore.py``; this file keeps what only the
result documents have."""

from __future__ import annotations

import dataclasses
import json
import pathlib
from dataclasses import replace

import pytest

from repro.core.runner import RunConfig, run_workload
from repro.core.store import (
    SCHEMA_VERSION,
    ResultStore,
    default_cache_dir,
    run_from_dict,
    run_to_dict,
)
from repro.core.sweep import Cell, SweepEngine
from repro.core.validate import ValidationError
from repro.faults.plan import FaultEvent, FaultPlan

WEE = RunConfig(window_uops=6_000, warm_uops=2_000)


class TestSerialization:
    def test_run_round_trips_exactly(self):
        run = run_workload("sat-solver", WEE)
        restored = run_from_dict(json.loads(json.dumps(run_to_dict(run))))
        assert restored.name == run.name
        assert restored.config == run.config
        assert restored.result == run.result

    def test_fault_plan_config_round_trips(self):
        config = replace(WEE, fault_plan=FaultPlan.degraded(seed=3,
                                                            intensity=1.5))
        run = run_workload("data-serving", config)
        restored = run_from_dict(json.loads(json.dumps(run_to_dict(run))))
        assert restored.config == run.config
        assert restored.config.fault_plan == config.fault_plan

    def test_derived_metrics_survive_restoration(self):
        run = run_workload("mapreduce", WEE)
        restored = run_from_dict(run_to_dict(run))
        assert restored.bandwidth_utilization() \
            == run.bandwidth_utilization()
        assert restored.os_bandwidth_fraction() \
            == run.os_bandwidth_fraction()


class TestResultStore:
    def test_put_get_round_trip(self, tmp_path):
        store = ResultStore(tmp_path)
        run = run_workload("sat-solver", WEE)
        store.put("f" * 64, [run])
        restored = store.get("f" * 64)
        assert restored is not None
        assert restored[0].result == run.result

    def test_missing_fingerprint_is_a_miss(self, tmp_path):
        assert ResultStore(tmp_path).get("0" * 64) is None

    def test_corrupt_document_is_a_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        path = store.path_for("a" * 64)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("{not json")
        assert store.get("a" * 64) is None

    def test_wrong_schema_version_is_a_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        run = run_workload("sat-solver", WEE)
        store.put("b" * 64, [run])
        path = store.path_for("b" * 64)
        document = json.loads(path.read_text())
        document["schema"] = SCHEMA_VERSION + 1
        path.write_text(json.dumps(document))
        assert store.get("b" * 64) is None

    def test_renamed_document_is_a_miss_and_is_quarantined(self, tmp_path):
        store = ResultStore(tmp_path)
        run = run_workload("sat-solver", WEE)
        store.put("c" * 64, [run])
        store.path_for("c" * 64).rename(store.path_for("d" * 64))
        assert store.get("d" * 64) is None
        # The evidence moved to corrupt/ with a diagnosis, instead of
        # being overwritten by the recomputed result.
        quarantined = store.corrupt_directory / f"{'d' * 64}.json"
        assert quarantined.exists()
        reason = json.loads(quarantined.with_suffix(".reason").read_text())
        assert "does not match" in reason["reason"]
        assert not store.path_for("d" * 64).exists()

    def test_fault_plan_config_round_trips_through_the_store(self, tmp_path):
        """The FaultPlan branch of ``_config_from_dict`` — a degraded
        config must come back as frozen FaultEvent/FaultPlan types."""
        store = ResultStore(tmp_path)
        config = replace(WEE, fault_plan=FaultPlan.degraded(seed=5,
                                                            intensity=1.5))
        run = run_workload("data-serving", config)
        store.put("a1" * 32, [run])
        restored = store.get("a1" * 32)
        assert restored is not None
        plan = restored[0].config.fault_plan
        assert plan == config.fault_plan
        assert isinstance(plan, FaultPlan)
        assert all(isinstance(event, FaultEvent) for event in plan.events)
        assert restored[0].config == run.config

    def test_stats_and_clear(self, tmp_path):
        store = ResultStore(tmp_path)
        assert store.stats()["entries"] == 0
        run = run_workload("sat-solver", WEE)
        store.put("e" * 64, [run])
        stats = store.stats()
        assert stats["entries"] == 1
        assert stats["bytes"] > 0
        assert stats["corrupt_entries"] == 0
        assert store.clear() == 1
        assert store.stats()["entries"] == 0

    def test_stats_tolerates_concurrently_cleared_entries(
            self, tmp_path, monkeypatch):
        """A concurrent ``clear()`` may unlink a file between the
        directory listing and ``stat()`` — one vanished entry must not
        crash the ``cache`` CLI."""
        store = ResultStore(tmp_path)
        run = run_workload("sat-solver", WEE)
        store.put("a" * 64, [run])
        store.put("b" * 64, [run])
        doomed = store.path_for("a" * 64).name
        real_stat = pathlib.Path.stat

        def racy_stat(self, **kwargs):
            if self.name == doomed:
                raise FileNotFoundError(self)
            return real_stat(self, **kwargs)

        monkeypatch.setattr(pathlib.Path, "stat", racy_stat)
        stats = store.stats()
        assert stats["entries"] == 1
        assert stats["bytes"] > 0

    def test_env_override_of_default_root(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "custom"))
        assert default_cache_dir() == tmp_path / "custom"
        assert ResultStore().root == tmp_path / "custom"


class TestValidationGate:
    def test_put_rejects_implausible_results(self, tmp_path):
        store = ResultStore(tmp_path)
        run = run_workload("sat-solver", WEE)
        broken = dataclasses.replace(
            run, result=dataclasses.replace(run.result, llc_misses=-7))
        with pytest.raises(ValidationError, match="negative"):
            store.put("f" * 64, [broken])
        assert not store.path_for("f" * 64).exists()

    def test_get_quarantines_out_of_range_counters(self, tmp_path):
        store = ResultStore(tmp_path)
        run = run_workload("sat-solver", WEE)
        store.put("9" * 64, [run])
        path = store.path_for("9" * 64)
        document = json.loads(path.read_text())
        document["runs"][0]["result"]["l1i_misses"] = -123
        path.write_text(json.dumps(document))
        assert store.get("9" * 64) is None
        assert (store.corrupt_directory / path.name).exists()


class TestDoctor:
    @staticmethod
    def _poison(store, fingerprint, **counter_overrides):
        path = store.path_for(fingerprint)
        document = json.loads(path.read_text())
        document["runs"][0]["result"].update(counter_overrides)
        path.write_text(json.dumps(document))

    def test_doctor_quarantines_and_reports_defects(self, tmp_path):
        store = ResultStore(tmp_path)
        run = run_workload("sat-solver", WEE)
        store.put("1" * 64, [run])
        store.put("2" * 64, [run])
        self._poison(store, "2" * 64, cycles=0, committing_cycles=0,
                     stalled_cycles=0, memory_cycles=0, superq_busy_cycles=0)
        report = store.doctor()
        assert report["scanned"] == 2
        assert report["healthy"] == 1
        assert len(report["defects"]) == 1
        fingerprint, reason = report["defects"][0]
        assert fingerprint == "2" * 64
        assert "cycles" in reason
        assert report["corrupt_entries"] == 1
        # The healthy document survived; the defective one moved.
        assert store.get("1" * 64) is not None
        assert not store.path_for("2" * 64).exists()
        assert (store.corrupt_directory / f"{'2' * 64}.json").exists()

    def test_doctor_check_mode_reports_without_moving(self, tmp_path):
        store = ResultStore(tmp_path)
        run = run_workload("sat-solver", WEE)
        store.put("3" * 64, [run])
        self._poison(store, "3" * 64, llc_misses=-1)
        report = store.doctor(repair=False)
        assert len(report["defects"]) == 1
        assert not report["repaired"]
        assert store.path_for("3" * 64).exists()  # left in place

    def test_doctor_on_a_clean_store_is_quiet(self, tmp_path):
        store = ResultStore(tmp_path)
        run = run_workload("sat-solver", WEE)
        store.put("4" * 64, [run])
        report = store.doctor()
        assert report["defects"] == []
        assert report["healthy"] == report["scanned"] == 1


class TestIncrementalSweeps:
    def test_second_engine_run_hits_the_store(self, tmp_path):
        cells = [Cell("single", "sat-solver", WEE),
                 Cell("members", "parsec-cpu", WEE)]
        first = SweepEngine(store=ResultStore(tmp_path)).run(cells)

        def explode(task):
            cell, _use_cache = task
            raise AssertionError(f"store miss: {cell.kind}:{cell.name}")

        second = SweepEngine(store=ResultStore(tmp_path),
                             worker=explode).run(cells)
        for first_runs, second_runs in zip(first, second):
            for a, b in zip(first_runs, second_runs):
                assert a.result == b.result
                assert a.config == b.config

    def test_no_cache_engine_skips_the_store(self, tmp_path):
        cells = [Cell("single", "sat-solver", WEE)]
        store = ResultStore(tmp_path)
        SweepEngine(store=store, use_cache=False).run(cells)
        assert store.stats()["entries"] == 0

    def test_restored_figure_table_is_byte_identical(self, tmp_path):
        from repro.core.experiments import figure7

        fresh = figure7.run(WEE, engine=SweepEngine(
            store=ResultStore(tmp_path)))
        restored = figure7.run(WEE, engine=SweepEngine(
            store=ResultStore(tmp_path)))
        assert fresh.to_text() == restored.to_text()
