"""Figure 9 on the sweep rails: caching, checkpoints, validation.

Fleet cells run on the one sweep engine, so the same guarantees are
asserted here (and, kind by kind, in ``tests/core/test_cell_kinds.py``):
``--jobs N`` byte-identical to serial, results cached and re-served
from the store, interrupted sweeps resumable from the checkpoint
journal, and every summary validation-gated before it is accepted.
"""

from __future__ import annotations

import copy

import pytest

from repro.cluster.service import ClusterConfig, simulate
from repro.cluster.sweep import ClusterCell, ClusterSweepEngine
from repro.core.experiments import figure9_cluster
from repro.core.runner import RunConfig
from repro.core.store import ResultStore
from repro.core.supervise import SweepCellError
from repro.core.sweep import SweepEngine, _cell_worker
from repro.core.validate import (ValidationError, check_cluster_summary,
                                 validate_cluster_summaries)
from repro.faults.retry import RetryPolicy

TINY = RunConfig(window_uops=15_000, warm_uops=1_000, seed=5)


def _tiny_cells() -> list[ClusterCell]:
    return figure9_cluster.build_cells(TINY, fleets=[2])


@pytest.fixture(scope="module")
def good_summary() -> dict:
    return simulate(ClusterConfig(fleet=2, requests=200, seed=1))


# -- validation gate -------------------------------------------------------
class TestClusterValidation:
    def test_real_summary_passes(self, good_summary):
        assert check_cluster_summary(good_summary) == []
        validate_cluster_summaries([good_summary], context="test")

    def test_missing_counter_is_rejected(self, good_summary):
        broken = copy.deepcopy(good_summary)
        del broken["p999"]
        assert any("p999" in defect
                   for defect in check_cluster_summary(broken))

    def test_unbalanced_books_are_rejected(self, good_summary):
        broken = copy.deepcopy(good_summary)
        broken["successes"] += 1
        assert check_cluster_summary(broken)

    def test_inverted_tail_is_rejected(self, good_summary):
        broken = copy.deepcopy(good_summary)
        broken["p50"] = broken["p99"] + 1
        assert check_cluster_summary(broken)

    def test_latency_above_bound_is_rejected(self, good_summary):
        broken = copy.deepcopy(good_summary)
        broken["max"] = broken["latency_bound"] + 1
        assert check_cluster_summary(broken)

    def test_lost_exceeding_acked_is_rejected(self, good_summary):
        broken = copy.deepcopy(good_summary)
        broken["acked_lost"] = broken["acked_writes"] + 1
        assert check_cluster_summary(broken)

    def test_validate_raises_with_context(self, good_summary):
        broken = copy.deepcopy(good_summary)
        broken["goodput"] = 1.5
        with pytest.raises(ValidationError, match="cell x"):
            validate_cluster_summaries([broken], context="cell x")


# -- the figure grid -------------------------------------------------------
class TestFigureGrid:
    def test_grid_covers_fleet_by_skew_by_fault(self):
        cells = figure9_cluster.build_cells(TINY)
        expected = (len(figure9_cluster.DEFAULT_FLEETS)
                    * len(figure9_cluster.SKEWS)
                    * len(figure9_cluster.FAULTS))
        assert len(cells) == expected
        fingerprints = {cell.fingerprint() for cell in cells}
        assert len(fingerprints) == len(cells)

    def test_replication_never_exceeds_fleet(self):
        cells = figure9_cluster.build_cells(TINY, fleets=[1, 2],
                                            replication=3)
        assert all(cell.config.replication <= cell.config.fleet
                   for cell in cells)

    def test_unknown_fault_scenario_raises(self):
        with pytest.raises(KeyError, match="unknown fault"):
            figure9_cluster._fault_plan("meteor-strike", 300)

    def test_unknown_workload_fails_before_any_cell_runs(self):
        with pytest.raises(KeyError, match="no cluster backend"):
            figure9_cluster.build_cells(TINY, workload="no-such-app")


# -- supervision guarantees ------------------------------------------------
class TestClusterEngine:
    def test_serial_and_parallel_runs_are_byte_identical(self):
        serial = figure9_cluster.run(TINY, fleets=[2],
                                     engine=SweepEngine(jobs=1))
        parallel = figure9_cluster.run(TINY, fleets=[2],
                                       engine=SweepEngine(jobs=2))
        assert serial.to_text() == parallel.to_text()

    def test_store_round_trip(self, tmp_path):
        store = ResultStore(tmp_path)
        cell = _tiny_cells()[0]
        summaries = [simulate(cell.config)]
        fingerprint = cell.fingerprint()
        assert store.get_cluster(fingerprint) is None
        store.put_cluster(fingerprint, summaries)
        assert store.get_cluster(fingerprint) == summaries

    def test_store_rejects_defective_summaries(self, tmp_path):
        store = ResultStore(tmp_path)
        with pytest.raises(ValidationError):
            store.put_cluster("f" * 64, [{"requests": -1}])

    def test_cached_cells_are_served_without_reexecution(self, tmp_path):
        cells = _tiny_cells()[:2]
        store = ResultStore(tmp_path)
        first = SweepEngine(store=store).run(cells)

        def bomb(task):
            raise AssertionError("cache miss: cell was re-executed")

        again = SweepEngine(
            store=store, worker=bomb,
            retry=RetryPolicy.for_harness(retries=0)).run(cells)
        assert again == first

    def test_checkpoint_resume_recomputes_only_missing(self, tmp_path):
        cells = _tiny_cells()[:3]
        poison = cells[1].name

        def flaky(task):
            cell, _ = task
            if cell.name == poison:
                raise RuntimeError("injected crash")
            return _cell_worker(task)

        engine = SweepEngine(
            checkpoint_dir=tmp_path, worker=flaky,
            retry=RetryPolicy.for_harness(retries=0))
        with pytest.raises(SweepCellError, match="injected crash"):
            engine.run(cells)

        executed = []

        def counting(task):
            executed.append(task[0].name)
            return _cell_worker(task)

        resumed = SweepEngine(
            checkpoint_dir=tmp_path, resume=True, worker=counting,
            retry=RetryPolicy.for_harness(retries=0)).run(cells)
        assert executed == [poison]  # the two journaled cells replayed
        assert resumed == SweepEngine().run(cells)

    def test_invalid_payload_fails_the_cell(self):
        cells = _tiny_cells()[:1]

        def liar(task):
            return [{"requests": 1}]  # missing every other counter

        engine = SweepEngine(
            worker=liar, retry=RetryPolicy.for_harness(retries=0))
        with pytest.raises(SweepCellError, match="p999 is not an integer"):
            engine.run(cells)

    def test_jobs_must_be_positive(self):
        with pytest.raises(ValueError, match="jobs"):
            ClusterSweepEngine(jobs=0)

    def test_old_engine_name_binds_its_own_run(self):
        """``ClusterSweepEngine`` stays constructible with its old
        keywords, and binds ``run`` in its own namespace, so wrapping
        ``SweepEngine.run`` and ``ClusterSweepEngine.run`` as two
        sites never wraps one function twice."""
        engine = ClusterSweepEngine(jobs=1, use_cache=False, store=None,
                                    retry=None, checkpoint_dir=None,
                                    resume=False, worker=None)
        assert isinstance(engine, SweepEngine)
        assert ClusterSweepEngine.__dict__["run"] is SweepEngine.run


# -- measured service costs ------------------------------------------------
class TestMeasuredCosts:
    """The figure grid priced from uarch replay instead of literals."""

    def _model(self, params=None):
        from dataclasses import replace

        config = TINY if params is None else replace(TINY, params=params)
        return figure9_cluster.calibrate_for(config, "data-serving")

    def test_measured_serial_and_parallel_are_byte_identical(self):
        model = self._model()
        serial = figure9_cluster.run(TINY, fleets=[2], costs="measured",
                                     engine=SweepEngine(jobs=1))
        parallel = figure9_cluster.run(TINY, fleets=[2], costs="measured",
                                       engine=SweepEngine(jobs=2))
        assert serial.to_text() == parallel.to_text()
        assert model.source == "measured"

    def test_measured_resume_is_byte_identical_after_a_dead_worker(
            self, tmp_path):
        """An interrupted measured-cost sweep resumes to the same bytes.

        The worker dies mid-grid (the checkpoint journal holding the
        cells that finished, as after a SIGKILL); the resumed run must
        recompute only the missing cell and render identically to an
        uninterrupted run.
        """
        model = self._model()
        cells = figure9_cluster.build_cells(
            TINY, fleets=[2], costs="measured", cost_model=model)[:3]
        poison = cells[1].name

        def flaky(task):
            cell, _ = task
            if cell.name == poison:
                raise RuntimeError("injected crash")
            return _cell_worker(task)

        engine = SweepEngine(
            checkpoint_dir=tmp_path, worker=flaky,
            retry=RetryPolicy.for_harness(retries=0))
        with pytest.raises(SweepCellError, match="injected crash"):
            engine.run(cells)
        resumed = SweepEngine(
            checkpoint_dir=tmp_path, resume=True,
            retry=RetryPolicy.for_harness(retries=0)).run(cells)
        assert resumed == SweepEngine().run(cells)

    def test_measured_differs_from_static_in_the_rendered_table(self):
        static = figure9_cluster.run(TINY, fleets=[2], costs="static")
        measured = figure9_cluster.run(TINY, fleets=[2], costs="measured")
        assert static.to_text() != measured.to_text()
        assert "Service costs: static" in static.notes[-1]
        assert "Service costs: measured" in measured.notes[-1]

    def test_uarch_parameter_change_invalidates_cached_cells(
            self, tmp_path):
        """The acceptance criterion: a measured-cost cell's cache entry
        dies with the machine configuration that priced it."""
        from dataclasses import replace

        model_a = self._model()
        model_b = self._model(params=replace(
            TINY.params, rob_entries=TINY.params.rob_entries // 2))
        assert model_a.uarch != model_b.uarch

        cells_a = figure9_cluster.build_cells(
            TINY, fleets=[2], costs="measured", cost_model=model_a)[:2]
        cells_b = figure9_cluster.build_cells(
            TINY, fleets=[2], costs="measured", cost_model=model_b)[:2]
        for cell_a, cell_b in zip(cells_a, cells_b):
            assert cell_a.fingerprint() != cell_b.fingerprint()

        store = ResultStore(tmp_path)
        primed = SweepEngine(store=store).run(cells_a)

        def bomb(task):
            raise AssertionError("cache miss: cell was re-executed")

        served = SweepEngine(
            store=store, worker=bomb,
            retry=RetryPolicy.for_harness(retries=0)).run(cells_a)
        assert served == primed  # same params: cache hit, bomb unexercised
        with pytest.raises(SweepCellError):
            SweepEngine(store=store, worker=bomb,
                        retry=RetryPolicy.for_harness(retries=0)
                        ).run(cells_b)

    def test_static_cells_reject_an_attached_model(self):
        with pytest.raises(ValueError, match="takes no cost_model"):
            ClusterConfig(fleet=2, requests=200, costs="static",
                          cost_model=self._model())

    def test_measured_cells_require_a_model(self):
        with pytest.raises(ValueError, match="measured"):
            ClusterConfig(fleet=2, requests=200, costs="measured")

    def test_delta_table_compares_cell_by_cell(self):
        table = figure9_cluster.delta_table(TINY, fleets=[2])
        assert len(table.rows) == (len(figure9_cluster.SKEWS)
                                   * len(figure9_cluster.FAULTS))
        for row in table.rows:
            assert int(row["p50 static"]) > 0
            assert int(row["p50 measured"]) > 0
            expected = (int(row["p99 measured"]) - int(row["p99 static"])
                        ) / int(row["p99 static"])
            assert float(row["p99 shift"]) == pytest.approx(expected)
        assert any("static" in note for note in table.notes)
        assert any("measured" in note for note in table.notes)


# -- the rendered figure ---------------------------------------------------
class TestFigureNine:
    def test_table_shape_and_invariants(self):
        table = figure9_cluster.run(TINY, fleets=[2])
        assert len(table.rows) == (len(figure9_cluster.SKEWS)
                                   * len(figure9_cluster.FAULTS))
        for row in table.rows:
            assert 0.0 <= float(row["Goodput"]) <= 1.0
            assert int(row["p50 (us)"]) <= int(row["p99 (us)"]) \
                <= int(row["p999 (us)"])
            assert int(row["Lost"]) == 0
        faults = {row["Fault"] for row in table.rows}
        assert faults == set(figure9_cluster.FAULTS)
