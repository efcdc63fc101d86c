"""The sweep engine: fingerprints, cells, parallelism, and the cache fix.

The fingerprint tests double as the regression suite for the
measurement-cache aliasing bug: the historical key hashed only a subset
of ``MachineParams``, so two configurations differing in (for example)
``memory_latency`` shared one cache entry and sweeps over the memory
subsystem silently returned the first-seen configuration's results.
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys
from dataclasses import fields, replace

import pytest

from repro.core.runner import (
    RunConfig,
    RunawayTraceError,
    clear_cache,
    run_workload,
    run_workload_members,
)
from repro.core.sweep import Cell, SweepEngine, canonical, config_fingerprint
from repro.faults.plan import FaultPlan
from repro.machine.hashing import stable_hash
from repro.uarch.params import CacheParams, MachineParams, PrefetcherParams
from repro.uarch.uop import MicroOp, OpKind

WEE = RunConfig(window_uops=6_000, warm_uops=2_000)


def _perturbed(value: object) -> object:
    """A value of the same type that must change the fingerprint."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, float):
        return value * 2.0 + 1.0
    if isinstance(value, CacheParams):
        return replace(value, size_bytes=value.size_bytes * 2)
    if isinstance(value, PrefetcherParams):
        return replace(value, l1i_next_line=not value.l1i_next_line)
    raise AssertionError(f"no perturbation rule for {type(value).__name__}; "
                         "extend _perturbed alongside the new field type")


class TestConfigFingerprint:
    def test_memory_latency_no_longer_aliases(self):
        """The headline bug: memory_latency was absent from the old key."""
        base = RunConfig()
        changed = replace(base, params=replace(base.params,
                                               memory_latency=250))
        assert config_fingerprint("single", "x", base) \
            != config_fingerprint("single", "x", changed)

    @pytest.mark.parametrize(
        "field_name", [f.name for f in fields(MachineParams)]
    )
    def test_every_machine_param_field_is_significant(self, field_name):
        """Perturbing ANY machine parameter must change the fingerprint
        — the structural derivation makes omissions impossible."""
        base = RunConfig()
        new_value = _perturbed(getattr(base.params, field_name))
        changed = replace(base, params=replace(base.params,
                                               **{field_name: new_value}))
        assert config_fingerprint("single", "x", base) \
            != config_fingerprint("single", "x", changed)

    @pytest.mark.parametrize("field_name,value", [
        ("window_uops", 123_456),
        ("warm_uops", 54_321),
        ("seed", 4242),
        ("fault_plan", FaultPlan.degraded(seed=1)),
    ])
    def test_run_config_fields_are_significant(self, field_name, value):
        base = RunConfig()
        changed = replace(base, **{field_name: value})
        assert config_fingerprint("single", "x", base) \
            != config_fingerprint("single", "x", changed)

    def test_fault_plan_details_are_significant(self):
        base = replace(RunConfig(), fault_plan=FaultPlan.degraded(seed=1))
        seed = replace(RunConfig(), fault_plan=FaultPlan.degraded(seed=2))
        hot = replace(RunConfig(),
                      fault_plan=FaultPlan.degraded(seed=1, intensity=2.0))
        prints = {config_fingerprint("single", "x", c)
                  for c in (base, seed, hot)}
        assert len(prints) == 3

    def test_kind_and_name_are_significant(self):
        config = RunConfig()
        assert config_fingerprint("single", "x", config) \
            != config_fingerprint("smt", "x", config)
        assert config_fingerprint("single", "x", config) \
            != config_fingerprint("single", "y", config)

    def test_stable_across_calls(self):
        a = config_fingerprint("single", "x", RunConfig())
        b = config_fingerprint("single", "x", RunConfig())
        assert a == b
        assert len(a) == 64  # sha256 hex

    def test_unfingerprintable_value_is_a_hard_error(self):
        with pytest.raises(TypeError):
            canonical(object())


class TestRunnerCacheRegression:
    """The LRU in runner.py keys on the full fingerprint now."""

    def test_memory_latency_sweep_gets_distinct_entries(self):
        clear_cache()
        slow = replace(WEE, params=replace(WEE.params, memory_latency=400))
        a = run_workload("sat-solver", WEE)
        b = run_workload("sat-solver", slow)
        # With the old hand-picked key these were one cache entry and
        # `b` came back as the stale `a` object.
        assert a is not b
        assert a.result.cycles != b.result.cycles
        # Identical configurations still share one entry.
        assert run_workload("sat-solver", WEE) is a
        assert run_workload("sat-solver", slow) is b

    @pytest.mark.parametrize("field_name,value", [
        ("memory_channels", 6),
        ("peak_bandwidth_bytes_per_s", 64e9),
        ("mshr_entries", 32),
    ])
    def test_other_missing_dimensions_no_longer_alias(self, field_name,
                                                      value):
        clear_cache()
        changed = replace(WEE, params=replace(WEE.params,
                                              **{field_name: value}))
        a = run_workload("sat-solver", WEE)
        b = run_workload("sat-solver", changed)
        assert a is not b

    def test_members_honour_use_cache(self):
        clear_cache()
        first = run_workload_members("parsec-cpu", WEE)
        cached = run_workload_members("parsec-cpu", WEE)
        assert all(a is b for a, b in zip(first, cached))
        fresh = run_workload_members("parsec-cpu", WEE, use_cache=False)
        assert all(a is not b for a, b in zip(first, fresh))


class TestCellsAndEngine:
    def test_unknown_cell_kind_rejected(self):
        with pytest.raises(ValueError):
            Cell("quadruple", "sat-solver", WEE)

    def test_bad_jobs_rejected(self):
        with pytest.raises(ValueError):
            SweepEngine(jobs=0)

    def test_chip_cell_geometry_in_fingerprint(self):
        a = Cell("chip", "sat-solver", WEE, num_cores=2, segments=2)
        b = Cell("chip", "sat-solver", WEE, num_cores=4, segments=2)
        assert a.fingerprint() != b.fingerprint()

    def test_engine_preserves_cell_order(self):
        engine = SweepEngine()
        results = engine.run([Cell("single", "sat-solver", WEE),
                              Cell("members", "parsec-cpu", WEE),
                              Cell("single", "mapreduce", WEE)])
        assert [len(r) for r in results] == [1, 2, 1]
        assert results[0][0].name == "sat-solver"
        assert {r.name for r in results[1]} \
            == {"parsec-cpu:blackscholes", "parsec-cpu:swaptions"}
        assert results[2][0].name == "mapreduce"

    def test_parallel_results_match_serial_bit_for_bit(self):
        cells = [Cell("single", name, WEE)
                 for name in ("sat-solver", "mapreduce", "web-search")]
        serial = SweepEngine(jobs=1, use_cache=False).run(cells)
        parallel = SweepEngine(jobs=2, use_cache=False).run(cells)
        for s_runs, p_runs in zip(serial, parallel):
            for s, p in zip(s_runs, p_runs):
                assert s.result == p.result
                assert s.config == p.config

    def test_parallel_figure_table_is_byte_identical(self):
        from repro.core.experiments import figure4

        kwargs = dict(sizes_mb=(4, 8), scale_out_names=["sat-solver"])
        serial = figure4.run(WEE, engine=SweepEngine(jobs=1), **kwargs)
        parallel = figure4.run(
            WEE, engine=SweepEngine(jobs=2, use_cache=False), **kwargs)
        assert serial.to_text() == parallel.to_text()


class TestHashSeedInvariance:
    """Simulated layouts must not depend on PYTHONHASHSEED.

    Builtin ``hash()`` is salted per process, so anything derived from
    it (branch-site PCs, lock/bucket slots, shuffle partitions) made
    results differ between the serial path and pool workers — the
    reason parallel tables weren't byte-identical to serial ones.
    Everything now routes through ``stable_hash``.
    """

    def test_stable_hash_is_deterministic_and_sensitive(self):
        assert stable_hash("district", 3) == stable_hash("district", 3)
        assert stable_hash("district", 3) != stable_hash("district", 4)
        assert stable_hash("a", "b") != stable_hash("b", "a")
        assert 0 <= stable_hash("x") <= 0xFFFFFFFF

    @pytest.mark.parametrize("workload", ["tpc-c", "web-frontend"])
    def test_results_invariant_under_hash_seed(self, workload):
        """tpc-c (lock-table tuples) and web-frontend (branch sites)
        were the workloads whose cycles moved with the hash salt."""
        program = (
            "from repro.core.runner import RunConfig, run_workload;"
            f"r = run_workload({workload!r}, RunConfig(window_uops=6000,"
            " warm_uops=2000));"
            "print(r.result.cycles, r.result.offchip_bytes)"
        )
        outputs = set()
        for hash_seed in ("11", "22"):
            env = dict(os.environ,
                       PYTHONHASHSEED=hash_seed,
                       PYTHONPATH=str(pathlib.Path(__file__)
                                      .resolve().parents[2] / "src"))
            proc = subprocess.run([sys.executable, "-c", program],
                                  capture_output=True, text=True, env=env,
                                  check=True)
            outputs.add(proc.stdout)
        assert len(outputs) == 1, f"hash-salt-dependent results: {outputs}"


class _WedgedApp:
    """An app whose serve loop ignores its budget — trace never ends."""

    def warm(self, hierarchy, trace_uops=0):
        pass

    def trace(self, tid, budget):
        seq = 0
        while True:
            seq += 1
            yield MicroOp(OpKind.ALU, pc=0x1000 + (seq % 64) * 4,
                          seq=seq, tid=tid)


class TestAblationWatchdog:
    """Ablations route ad-hoc runs through the watchdog guard, so a
    wedged trace raises instead of hanging the sweep."""

    WEDGE = RunConfig(window_uops=1_000, warm_uops=500)

    def test_narrow_cores_raises_on_wedged_trace(self, monkeypatch):
        from repro.core.experiments import ablations

        monkeypatch.setattr(ablations, "build_app",
                            lambda name, seed=0: _WedgedApp())
        with pytest.raises(RunawayTraceError):
            ablations.narrow_cores(self.WEDGE, workloads=["data-serving"])

    def test_core_aggressiveness_raises_on_wedged_trace(self, monkeypatch):
        from repro.core.experiments import ablations

        monkeypatch.setattr(ablations, "build_app",
                            lambda name, seed=0: _WedgedApp())
        with pytest.raises(RunawayTraceError):
            ablations.core_aggressiveness(self.WEDGE,
                                          workloads=["data-serving"])

    def test_watchdog_passes_well_behaved_apps(self):
        run = run_workload("sat-solver", WEE, use_cache=False)
        assert run.result.instructions >= WEE.window_uops
