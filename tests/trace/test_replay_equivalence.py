"""Replay equivalence: decoded replay is byte-identical to live timing.

This is the contract the whole refactor rests on: for every workload in
the registry, feeding a core the captured-and-decoded stream produces a
``CoreResult`` whose ``to_counters()`` matches a live generation run
exactly — not approximately.  The live side below is the pre-refactor
runner path, spelled through the same ``LiveSource`` the SMT runs use.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core.workloads import REGISTRY
from repro.faults.plan import FaultPlan
from repro.trace.capture import TraceKey, build_app_for, capture
from repro.trace.columns import batch_for
from repro.trace.live import LiveSource
from repro.trace.replay import ReplaySource, replay_trace
from repro.trace.store import deserialize, serialize
from repro.uarch.core import Core
from repro.uarch.counters import COUNTER_NAMES
from repro.uarch.fastpath import replay_columns
from repro.uarch.hierarchy import MemoryHierarchy
from repro.uarch.params import CacheParams, MachineParams

WINDOW = 6_000
WARM = 2_000


def live_counters(key: TraceKey, params: MachineParams) -> dict:
    """A live measurement: generation feeds the core directly."""
    app = build_app_for(key)
    source = LiveSource(app, budgets=(key.window_uops,),
                        label=key.label(), warm_uops=key.warm_uops)
    hierarchy = MemoryHierarchy(params)
    source.warm_into(hierarchy)
    result = Core(params, hierarchy).run(source.streams())
    return dict(result.to_counters().values)


def replayed_counters(key: TraceKey, params: MachineParams) -> dict:
    """The same measurement through capture, encode, decode, replay."""
    captured, _app = capture(key)
    return dict(replay_trace(captured, params).to_counters().values)


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_every_registered_workload(name):
    key = TraceKey(name, window_uops=WINDOW, warm_uops=WARM)
    params = MachineParams()
    assert replayed_counters(key, params) == live_counters(key, params)


def test_group_member_key():
    key = TraceKey("parsec-cpu", member="blackscholes",
                   window_uops=WINDOW // 2, warm_uops=WARM // 2)
    params = MachineParams()
    assert replayed_counters(key, params) == live_counters(key, params)


def test_fault_plan_runs_replay_identically():
    plan = FaultPlan.degraded(seed=3, intensity=1.5)
    key = TraceKey("data-serving", window_uops=WINDOW, warm_uops=WARM,
                   fault_plan=plan)
    params = MachineParams()
    assert replayed_counters(key, params) == live_counters(key, params)


def test_one_capture_serves_many_machine_configs():
    """The machine-independence invariant, stated directly.

    One captured trace replayed under two different machine parameter
    sets must match a live run under each — i.e. nothing about the
    capture depends on the machine the trace is later timed on.
    """
    key = TraceKey("web-search", window_uops=WINDOW, warm_uops=WARM)
    captured, _app = capture(key)
    baseline = MachineParams()
    variant = baseline.with_llc_mb(4)
    for params in (baseline, variant):
        replayed = dict(replay_trace(captured, params).to_counters().values)
        assert replayed == live_counters(key, params)


# ---------------------------------------------------------------------
# Entry-point equivalence.  The cycle loop has two entry points: a
# finished ColumnBatch (``replay_columns``, the columnar path every
# replay takes) and live MicroOp iterators (``Core.run``, the general
# path SMT pairs, chip segments and ablations take), which it reads
# through an appendable column buffer.  Fed the same capture, the two
# must produce bit-identical counters.

def engine_counters(captured, params: MachineParams, engine: str) -> dict:
    """One measurement through an explicitly chosen entry point."""
    source = ReplaySource(captured)
    hierarchy = MemoryHierarchy(params)
    source.warm_into(hierarchy)
    core = Core(params, hierarchy)
    if engine == "columnar":
        result = replay_columns(core, batch_for(captured.streams[0]))
    else:
        result = core.run(source.streams())
    return dict(result.to_counters().values)


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_columnar_engine_matches_general_loop(name):
    """Every counter, every workload: batch entry ≡ live-iterator entry."""
    key = TraceKey(name, window_uops=WINDOW, warm_uops=WARM)
    captured, _app = capture(key)
    params = MachineParams()
    fast = engine_counters(captured, params, "columnar")
    general = engine_counters(captured, params, "general")
    assert fast == general
    assert set(fast) == set(COUNTER_NAMES)


def wide_line_params() -> MachineParams:
    """The baseline machine rebuilt with 128-byte lines end to end."""
    return replace(
        MachineParams(),
        line_bytes=128,
        l1i=CacheParams(32 * 1024, 4, 4, line_bytes=128),
        l1d=CacheParams(32 * 1024, 8, 4, line_bytes=128),
        l2=CacheParams(256 * 1024, 8, 6, line_bytes=128),
        llc=CacheParams(12 * 1024 * 1024, 16, 29, line_bytes=128),
    )


def test_wide_line_hierarchy_replays_identically():
    """128-byte lines: warming and replay honour the configured size.

    Guards the ``fill_lines``/functional-warming fix — both used to
    hardcode 64-byte steps, so a non-default line size warmed the wrong
    lines and replay silently diverged from live timing.
    """
    key = TraceKey("mapreduce", window_uops=WINDOW, warm_uops=WARM)
    params = wide_line_params()
    assert replayed_counters(key, params) == live_counters(key, params)


def test_wide_line_engines_agree():
    """Entry-point equivalence holds at line_bytes=128 too."""
    key = TraceKey("web-search", window_uops=WINDOW, warm_uops=WARM)
    captured, _app = capture(key)
    params = wide_line_params()
    assert (engine_counters(captured, params, "columnar")
            == engine_counters(captured, params, "general"))


def test_store_round_trip_preserves_counters():
    """Persisting and re-reading the container changes nothing."""
    key = TraceKey("mapreduce", window_uops=WINDOW, warm_uops=WARM)
    captured, _app = capture(key)
    params = MachineParams()
    direct = dict(replay_trace(captured, params).to_counters().values)
    restored = deserialize(serialize(captured))
    assert dict(replay_trace(restored, params).to_counters().values) == direct
