"""Golden counters: the cycle loop's output, frozen byte-for-byte.

``golden_counters.json`` holds every ``COUNTER_NAMES`` counter (as a
float) and ``per_thread_instructions`` for every measurement shape the
figures use — a replayed capture, a live single thread, a live SMT pair, the
synthetic groups' members, a four-core chip run in eight segments, a
fault-injected capture, a 128-byte-line machine and a 4 MB LLC (one of
the Figure 4 sweep sizes).  The replay, member and fault cases also
hold the SHA-256 trailer of the captured trace's serialization, so a
moved address, RNG draw or sequence number fails even where the
counters happen to agree.  Any change to the core model that moves a
counter fails here; a deliberate one regenerates the fixture with::

    PYTHONPATH=src python -m tests.uarch.test_golden_counters

and says why in the commit.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.core.runner import _GROUP_MEMBERS, RunConfig, run_workload_chip
from repro.core.workloads import REGISTRY, build_app
from repro.faults.plan import FaultPlan
from repro.trace.capture import TraceKey, build_app_for, capture
from repro.trace.live import live_stream, warm_app
from repro.trace.replay import replay_trace
from repro.trace.store import serialize
from repro.uarch.core import Core, CoreResult
from repro.uarch.counters import COUNTER_NAMES
from repro.uarch.hierarchy import MemoryHierarchy
from repro.uarch.params import MachineParams
from tests.trace.test_replay_equivalence import wide_line_params

FIXTURE = pathlib.Path(__file__).with_name("golden_counters.json")
WINDOW = 3_000
WARM = 1_000
#: Long enough that the degraded plan's first windows open mid-trace
#: and fire in every variant workload.
FAULT_WINDOW = 8_000
#: Workloads measured in the chip, fault-plan, wide-line and small-LLC
#: shapes.
VARIANT_WORKLOADS = ("data-serving", "web-search", "sat-solver")


def _record(result: CoreResult, captured=None) -> dict:
    record = {"counters": {name: float(getattr(result, name))
                           for name in COUNTER_NAMES},
              "per_thread_instructions": list(result.per_thread_instructions)}
    if captured is not None:
        # The store container's own SHA-256 trailer: every trace byte.
        record["capture_sha256"] = serialize(captured)[-32:].hex()
    return record


def _replayed(key: TraceKey, params: MachineParams,
              pin_trace: bool = False) -> dict:
    captured, _app = capture(key)
    return _record(replay_trace(captured, params),
                   captured if pin_trace else None)


def _live(app, params: MachineParams, budgets: tuple[int, ...],
          label: str) -> dict:
    hierarchy = MemoryHierarchy(params)
    warm_app(app, hierarchy, WARM)
    streams = [live_stream(app, tid, budget, label)
               for tid, budget in enumerate(budgets)]
    return _record(Core(params, hierarchy).run(streams))


def _case_replay(name: str) -> dict:
    return _replayed(TraceKey(name, window_uops=WINDOW, warm_uops=WARM),
                     MachineParams(), pin_trace=True)


def _case_live(name: str) -> dict:
    key = TraceKey(name, window_uops=WINDOW, warm_uops=WARM)
    return _live(build_app_for(key), MachineParams(), (WINDOW,), name)


def _case_smt(name: str) -> dict:
    half = WINDOW // 2
    return _live(build_app(name), MachineParams().with_smt(2),
                 (half, half), name)


def _case_member(name: str) -> dict:
    group, member = name.split(":")
    key = TraceKey(group, member=member, window_uops=WINDOW // 2,
                   warm_uops=WARM // 2)
    return _replayed(key, MachineParams(), pin_trace=True)


def _case_chip(name: str) -> dict:
    config = RunConfig(window_uops=WINDOW, warm_uops=WARM)
    run = run_workload_chip(name, config, num_cores=4, segments=8,
                            use_cache=False)
    return {"per_core": [_record(core) for core in run.result.per_core]}


def _case_faults(name: str) -> dict:
    plan = FaultPlan.degraded(seed=3, intensity=1.5)
    captured, app = capture(TraceKey(name, window_uops=FAULT_WINDOW,
                                     warm_uops=WARM, fault_plan=plan))
    assert app.faults.total_fired() > 0, f"no fault fired in {name}"
    return _record(replay_trace(captured, MachineParams()), captured)


def _case_wide(name: str) -> dict:
    return _replayed(TraceKey(name, window_uops=WINDOW, warm_uops=WARM),
                     wide_line_params())


def _case_small_llc(name: str) -> dict:
    return _replayed(TraceKey(name, window_uops=WINDOW, warm_uops=WARM),
                     MachineParams().with_llc_mb(4))


SHAPES = {
    "replay": _case_replay,
    "live": _case_live,
    "smt": _case_smt,
    "member": _case_member,
    "chip": _case_chip,
    "faults": _case_faults,
    "wide": _case_wide,
    "small-llc": _case_small_llc,
}

CASES = (
    [f"{shape}-{name}" for shape in ("replay", "live", "smt")
     for name in sorted(REGISTRY)]
    + [f"member-{group}:{member}"
       for group, members in sorted(_GROUP_MEMBERS.items())
       for member in members]
    + [f"{shape}-{name}" for shape in ("chip", "faults", "wide", "small-llc")
       for name in VARIANT_WORKLOADS]
)


def measure(case: str) -> dict:
    shape = next(s for s in SHAPES if case.startswith(f"{s}-"))
    return SHAPES[shape](case[len(shape) + 1:])


def _canonical(record: dict) -> str:
    return json.dumps(record, sort_keys=True)


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("case", CASES)
def test_golden_counters(case, golden):
    assert _canonical(measure(case)) == _canonical(golden[case])


def test_fixture_covers_exactly_the_cases(golden):
    assert sorted(golden) == sorted(CASES)


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps({case: measure(case) for case in CASES},
                                  indent=1, sort_keys=True) + "\n")
