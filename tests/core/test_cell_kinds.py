"""One cell-kind matrix over the one sweep engine.

Runner cells (``Cell("single")``), fleet cells (``ClusterCell``) and
Figure 8 rows (``FaultCell``) all run through ``SweepEngine.run``; each
row of the matrix asserts the engine's promises for one kind: serial
equals ``jobs=2``, a store hit never calls the worker, ``--resume``
reruns only the cells missing from the journal, an undecodable or
implausible payload ends in ``SweepCellError`` naming the cell, and a
torn or poisoned journal entry or store document is recomputed.

Workers here are closures: the serial path calls ``worker`` in this
process exactly as pool workers do, so only the ``jobs=2`` row needs
the picklable default.
"""

from __future__ import annotations

import copy
import dataclasses
import json
from typing import Callable

import pytest

from repro.core.experiments import figure8_faults, figure9_cluster
from repro.core.runner import RunConfig, WorkloadRun
from repro.core.store import ResultStore, run_to_dict
from repro.core.supervise import SweepCellError, SweepCheckpoint
from repro.core.sweep import Cell, SweepEngine, _cell_worker
from repro.faults.retry import RetryPolicy

WEE = RunConfig(window_uops=6_000, warm_uops=2_000)
FLEET = RunConfig(window_uops=15_000, warm_uops=1_000, seed=5)
NO_RETRY = RetryPolicy.for_harness(retries=0)


def _negative_cycles(payload):
    payload[0]["result"]["cycles"] = -1


def _unbalanced(payload):
    payload[0]["successes"] += 1


def _poisoned_row(payload):
    payload[0].update(ipc=-7.5, goodput=3.0)


@dataclasses.dataclass(frozen=True)
class Kind:
    """How the matrix builds, breaks and stores one cell kind."""

    cells: Callable[[], list]
    #: A payload the kind's ``decode`` rejects.
    torn: object
    #: Edits a real payload into one its ``validate`` rejects.
    poison: Callable[[list], None]
    #: Diagnosis fragment for the poisoned payload.
    violation: str
    #: The key of the kind's payload in a result-store document.
    document_key: str


KINDS = {
    "single": Kind(
        lambda: [Cell("single", name, WEE)
                 for name in ("sat-solver", "mapreduce")],
        [{"name": "sat-solver"}], _negative_cycles, "cycles is negative",
        "runs"),
    "cluster": Kind(
        lambda: figure9_cluster.build_cells(FLEET, fleets=[2])[:2],
        {"requests": 1}, _unbalanced, "successes + failures", "cluster"),
    "faults": Kind(
        lambda: figure8_faults.cells(WEE, ["data-serving"]),
        [], _poisoned_row, "goodput must be in [0, 1]", "faults"),
}


def _plain(results: list) -> list:
    """Results in payload form, so every kind compares with ``==``."""
    return [[run_to_dict(item) if isinstance(item, WorkloadRun) else item
             for item in cell_results] for cell_results in results]


def _bomb(task):
    raise AssertionError(f"cell was re-executed: {task[0].name}")


class _Counting:
    """A worker that records which cells it executed."""

    def __init__(self) -> None:
        self.executed: list = []

    def __call__(self, task):
        self.executed.append(task[0])
        return _cell_worker(task)


@pytest.fixture(scope="module", params=sorted(KINDS))
def kind(request) -> str:
    return request.param


@pytest.fixture(scope="module")
def reference(kind) -> list:
    """The ground truth: an uncached serial sweep, in payload form."""
    return _plain(SweepEngine(use_cache=False).run(KINDS[kind].cells()))


def test_serial_equals_jobs2(kind, reference):
    parallel = SweepEngine(jobs=2, use_cache=False).run(KINDS[kind].cells())
    assert _plain(parallel) == reference


def test_store_hit_never_calls_the_worker(kind, reference, tmp_path):
    cells = KINDS[kind].cells()
    store = ResultStore(tmp_path)
    SweepEngine(store=store).run(cells)
    served = SweepEngine(store=store, worker=_bomb, retry=NO_RETRY).run(cells)
    assert _plain(served) == reference


def test_resume_reruns_only_missing_cells(kind, reference, tmp_path):
    cells = KINDS[kind].cells()
    victim = cells[1]

    def flaky(task):
        if task[0] == victim:
            raise RuntimeError("injected crash")
        return _cell_worker(task)

    with pytest.raises(SweepCellError, match="injected crash"):
        SweepEngine(checkpoint_dir=tmp_path, worker=flaky,
                    retry=NO_RETRY).run(cells)
    counting = _Counting()
    resumed = SweepEngine(checkpoint_dir=tmp_path, resume=True,
                          worker=counting, retry=NO_RETRY).run(cells)
    assert counting.executed == [victim]
    assert _plain(resumed) == reference
    assert list(tmp_path.glob("sweep-*.json")) == []  # journal retired


def _bad_payload(kind: str, defect: str, reference: list):
    spec = KINDS[kind]
    if defect == "torn":
        return copy.deepcopy(spec.torn)
    payload = copy.deepcopy(reference[0])
    spec.poison(payload)
    return payload


@pytest.mark.parametrize("defect", ["torn", "implausible"])
def test_bad_payload_is_a_sweep_cell_error(kind, reference, defect):
    cell = KINDS[kind].cells()[0]
    payload = _bad_payload(kind, defect, reference)
    with pytest.raises(SweepCellError) as exc:
        SweepEngine(worker=lambda task: copy.deepcopy(payload),
                    retry=NO_RETRY).run([cell])
    message = str(exc.value)
    assert f"{cell.kind}:{cell.name}" in message
    expected = ("undecodable payload" if defect == "torn"
                else KINDS[kind].violation)
    assert expected in message


@pytest.mark.parametrize("defect", ["torn", "implausible"])
def test_bad_journal_entry_is_recomputed(kind, reference, defect, tmp_path):
    cells = KINDS[kind].cells()
    fingerprints = [cell.fingerprint() for cell in cells]
    SweepCheckpoint(tmp_path, fingerprints).put(
        fingerprints[0], _bad_payload(kind, defect, reference))
    counting = _Counting()
    resumed = SweepEngine(checkpoint_dir=tmp_path, resume=True,
                          worker=counting, retry=NO_RETRY).run(cells)
    assert counting.executed == cells
    assert _plain(resumed) == reference


def test_poisoned_store_document_is_quarantined_and_recomputed(
        kind, reference, tmp_path):
    spec = KINDS[kind]
    cells = spec.cells()
    store = ResultStore(tmp_path)
    SweepEngine(store=store).run(cells)
    fingerprint = cells[0].fingerprint()
    path = store.path_for(fingerprint)
    document = json.loads(path.read_bytes())
    spec.poison(document[spec.document_key])
    path.write_text(json.dumps(document))

    counting = _Counting()
    rerun = SweepEngine(store=store, worker=counting,
                        retry=NO_RETRY).run(cells)
    assert counting.executed == [cells[0]]
    assert _plain(rerun) == reference
    reason = store.corrupt_directory / f"{fingerprint}.reason"
    assert spec.violation in reason.read_text()
    assert cells[0].load(store, fingerprint) is not None  # rewritten
