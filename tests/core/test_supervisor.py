"""The sweep supervisor: crash isolation, deadlines, retries, resume.

The misbehaving workers are driven by *flag files*: a worker that finds
its flag removes it first and then misbehaves, so the first attempt
fails deterministically and every retry succeeds — which is exactly the
transient-fault shape (OOM kill, preemption, wedged I/O) the supervisor
exists to absorb.  Flags live in a tmpdir advertised through
``REPRO_SUPERVISOR_TEST_DIR`` (inherited by pool workers).
"""

from __future__ import annotations

import json
import os
import pathlib
import signal
import time

import pytest

from repro.core.runner import RunConfig
from repro.core.store import ResultStore
from repro.core.supervise import (
    SweepCellError,
    SweepCheckpoint,
    sweep_digest,
)
from repro.core.sweep import Cell, SweepEngine, _cell_worker
from repro.faults.retry import RetryPolicy

WEE = RunConfig(window_uops=6_000, warm_uops=2_000)
NAMES = ("sat-solver", "mapreduce", "web-search")

#: Fast backoff so retry tests stay quick; no deadline unless asked.
FAST = RetryPolicy.for_harness(retries=2, base_delay=0.05, cap_delay=0.2)


def _flag_dir() -> pathlib.Path:
    return pathlib.Path(os.environ["REPRO_SUPERVISOR_TEST_DIR"])


def _consume_flag(name: str) -> bool:
    """True (once) if the flag exists; removing it arms the retry."""
    flag = _flag_dir() / name
    if flag.exists():
        flag.unlink()
        return True
    return False


def _killed_once_worker(task):
    cell, _use_cache = task
    if _consume_flag(f"kill-{cell.name}"):
        os.kill(os.getpid(), signal.SIGKILL)
    return _cell_worker(task)


def _raises_once_worker(task):
    cell, _use_cache = task
    if _consume_flag(f"raise-{cell.name}"):
        raise RuntimeError("injected transient failure")
    return _cell_worker(task)


def _hangs_once_worker(task):
    cell, _use_cache = task
    if _consume_flag(f"hang-{cell.name}"):
        time.sleep(120)
    return _cell_worker(task)


def _always_raises_worker(task):
    cell, _use_cache = task
    if (_flag_dir() / f"doomed-{cell.name}").exists():  # never consumed
        raise RuntimeError("injected permanent failure")
    return _cell_worker(task)


def _recording_worker(task):
    cell, _use_cache = task
    (_flag_dir() / f"ran-{cell.name}").touch()
    return _cell_worker(task)


@pytest.fixture()
def flag_dir(tmp_path, monkeypatch) -> pathlib.Path:
    flags = tmp_path / "flags"
    flags.mkdir()
    monkeypatch.setenv("REPRO_SUPERVISOR_TEST_DIR", str(flags))
    return flags


def _cells() -> list[Cell]:
    return [Cell("single", name, WEE) for name in NAMES]


@pytest.fixture(scope="module")
def serial_reference():
    """The ground truth: an unsupervised, uncached serial sweep."""
    return SweepEngine(jobs=1, use_cache=False).run(_cells())


def _assert_tables_identical(results, reference):
    assert len(results) == len(reference)
    for runs, expected_runs in zip(results, reference):
        assert len(runs) == len(expected_runs)
        for run, expected in zip(runs, expected_runs):
            assert run.result == expected.result
            assert run.config == expected.config
            assert run.name == expected.name


class TestCrashIsolation:
    def test_worker_exception_is_retried_to_a_full_table(
            self, flag_dir, serial_reference):
        (flag_dir / f"raise-{NAMES[0]}").touch()
        engine = SweepEngine(jobs=2, use_cache=False, retry=FAST,
                             worker=_raises_once_worker)
        _assert_tables_identical(engine.run(_cells()), serial_reference)
        assert not (flag_dir / f"raise-{NAMES[0]}").exists()

    def test_sigkilled_worker_only_costs_the_cells_in_flight(
            self, flag_dir, serial_reference):
        """The acceptance scenario: SIGKILL mid-cell, byte-identical
        table after the pool respawn and retry."""
        (flag_dir / f"kill-{NAMES[0]}").touch()
        engine = SweepEngine(jobs=2, use_cache=False, retry=FAST,
                             worker=_killed_once_worker)
        _assert_tables_identical(engine.run(_cells()), serial_reference)

    def test_cell_exceeding_its_deadline_is_killed_and_retried(
            self, flag_dir, serial_reference):
        (flag_dir / f"hang-{NAMES[0]}").touch()
        # The deadline clock starts at pool.submit, so it absorbs pool
        # fork time and CPU contention from sibling cells; on a 1-CPU
        # runner the three WEE cells alone cost ~1.5s of CPU.  Keep the
        # deadline far below the 120s hang but comfortably above that.
        policy = RetryPolicy.for_harness(timeout=5.0, retries=2,
                                         base_delay=0.05, cap_delay=0.2)
        engine = SweepEngine(jobs=2, use_cache=False, retry=policy,
                             worker=_hangs_once_worker)
        started = time.monotonic()
        _assert_tables_identical(engine.run(_cells()), serial_reference)
        # The hung worker must have been killed, not waited out.
        assert time.monotonic() - started < 60

    def test_exhausted_retries_surface_after_the_rest_completes(
            self, flag_dir, tmp_path):
        (flag_dir / f"doomed-{NAMES[0]}").touch()
        store = ResultStore(tmp_path / "store")
        engine = SweepEngine(jobs=2, use_cache=True, store=store,
                             retry=FAST, worker=_always_raises_worker,
                             checkpoint_dir=tmp_path / "ckpt")
        with pytest.raises(SweepCellError) as exc:
            engine.run(_cells())
        assert NAMES[0] in str(exc.value)
        assert "injected permanent failure" in str(exc.value)
        assert len(exc.value.failures) == 1
        # The healthy cell finished and was persisted before the raise.
        healthy_print = Cell("single", NAMES[1], WEE).fingerprint()
        assert store.get(healthy_print) is not None


class TestSerialSupervision:
    """The serial path calls ``worker`` in-process, so plain closures
    stand in for the flag-file workers here."""

    def test_transient_serial_failure_is_retried(self, serial_reference):
        calls = {"failures": 0}

        def flaky(task):
            if task[0].name == NAMES[0] and calls["failures"] == 0:
                calls["failures"] += 1
                raise RuntimeError("transient")
            return _cell_worker(task)

        engine = SweepEngine(jobs=1, use_cache=False, retry=FAST,
                             worker=flaky)
        _assert_tables_identical(engine.run(_cells()), serial_reference)
        assert calls["failures"] == 1

    def test_permanent_serial_failure_raises_sweep_cell_error(self):
        def doomed(task):
            raise RuntimeError("permanent")

        policy = RetryPolicy.for_harness(retries=1, base_delay=0.01,
                                         cap_delay=0.01)
        with pytest.raises(SweepCellError) as exc:
            SweepEngine(jobs=1, use_cache=False, retry=policy,
                        worker=doomed).run(_cells())
        # Every cell failed independently; each was attempted twice.
        assert len(exc.value.failures) == len(NAMES)
        assert all(f["attempts"] == 2 for f in exc.value.failures)

    def test_run_flat_names_the_cell_that_produced_no_runs(self):
        engine = SweepEngine(jobs=1, use_cache=False, retry=FAST,
                             worker=lambda task: [])
        with pytest.raises(ValueError, match="single:sat-solver"):
            engine.run_flat([Cell("single", "sat-solver", WEE)])

    def test_jobs2_with_one_pending_cell_still_calls_the_worker(self):
        """A single pending cell runs serially even under ``jobs=2``,
        and the serial path goes through ``worker`` all the same."""
        executed = []

        def recording(task):
            executed.append(task[0].name)
            return _cell_worker(task)

        SweepEngine(jobs=2, use_cache=False, worker=recording).run(
            [Cell("single", NAMES[0], WEE)])
        assert executed == [NAMES[0]]


class TestCheckpointResume:
    def test_interrupted_sweep_resumes_only_unfinished_cells(
            self, flag_dir, tmp_path, serial_reference):
        """Acceptance: two cells fail permanently, the third is
        journaled; the --resume rerun executes *only* the failed two."""
        ckpt = tmp_path / "ckpt"
        (flag_dir / f"doomed-{NAMES[0]}").touch()
        (flag_dir / f"doomed-{NAMES[1]}").touch()
        engine = SweepEngine(jobs=2, use_cache=False, retry=FAST,
                             worker=_always_raises_worker,
                             checkpoint_dir=ckpt)
        with pytest.raises(SweepCellError):
            engine.run(_cells())
        journals = list(ckpt.glob("sweep-*.json"))
        assert len(journals) == 1  # the interrupted sweep left its journal

        resumed = SweepEngine(jobs=2, use_cache=False, retry=FAST,
                              worker=_recording_worker,
                              checkpoint_dir=ckpt, resume=True)
        _assert_tables_identical(resumed.run(_cells()), serial_reference)
        ran = sorted(p.name for p in flag_dir.glob("ran-*"))
        # The journaled cell was skipped; only the failed two reran.
        assert ran == sorted(f"ran-{name}" for name in NAMES[:2])
        assert list(ckpt.glob("sweep-*.json")) == []  # journal retired

    def test_without_resume_a_stale_journal_is_discarded(
            self, flag_dir, tmp_path):
        ckpt = tmp_path / "ckpt"
        cells = _cells()
        engine = SweepEngine(jobs=1, use_cache=False, retry=FAST,
                             checkpoint_dir=ckpt)
        engine.run(cells)  # completes: journal retired
        # Seed a journal, then rerun without resume: every cell reruns.
        fingerprints = [cell.fingerprint() for cell in cells]
        seeded = SweepCheckpoint(ckpt, fingerprints)
        seeded.put(fingerprints[0], [{"bogus": True}])
        fresh = SweepEngine(jobs=1, use_cache=False, retry=FAST,
                            checkpoint_dir=ckpt, resume=False)
        results = fresh.run(cells)
        assert all(runs for runs in results)

    def test_journal_from_a_different_sweep_is_not_trusted(self, tmp_path):
        cells_a = [Cell("single", NAMES[0], WEE)]
        cells_b = [Cell("single", NAMES[1], WEE)]
        prints_a = [c.fingerprint() for c in cells_a]
        prints_b = [c.fingerprint() for c in cells_b]
        assert sweep_digest(prints_a) != sweep_digest(prints_b)
        a = SweepCheckpoint(tmp_path, prints_a)
        a.put(prints_a[0], [{"x": 1}])
        # Same directory, different cell set: different journal file.
        b = SweepCheckpoint(tmp_path, prints_b, resume=True)
        assert b.get(prints_a[0]) is None

    def test_torn_journal_entry_is_recomputed(self, tmp_path,
                                              serial_reference):
        ckpt = tmp_path / "ckpt"
        cells = _cells()
        fingerprints = [cell.fingerprint() for cell in cells]
        seeded = SweepCheckpoint(ckpt, fingerprints)
        seeded.put(fingerprints[0], [{"name": "sat-solver"}])  # torn payload
        engine = SweepEngine(jobs=1, use_cache=False, retry=FAST,
                             checkpoint_dir=ckpt, resume=True)
        _assert_tables_identical(engine.run(cells), serial_reference)

    @pytest.mark.parametrize("resume", [False, True])
    def test_non_utf8_journal_starts_fresh(self, tmp_path, resume):
        """A journal holding bytes that are not UTF-8 (torn by older
        tooling) is discarded, with or without ``--resume``, instead of
        crashing every sweep over that cell set."""
        fingerprints = [Cell("single", NAMES[0], WEE).fingerprint()]
        seeded = SweepCheckpoint(tmp_path, fingerprints)
        seeded.put(fingerprints[0], [{"x": 1}])
        seeded.path.write_bytes(b'{"cells": \xff}')
        checkpoint = SweepCheckpoint(tmp_path, fingerprints, resume=resume)
        assert len(checkpoint) == 0
        assert checkpoint.get(fingerprints[0]) is None

    def test_checkpoint_digest_is_order_insensitive(self):
        assert sweep_digest(["b", "a"]) == sweep_digest(["a", "b", "a"])


class TestValidationGate:
    def test_invalid_worker_payload_is_retried_then_reported(self):
        """A worker shipping implausible counters must never land in
        the results; the supervisor retries, then reports the cell."""
        attempts = []

        def corrupting(task):
            attempts.append(task[0].name)
            payload = _cell_worker(task)
            payload[0]["result"]["cycles"] = -1
            return payload

        policy = RetryPolicy.for_harness(retries=1, base_delay=0.01,
                                         cap_delay=0.01)
        with pytest.raises(SweepCellError) as exc:
            SweepEngine(jobs=1, use_cache=False, retry=policy,
                        worker=corrupting).run(
                [Cell("single", NAMES[0], WEE)])
        assert "negative" in str(exc.value)
        assert attempts == [NAMES[0]] * 2
