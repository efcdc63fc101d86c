"""One crash/corruption matrix for every kind the blob store persists.

Four document kinds — result runs, fleet summaries, calibrated cost
models (all :class:`ResultStore`) and captured traces
(:class:`TraceStore`) — times every way a stored blob goes bad: torn,
non-UTF-8 bytes, a foreign schema, renamed to another fingerprint, or
physically implausible.  Each cell of the matrix asserts the three
outcomes the blob store promises: ``get`` quarantines with a
``.reason`` sidecar, ``doctor(repair=False)`` reports and moves
nothing, ``doctor()`` quarantines and leaves a clean rescan.  A write
that fails midway is checked per kind; the kind-independent discipline
(stats, stale schemas, the root override) once per store.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pathlib
import shutil
import struct
from typing import Callable

import pytest

from repro import blobstore
from repro.blobstore import default_cache_dir, json_bytes
from repro.cluster.calibrate import static_model
from repro.cluster.service import ClusterConfig, simulate
from repro.core.runner import RunConfig, run_workload
from repro.core.store import ResultStore
from repro.trace.capture import TraceKey, capture
from repro.trace.store import TraceStore

FINGERPRINT = "c" * 64
ALIAS = "d" * 64


@pytest.fixture(scope="module")
def samples() -> dict:
    """One healthy payload per kind (the expensive part, built once)."""
    trace, _app = capture(TraceKey("sat-solver", window_uops=2_000,
                                   warm_uops=500))
    return {
        "runs": [run_workload("sat-solver",
                              RunConfig(window_uops=6_000, warm_uops=2_000))],
        "cluster": [simulate(ClusterConfig(fleet=2, requests=200, seed=1))],
        "calibration": static_model("data-serving").to_doc(),
        "trace": trace,
    }


def _edit_json(data: bytes, edit: Callable[[dict], None]) -> bytes:
    document = json.loads(data)
    edit(document)
    return json_bytes(document)


def _resign(data: bytes, edit: Callable[[dict], None]) -> bytes:
    """Edit a trace container's header and recompute its digest, so the
    decoder's own checks (not the checksum) must catch the edit."""
    framing = struct.Struct("<I")
    body = data[:-32]
    header_len, = framing.unpack_from(body, 8)
    header = json.loads(body[12:12 + header_len])
    edit(header)
    header_bytes = json.dumps(header, sort_keys=True,
                              separators=(",", ":")).encode("utf-8")
    new_body = (body[:8] + framing.pack(len(header_bytes)) + header_bytes
                + body[12 + header_len:])
    return new_body + hashlib.sha256(new_body).digest()


def _unbalance(document):
    document["cluster"][0]["successes"] += 1


def _zero_read_p50(document):
    document["calibration"]["ops"]["read"]["p50"] = 0


def _negative_misses(document):
    document["runs"][0]["result"]["llc_misses"] = -1


def _overcount_warm(header):
    header["sections"][0]["uops"] += 1


@dataclasses.dataclass(frozen=True)
class Kind:
    """How the matrix writes, reads and edits one document kind."""

    store: type
    put: Callable
    get: Callable
    edit: Callable[[bytes, Callable[[dict], None]], bytes]
    implausible: Callable[[dict], None]
    #: Diagnosis fragments for a torn blob and an implausible one.
    torn_reason: str
    implausible_reason: str


KINDS = {
    "runs": Kind(ResultStore,
                 lambda store, runs: store.put(FINGERPRINT, runs),
                 ResultStore.get, _edit_json, _negative_misses,
                 "not valid JSON", "llc_misses is negative"),
    "cluster": Kind(ResultStore,
                    lambda store, sums: store.put_cluster(FINGERPRINT, sums),
                    ResultStore.get_cluster, _edit_json, _unbalance,
                    "not valid JSON", "successes + failures"),
    "calibration": Kind(
        ResultStore,
        lambda store, model: store.put_calibration(FINGERPRINT, model),
        ResultStore.get_calibration, _edit_json, _zero_read_p50,
        "not valid JSON", "read.p50 must be positive"),
    "trace": Kind(TraceStore,
                  lambda store, trace: store.put(
                      dataclasses.replace(trace, fingerprint=FINGERPRINT)),
                  TraceStore.get, _resign, _overcount_warm,
                  "checksum", "uops"),
}


def _truncate(kind, data):
    return data[:len(data) // 2]


def _non_utf8(kind, data):
    middle = len(data) // 2
    return data[:middle] + bytes([data[middle] ^ 0xFF]) + data[middle + 1:]


def _wrong_schema(kind, data):
    return kind.edit(data, lambda document: document.update(schema=999))


def _implausible(kind, data):
    return kind.edit(data, kind.implausible)


#: defect -> (bytes rewrite or None for a rename, diagnosis fragment).
DEFECTS = {
    "truncated": (_truncate, lambda kind: kind.torn_reason),
    "non-utf8": (_non_utf8, lambda kind: kind.torn_reason),
    "wrong-schema": (_wrong_schema, lambda kind: "schema 999"),
    "renamed": (None, lambda kind: "does not match the filename"),
    "implausible": (_implausible, lambda kind: kind.implausible_reason),
}


def _defective_store(tmp_path, samples, kind_name, defect_name):
    """A store holding one healthy blob of ``kind_name`` damaged by
    ``defect_name``: ``(kind, store, victim fingerprint, its path,
    expected diagnosis fragment)``."""
    kind = KINDS[kind_name]
    store = kind.store(tmp_path)
    kind.put(store, samples[kind_name])
    rewrite, reason = DEFECTS[defect_name]
    if rewrite is None:  # a healthy blob copied under a foreign name
        shutil.copy(store.path_for(FINGERPRINT), store.path_for(ALIAS))
        victim = ALIAS
    else:
        victim = FINGERPRINT
        path = store.path_for(victim)
        path.write_bytes(rewrite(kind, path.read_bytes()))
    return kind, store, victim, store.path_for(victim), reason(kind)


MATRIX = pytest.mark.parametrize("defect_name", DEFECTS)
KIND_NAMES = pytest.mark.parametrize("kind_name", KINDS)


@KIND_NAMES
class TestHealthy:
    def test_round_trip_and_a_quiet_doctor(self, tmp_path, samples,
                                           kind_name):
        kind = KINDS[kind_name]
        store = kind.store(tmp_path)
        kind.put(store, samples[kind_name])
        assert kind.get(store, FINGERPRINT) is not None
        report = store.doctor()
        assert report["scanned"] == report["healthy"] == 1
        assert report["defects"] == []
        assert report["corrupt_entries"] == 0
        assert store.stats()["entries"] == 1

    def test_missing_blob_is_a_plain_miss(self, tmp_path, kind_name):
        store = KINDS[kind_name].store(tmp_path)
        assert KINDS[kind_name].get(store, FINGERPRINT) is None
        assert not store.corrupt_directory.exists()
        report = store.doctor()
        assert report["scanned"] == 0
        assert report["defects"] == []


@KIND_NAMES
@MATRIX
class TestCorruption:
    def test_get_quarantines_with_a_reason(self, tmp_path, samples,
                                           kind_name, defect_name):
        kind, store, victim, path, reason = _defective_store(
            tmp_path, samples, kind_name, defect_name)
        assert kind.get(store, victim) is None
        assert not path.exists()
        quarantined = store.corrupt_directory / path.name
        assert quarantined.exists()
        sidecar = json.loads(quarantined.with_suffix(".reason").read_text())
        assert sidecar["fingerprint"] == victim
        assert reason in sidecar["reason"]

    def test_check_mode_reports_and_moves_nothing(self, tmp_path, samples,
                                                  kind_name, defect_name):
        _kind, store, victim, path, reason = _defective_store(
            tmp_path, samples, kind_name, defect_name)
        report = store.doctor(repair=False)
        [(fingerprint, diagnosis)] = report["defects"]
        assert fingerprint == victim
        assert reason in diagnosis
        assert report["repaired"] is False
        assert report["healthy"] == report["scanned"] - 1
        assert path.exists()
        assert not store.corrupt_directory.exists()

    def test_doctor_quarantines_then_rescans_clean(self, tmp_path, samples,
                                                   kind_name, defect_name):
        _kind, store, victim, path, _reason = _defective_store(
            tmp_path, samples, kind_name, defect_name)
        report = store.doctor()
        assert [fp for fp, _ in report["defects"]] == [victim]
        assert report["repaired"] is True
        assert not path.exists()
        assert (store.corrupt_directory / path.name).exists()
        rescan = store.doctor()
        assert rescan["defects"] == []
        assert rescan["healthy"] == rescan["scanned"]
        assert rescan["corrupt_entries"] == 1


STORES = pytest.mark.parametrize("store_cls", [ResultStore, TraceStore])


@STORES
class TestDiscipline:
    def test_stale_versions_are_listed(self, tmp_path, store_cls):
        store = store_cls(tmp_path)
        stale = f"{store.name}-v0"
        (tmp_path / stale).mkdir()
        assert store.doctor()["stale_versions"] == [stale]
        assert store.stats()["stale_versions"] == [stale]

    def test_stats_tolerates_a_concurrent_unlink(self, tmp_path, store_cls,
                                                 monkeypatch):
        """A concurrent ``clear()`` may unlink a blob between the
        directory listing and ``stat()``; one vanished entry must not
        crash the ``cache``/``trace stats`` CLI."""
        store = store_cls(tmp_path)
        for fingerprint in ("a" * 64, "b" * 64):
            blobstore.atomic_write(store.path_for(fingerprint), b"blob")
        doomed = store.path_for("a" * 64).name
        real_stat = pathlib.Path.stat

        def racy_stat(self, **kwargs):
            if self.name == doomed:
                raise FileNotFoundError(self)
            return real_stat(self, **kwargs)

        monkeypatch.setattr(pathlib.Path, "stat", racy_stat)
        stats = store.stats()
        assert stats["entries"] == 1
        assert stats["bytes"] == len(b"blob")

    def test_env_override_of_the_root(self, tmp_path, store_cls,
                                      monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "custom"))
        assert default_cache_dir() == tmp_path / "custom"
        store = store_cls()
        assert store.root == tmp_path / "custom"
        assert store.directory.name == f"{store.name}-v{store.schema}"


class _Interrupted(BaseException):
    """A kill arriving mid-write (not an ``Exception``, like Ctrl-C)."""


def _failing(exc):
    def fail(*args, **kwargs):
        raise exc
    return fail


@KIND_NAMES
@pytest.mark.parametrize("call, exc", [("fsync", OSError("disk full")),
                                       ("replace", _Interrupted())])
def test_failed_write_keeps_the_previous_blob(tmp_path, samples, kind_name,
                                              call, exc, monkeypatch):
    kind = KINDS[kind_name]
    store = kind.store(tmp_path)
    kind.put(store, samples[kind_name])
    path = store.path_for(FINGERPRINT)
    before = path.read_bytes()
    monkeypatch.setattr(os, call, _failing(exc))
    with pytest.raises(type(exc)):
        kind.put(store, samples[kind_name])
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert sorted(p.name for p in store.directory.iterdir()) == [path.name]
    assert kind.get(store, FINGERPRINT) is not None
