"""The on-disk trace store: container round-trips, every corruption
class, quarantine evidence, and the doctor scan.

The crash/corruption outcomes every stored kind shares live in one
matrix, ``tests/test_blobstore.py``; this file keeps what only the
container format has."""

from __future__ import annotations

import hashlib
import json
import shutil
import struct

import pytest

from repro.trace.capture import TraceKey, capture
from repro.trace.store import (
    TraceFormatError,
    TraceStore,
    deserialize,
    serialize,
)

WEE_KEY = TraceKey("sat-solver", window_uops=2_000, warm_uops=500)

_MAGIC = b"REPROTRC"
_HEADER_LEN = struct.Struct("<I")


@pytest.fixture(scope="module")
def captured():
    trace, _app = capture(WEE_KEY)
    return trace


def header_of(data: bytes) -> dict:
    """Parse a container's JSON header (test-side mirror of the store)."""
    header_len, = _HEADER_LEN.unpack_from(data, len(_MAGIC))
    start = len(_MAGIC) + _HEADER_LEN.size
    return json.loads(data[start:start + header_len])


def resign(data: bytes, **header_updates) -> bytes:
    """Rewrite a container's header and recompute the digest.

    Lets a test corrupt one specific header field while keeping the
    checksum valid, so the parser's own validation (not the checksum)
    is what must catch it.
    """
    body = data[:-32]
    header_len, = _HEADER_LEN.unpack_from(body, len(_MAGIC))
    header_start = len(_MAGIC) + _HEADER_LEN.size
    header = json.loads(body[header_start:header_start + header_len])
    header.update(header_updates)
    header_bytes = json.dumps(header, sort_keys=True,
                              separators=(",", ":")).encode("utf-8")
    new_body = (_MAGIC + _HEADER_LEN.pack(len(header_bytes))
                + header_bytes + body[header_start + header_len:])
    return new_body + hashlib.sha256(new_body).digest()


class TestContainerRoundTrip:
    def test_everything_survives(self, captured):
        restored = deserialize(serialize(captured))
        assert restored.fingerprint == captured.fingerprint
        assert restored.label == captured.label
        assert restored.fill_ranges == captured.fill_ranges
        assert restored.warm == captured.warm
        assert restored.streams == captured.streams
        assert restored.meta == captured.meta

    def test_serialization_is_deterministic(self, captured):
        assert serialize(captured) == serialize(captured)


class TestContainerDefects:
    def test_too_short(self):
        with pytest.raises(TraceFormatError, match="shorter"):
            deserialize(b"REPRO")

    def test_bad_magic(self, captured):
        data = serialize(captured)
        with pytest.raises(TraceFormatError, match="magic"):
            deserialize(b"NOTTRACE" + data[8:])

    def test_bit_flip_fails_checksum(self, captured):
        data = bytearray(serialize(captured))
        data[len(data) // 2] ^= 0xFF
        with pytest.raises(TraceFormatError, match="checksum"):
            deserialize(bytes(data))

    def test_truncated_payload_fails_checksum(self, captured):
        data = serialize(captured)
        with pytest.raises(TraceFormatError):
            deserialize(data[:-100])

    def test_wrong_schema(self, captured):
        data = resign(serialize(captured), schema=999)
        with pytest.raises(TraceFormatError, match="schema"):
            deserialize(data)

    def test_foreign_byteorder(self, captured):
        data = resign(serialize(captured), byteorder="middle")
        with pytest.raises(TraceFormatError, match="endian"):
            deserialize(data)

    def test_uop_count_mismatch(self, captured):
        sections = header_of(serialize(captured))["sections"]
        sections[0] = dict(sections[0], uops=sections[0]["uops"] + 1)
        data = resign(serialize(captured), sections=sections)
        with pytest.raises(TraceFormatError, match="uops"):
            deserialize(data)

    def test_missing_warm_section(self, captured):
        sections = header_of(serialize(captured))["sections"]
        sections[0] = dict(sections[0], name="stream9")
        data = resign(serialize(captured), sections=sections)
        with pytest.raises(TraceFormatError, match="warm"):
            deserialize(data)

    def test_alien_column_set(self, captured):
        sections = header_of(serialize(captured))["sections"]
        columns = [dict(c) for c in sections[0]["columns"]]
        columns[0]["name"] = "opcode"
        sections[0] = dict(sections[0], columns=columns)
        data = resign(serialize(captured), sections=sections)
        with pytest.raises(TraceFormatError, match="columns"):
            deserialize(data)


class TestTraceStore:
    def test_put_get_round_trip(self, tmp_path, captured):
        store = TraceStore(tmp_path)
        store.put(captured)
        restored = store.get(captured.fingerprint)
        assert restored is not None
        assert restored.warm == captured.warm
        assert restored.streams == captured.streams

    def test_miss_is_none(self, tmp_path):
        assert TraceStore(tmp_path).get("f" * 64) is None

    def test_defect_is_quarantined_with_reason(self, tmp_path, captured):
        store = TraceStore(tmp_path)
        store.put(captured)
        path = store.path_for(captured.fingerprint)
        path.write_bytes(path.read_bytes()[:-40])
        assert store.get(captured.fingerprint) is None
        assert not path.exists()
        quarantined = store.corrupt_directory / path.name
        assert quarantined.exists()
        reason = json.loads(
            quarantined.with_suffix(".reason").read_text())
        assert reason["fingerprint"] == captured.fingerprint
        assert reason["reason"]

    def test_renamed_container_is_rejected(self, tmp_path, captured):
        store = TraceStore(tmp_path)
        store.put(captured)
        alias = "0" * 64
        shutil.copy(store.path_for(captured.fingerprint),
                    store.path_for(alias))
        assert store.get(alias) is None
        reason = json.loads(
            (store.corrupt_directory / f"{alias}.reason").read_text())
        assert "does not match the filename" in reason["reason"]

    def test_entries_remove_clear_stats(self, tmp_path, captured):
        store = TraceStore(tmp_path)
        store.put(captured)
        entries = store.entries()
        assert len(entries) == 1
        assert entries[0]["label"] == "sat-solver"
        assert entries[0]["meta"]["window_uops"] == 2_000
        stats = store.stats()
        assert stats["entries"] == 1
        assert stats["bytes"] > 0
        assert store.remove(captured.fingerprint[:8]) == 1
        assert store.stats()["entries"] == 0
        store.put(captured)
        assert store.clear() == 1

    def test_env_override_of_default_root(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "custom"))
        store = TraceStore()
        assert store.root == tmp_path / "custom"
        assert store.directory.name.startswith("traces-v")


class TestDoctor:
    def test_stale_versions_listed(self, tmp_path, captured):
        store = TraceStore(tmp_path)
        store.put(captured)
        (tmp_path / "traces-v0").mkdir()
        assert store.doctor()["stale_versions"] == ["traces-v0"]
        assert store.stats()["stale_versions"] == ["traces-v0"]
