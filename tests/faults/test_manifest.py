"""The sweep journal's file format: atomic persistence and invalidation.

Every sweep (runner, fleet and Figure 8 cells alike) journals completed
cells through :class:`~repro.core.supervise.SweepCheckpoint`: one JSON
document ``{"version": 1, "meta": ..., "cells": {key: {"runs": payload}}}``
rewritten atomically per cell, discarded whole when it belongs to
another build or another sweep.
"""

import json

from repro.blobstore import json_bytes
from repro.core.store import SCHEMA_VERSION
from repro.core.supervise import SweepCheckpoint, sweep_digest

PRINTS = ["a" * 64, "b" * 64]


def _journal(tmp_path, resume=True) -> SweepCheckpoint:
    return SweepCheckpoint(tmp_path, PRINTS, resume=resume)


def _rewrite(checkpoint: SweepCheckpoint, edit) -> None:
    document = json.loads(checkpoint.path.read_bytes())
    edit(document)
    checkpoint.path.write_text(json.dumps(document))


class TestRoundTrip:
    def test_put_get_and_persistence(self, tmp_path):
        first = _journal(tmp_path, resume=False)
        assert len(first) == 0
        first.put(PRINTS[0], [{"ipc": 0.33}])
        assert first.get(PRINTS[0]) == [{"ipc": 0.33}]

        second = _journal(tmp_path)
        assert len(second) == 1
        assert second.get(PRINTS[0]) == [{"ipc": 0.33}]
        assert second.get(PRINTS[1]) is None

    def test_writes_are_atomic_leaving_no_temp_files(self, tmp_path):
        checkpoint = _journal(tmp_path)
        for index, fingerprint in enumerate(PRINTS * 3):
            checkpoint.put(fingerprint, [{"value": index}])
        leftovers = [p for p in tmp_path.iterdir()
                     if p.name != checkpoint.path.name]
        assert leftovers == []
        assert json.loads(checkpoint.path.read_text())["version"] == 1

    def test_discard_removes_the_file(self, tmp_path):
        checkpoint = _journal(tmp_path)
        checkpoint.put(PRINTS[0], [{"value": 1}])
        checkpoint.complete()
        assert not checkpoint.path.exists()
        assert len(checkpoint) == 0
        checkpoint.complete()  # idempotent on a missing file
        # Without --resume a leftover journal is discarded on open.
        checkpoint.put(PRINTS[0], [{"value": 1}])
        assert len(_journal(tmp_path, resume=False)) == 0
        assert not checkpoint.path.exists()


class TestInvalidation:
    def test_corrupt_file_starts_fresh(self, tmp_path):
        checkpoint = _journal(tmp_path)
        checkpoint.path.write_text("{ not json")
        assert len(_journal(tmp_path)) == 0

    def test_non_dict_document_starts_fresh(self, tmp_path):
        checkpoint = _journal(tmp_path)
        checkpoint.path.write_text("[1, 2, 3]")
        assert len(_journal(tmp_path)) == 0

    def test_version_mismatch_starts_fresh(self, tmp_path):
        checkpoint = _journal(tmp_path)
        checkpoint.put(PRINTS[0], [{"value": 1}])
        _rewrite(checkpoint, lambda document: document.update(version=99))
        assert len(_journal(tmp_path)) == 0

    def test_meta_mismatch_starts_fresh(self, tmp_path):
        checkpoint = _journal(tmp_path)
        checkpoint.put(PRINTS[0], [{"value": 1}])
        _rewrite(checkpoint, lambda document: document["meta"].update(
            store_schema=SCHEMA_VERSION + 1))
        assert len(_journal(tmp_path)) == 0
        # The matching meta still reads it.
        _rewrite(checkpoint, lambda document: document["meta"].update(
            store_schema=SCHEMA_VERSION))
        assert len(_journal(tmp_path)) == 1

    def test_malformed_cells_are_skipped(self, tmp_path):
        checkpoint = _journal(tmp_path)
        checkpoint.put(PRINTS[0], [{"x": 1}])
        _rewrite(checkpoint, lambda document: document["cells"].update(
            {PRINTS[1]: "not-a-dict"}))
        journal = _journal(tmp_path)
        assert journal.get(PRINTS[0]) == [{"x": 1}]
        assert journal.get(PRINTS[1]) is None
        assert len(journal) == 1


class TestFormat:
    def test_journal_in_the_earlier_byte_format_resumes(self, tmp_path):
        """The bytes are pinned so a journal left by an earlier build
        resumes: sorted keys, one-space indent, cells as
        ``{"runs": payload}``."""
        digest = sweep_digest(PRINTS)
        document = {
            "version": 1,
            "meta": {"sweep": digest, "store_schema": SCHEMA_VERSION},
            "cells": {PRINTS[0]: {"runs": [{"ipc": 0.33, "p99": 782}]}},
        }
        path = tmp_path / f"sweep-{digest[:24]}.json"
        path.write_bytes(json.dumps(document, indent=1,
                                    sort_keys=True).encode("utf-8"))

        checkpoint = _journal(tmp_path)
        assert checkpoint.get(PRINTS[0]) == [{"ipc": 0.33, "p99": 782}]
        checkpoint.put(PRINTS[1], [{"ipc": 0.5, "p99": 9}])
        document["cells"][PRINTS[1]] = {"runs": [{"ipc": 0.5, "p99": 9}]}
        assert path.read_bytes() == json_bytes(document)
        assert path.read_bytes() == json.dumps(
            document, indent=1, sort_keys=True).encode("utf-8")
