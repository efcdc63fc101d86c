"""Content-addressed result cache for ``repro lint``.

Lint output is a pure function of (file bytes, rule set), so results
cache by content hash with no invalidation protocol at all:

* the **rule-set version** is a SHA-256 over the lint package's own
  source files — editing any rule silently retires every old entry;
* a **file entry** (``file-<sha>.json``) keys the per-file-rule
  findings of one file by ``sha256(version | rules | path | bytes)``;
* a **tree entry** (``tree-<sha>.json``) keys the *final* filtered,
  sorted finding list of a whole run by the sorted ``(path, sha)``
  manifest — a warm re-lint hashes the files and reads one JSON.

Entries live under ``$REPRO_CACHE_DIR`` (or ``$XDG_CACHE_HOME/repro``,
default ``~/.cache/repro``) in a ``lint-v1`` subdirectory.  The
location logic intentionally duplicates ``repro.blobstore`` rather
than importing it: the ``import-layering`` table declares ``lint``
imports nothing, so the linter stays loadable without executing any
simulator code.  Every cache operation is best-effort — a read-only or
corrupt cache degrades to a cold run, never to an error.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib

_VERSION_MEMO: str | None = None


def cache_dir() -> pathlib.Path:
    # repro-lint: sanitizer -- environment chooses where entries live, never their content
    """``lint-v1`` under the repro cache root (not created yet)."""
    override = os.environ.get("REPRO_CACHE_DIR")
    if override:
        base = pathlib.Path(override)
    else:
        xdg = os.environ.get("XDG_CACHE_HOME")
        base = (pathlib.Path(xdg) if xdg
                else pathlib.Path.home() / ".cache") / "repro"
    return base / "lint-v1"


def ruleset_version() -> str:
    """SHA-256 over the lint package's own sources, memoized."""
    global _VERSION_MEMO
    if _VERSION_MEMO is None:
        package = pathlib.Path(__file__).resolve().parent
        digest = hashlib.sha256()
        for path in sorted(package.rglob("*.py")):
            if "__pycache__" in path.parts:
                continue
            digest.update(path.relative_to(package).as_posix().encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
            digest.update(b"\0")
        _VERSION_MEMO = digest.hexdigest()
    return _VERSION_MEMO


def file_digest(data: bytes) -> str:
    """Hex SHA-256 of one file's bytes (the cache's only key material)."""
    return hashlib.sha256(data).hexdigest()


class LintCache:
    """A flat directory of small JSON payloads, keyed by content."""

    def __init__(self, base: pathlib.Path | None = None) -> None:
        self.base = base if base is not None else cache_dir()

    def _path(self, key: str) -> pathlib.Path:
        return self.base / f"{key}.json"

    def get(self, key: str) -> dict | None:
        try:
            raw = self._path(key).read_text(encoding="utf-8")
            payload = json.loads(raw)
        except (OSError, ValueError):
            return None
        return payload if isinstance(payload, dict) else None

    def put(self, key: str, payload: dict) -> None:
        try:
            self.base.mkdir(parents=True, exist_ok=True)
            tmp = self._path(key).with_suffix(f".tmp{os.getpid()}")
            tmp.write_text(json.dumps(payload, sort_keys=True),
                           encoding="utf-8")
            tmp.replace(self._path(key))
        except OSError:
            pass  # best-effort: a cold run is always correct
