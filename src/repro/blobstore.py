"""One on-disk blob store: the disk discipline every persistent kind shares.

A *kind* — :class:`~repro.core.store.ResultStore` (sweep results, fleet
summaries, cost models) or :class:`~repro.trace.store.TraceStore`
(captured traces) — subclasses :class:`BlobStore`, names its ``name``,
``schema`` and ``suffix``, and supplies :meth:`BlobStore.decode`, which
raises :class:`Defect` on a blob it cannot trust.  Layout::

    <root>/<name>-v<schema>/<fingerprint><suffix>   current blobs
    <root>/corrupt/<fingerprint><suffix>            quarantined blobs
    <root>/corrupt/<fingerprint>.reason             their diagnoses

This module owns the rest, once: the root (:func:`default_cache_dir`),
the crash-safe write (:func:`atomic_write`), load-with-quarantine (a
defective blob is a miss, but its evidence survives recomputation),
the doctor scan, stats, the stale-schema census, and remove/clear.
Stdlib only and outside every package, so any layer may import it.
"""

from __future__ import annotations

import json
import os
import pathlib
import tempfile

__all__ = ["BlobStore", "Defect", "atomic_write", "default_cache_dir",
           "json_bytes"]


class Defect(ValueError):
    """A stored blob that cannot be trusted; the message is the
    diagnosis recorded in its ``.reason`` sidecar."""


def default_cache_dir() -> pathlib.Path:
    # repro-lint: sanitizer -- environment chooses where results live, never what they contain
    """The store root: ``$REPRO_CACHE_DIR``, else XDG, else ~/.cache."""
    override = os.environ.get("REPRO_CACHE_DIR")
    if override:
        return pathlib.Path(override)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = pathlib.Path(xdg) if xdg else pathlib.Path.home() / ".cache"
    return base / "repro"


def json_bytes(document: object) -> bytes:
    """The encoding of every JSON document on disk (sorted keys, so a
    document's bytes depend only on its content)."""
    return json.dumps(document, indent=1, sort_keys=True).encode("utf-8")


def atomic_write(path: str | pathlib.Path, data: bytes) -> None:
    """Write ``data`` to ``path`` via temp file + fsync + ``os.replace``.

    A kill at any instant leaves either the previous file or the new
    one on disk — never a torn one — and a write that fails leaves the
    previous file and no temp file behind.
    """
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        prefix=path.name + ".", suffix=".tmp", dir=str(path.parent),
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


class BlobStore:
    """A directory of fingerprint-keyed blobs of one kind."""

    #: ``<root>/<name>-v<schema>/<fingerprint><suffix>``; set by each kind.
    name: str
    schema: int
    suffix: str

    def __init__(self, root: str | pathlib.Path | None = None) -> None:
        self.root = pathlib.Path(root) if root is not None \
            else default_cache_dir()
        self.directory = self.root / f"{self.name}-v{self.schema}"
        self.corrupt_directory = self.root / "corrupt"

    def path_for(self, fingerprint: str) -> pathlib.Path:
        return self.directory / f"{fingerprint}{self.suffix}"

    def decode(self, data: bytes, fingerprint: str) -> object:
        """The value a blob stored under ``fingerprint`` holds (never
        None); raises :class:`Defect` if ``data`` cannot be trusted."""
        raise NotImplementedError

    def _decode_file(self, path: pathlib.Path, fingerprint: str
                     ) -> tuple[object, str | None]:
        """``(value, None)`` for a healthy blob, ``(None, reason)`` for
        a defective one, ``(None, None)`` for a missing one."""
        try:
            data = path.read_bytes()
        except FileNotFoundError:
            return None, None
        except OSError as exc:
            return None, f"unreadable: {exc}"
        try:
            return self.decode(data, fingerprint), None
        except Defect as exc:
            return None, str(exc)

    def _load(self, fingerprint: str) -> object:
        """The stored value, or None on a miss.  A defective blob is a
        miss too, but it is quarantined first so the evidence survives
        recomputation."""
        value, defect = self._decode_file(self.path_for(fingerprint),
                                          fingerprint)
        if defect is not None:
            self.quarantine(fingerprint, defect)
        return value

    def _blobs(self) -> list[pathlib.Path]:
        """Every current-version blob, filename-sorted."""
        if not self.directory.is_dir():
            return []
        return sorted(self.directory.glob(f"*{self.suffix}"))

    def quarantine(self, fingerprint: str, reason: str) -> pathlib.Path | None:
        """Move a defective blob into ``corrupt/``, keeping evidence.

        A ``.reason`` sidecar records the diagnosis.  Returns the new
        path, or None if the blob vanished concurrently.
        """
        source = self.path_for(fingerprint)
        target = self.corrupt_directory / source.name
        self.corrupt_directory.mkdir(parents=True, exist_ok=True)
        try:
            os.replace(source, target)
        except OSError:
            return None  # vanished (or unmovable) concurrently
        atomic_write(target.with_suffix(".reason"),
                     json_bytes({"fingerprint": fingerprint,
                                 "reason": reason}))
        return target

    def doctor(self, repair: bool = True) -> dict:
        """Scan every blob; quarantine (or, with ``repair=False``, just
        report) the defective ones.

        Returns a report dictionary: how many blobs were scanned and
        healthy, the ``(fingerprint, reason)`` defect list, whether
        they were quarantined, plus the ``corrupt/`` population of this
        kind and the stale schema directories.
        """
        scanned = 0
        healthy = 0
        defects: list[tuple[str, str]] = []
        for path in self._blobs():
            value, defect = self._decode_file(path, path.stem)
            if value is None and defect is None:
                continue  # removed while we scanned
            scanned += 1
            if defect is None:
                healthy += 1
                continue
            defects.append((path.stem, defect))
            if repair:
                self.quarantine(path.stem, defect)
        return {"path": str(self.directory), "scanned": scanned,
                "healthy": healthy, "defects": defects, "repaired": repair,
                **self._census()}

    def stats(self) -> dict:
        """Entry count, total bytes, quarantined and stale leftovers."""
        entries = 0
        nbytes = 0
        for path in self._blobs():
            try:
                nbytes += path.stat().st_size
            except FileNotFoundError:
                continue  # unlinked by a concurrent clear()
            entries += 1
        return {"path": str(self.directory), "entries": entries,
                "bytes": nbytes, **self._census()}

    def _census(self) -> dict:
        corrupt = len(list(self.corrupt_directory.glob(f"*{self.suffix}"))) \
            if self.corrupt_directory.is_dir() else 0
        stale = sorted(
            p.name for p in self.root.glob(f"{self.name}-v*")
            if p.is_dir() and p != self.directory
        ) if self.root.is_dir() else []
        return {"corrupt_entries": corrupt, "stale_versions": stale}

    def remove(self, prefix: str) -> int:
        """Unlink current-version blobs whose fingerprint starts with
        ``prefix``; returns how many."""
        removed = 0
        for path in self._blobs():
            if path.stem.startswith(prefix):
                try:
                    path.unlink()
                    removed += 1
                except FileNotFoundError:
                    pass
        return removed

    def clear(self) -> int:
        """Remove every current-version blob; returns how many."""
        return self.remove("")
