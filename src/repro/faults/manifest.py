"""Crash-safe checkpointing for long experiment sweeps.

A sweep (several workloads x several modes x a measurement window) can
take long enough that losing all progress to an interruption hurts.
:class:`SweepManifest` persists one JSON document per sweep under
``benchmarks/results/``; every completed cell is recorded with an
atomic write (:func:`repro.blobstore.atomic_write`), so a kill at any
instant leaves either the previous or the new manifest on disk — never
a torn one.  Re-invoking the sweep skips cells the manifest already holds.

The manifest is keyed by a ``meta`` dictionary (window, seed, plan
digest, ...): if the sweep's configuration changes, the stale manifest
is discarded rather than mixed in.
"""

from __future__ import annotations

import json
import pathlib

from repro.blobstore import atomic_write, json_bytes


class SweepManifest:
    """A per-run checkpoint file mapping cell keys to row payloads."""

    FORMAT_VERSION = 1

    def __init__(self, path: str | pathlib.Path, meta: dict) -> None:
        self.path = pathlib.Path(path)
        self.meta = dict(meta)
        self.cells: dict[str, dict] = {}
        self._load()

    def _load(self) -> None:
        try:
            raw = json.loads(self.path.read_bytes())
        except (OSError, ValueError):  # ValueError: bad JSON or UTF-8
            return  # missing or torn-by-older-tooling file: start fresh
        if not isinstance(raw, dict):
            return
        if raw.get("version") != self.FORMAT_VERSION:
            return
        if raw.get("meta") != self.meta:
            return  # different sweep configuration: don't mix results
        cells = raw.get("cells")
        if isinstance(cells, dict):
            self.cells = {str(k): v for k, v in cells.items()
                          if isinstance(v, dict)}

    def __contains__(self, key: str) -> bool:
        return key in self.cells

    def __len__(self) -> int:
        return len(self.cells)

    def get(self, key: str) -> dict | None:
        """The recorded payload for ``key``, or None if not yet run."""
        return self.cells.get(key)

    def put(self, key: str, payload: dict) -> None:
        """Record a completed cell and persist the manifest atomically."""
        self.cells[key] = payload
        self._flush()

    def discard(self) -> None:
        """Forget all recorded cells and remove the file (``--fresh``)."""
        self.cells = {}
        try:
            self.path.unlink()
        except FileNotFoundError:
            pass

    def _flush(self) -> None:
        atomic_write(self.path, json_bytes({
            "version": self.FORMAT_VERSION,
            "meta": self.meta,
            "cells": self.cells,
        }))
